"""The synthesizer table that ``dips synth`` and the study harness share.

``SYNTHESIZERS`` maps a method name to
``release(rng, data, eps, m, ledger, postprocess) -> list[TabularDataset]``.
Every released set has ``data``'s columns.  Per-set methods spend eps/m on
each of m sets; a set whose sanitized counts have no mass is dropped, so a
release may hold fewer than m sets.  The ledger still carries that set's
charge, since ``perturb_histogram`` charges before it raises
``AllCellsZero``.

Entries call the synthesizers by their module-global names, so a wrapper
installed on one of those names sees every call.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .hist_synth import (
    AllCellsZero,
    build_histogram,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    scott_grid,
    smooth_histogram,
)
from .param_synth import (
    BernoulliModel,
    NormalModel,
    bbmr_synthesizer,
    md_synthesizer,
    modips_release,
)

__all__ = ["SYNTHESIZERS", "modips_entry"]


def _per_set(rng, eps, m, draw) -> list[TabularDataset]:
    """``draw(rng.substream(j), eps/m, j)`` for each of m sets, dropping
    the sets whose sanitized counts have no mass."""
    share = Fraction(eps) / m
    sets = []
    for j in range(m):
        try:
            sets.append(draw(rng.substream(j), share, j))
        except AllCellsZero:
            continue
    return sets


def _only_column(data, kind, message):
    if len(data.columns) != 1 or not isinstance(data.columns[0], kind):
        raise ValueError(message)
    return data.columns[0]


def _binary_column(data, method):
    col = _only_column(data, CategoricalColumn,
                       f"{method} needs a single binary column")
    if len(col.levels) != 2:
        raise ValueError(f"{method} needs a single binary column")
    return col


def _continuous_column(data, method):
    return _only_column(data, ContinuousColumn,
                        f"{method} needs a single continuous column")


def _all_categorical(data, method) -> list[str]:
    if not all(isinstance(c, CategoricalColumn) for c in data.columns):
        raise ValueError(f"{method} needs all-categorical data")
    return [c.name for c in data.columns]


def _laplace(rng, data, eps, m, ledger, postprocess):
    names = _all_categorical(data, "laplace sanitizer")

    def draw(sub, share, j):
        codes = laplace_sanitizer_crosstab(sub, data, names, share,
                                           ledger=ledger,
                                           label=f"laplace-set{j}")
        return TabularDataset(data.columns, codes, validate=False)

    return _per_set(rng, eps, m, draw)


def _pert_hist(rng, data, eps, m, ledger, postprocess):
    shape = scott_grid(data)
    counts = build_histogram(data, shape)

    def draw(sub, share, j):
        pert = perturb_histogram(sub, counts, share, ledger=ledger,
                                 label=f"pert-set{j}")
        return sample_from_histogram(sub.substream(1), data.columns, shape,
                                     pert, data.n)

    return _per_set(rng, eps, m, draw)


def _smooth_hist(rng, data, eps, m, ledger, postprocess):
    shape = scott_grid(data)
    probs = smooth_histogram(build_histogram(data, shape), eps, ledger=ledger)
    return [sample_from_histogram(rng, data.columns, shape, probs, data.n)]


def _md(rng, data, eps, m, ledger, postprocess):
    _all_categorical(data, "md synthesizer")
    shape = scott_grid(data)
    counts = build_histogram(data, shape).astype(int)
    return [TabularDataset(
        data.columns,
        {c.name: codes.astype(np.int64) for c, codes in zip(
            data.columns, np.unravel_index(cells, shape))},
        validate=False)
        for cells in md_synthesizer(rng, counts, eps, m, ledger=ledger)]


def _bbmr(rng, data, eps, m, ledger, postprocess):
    col = _binary_column(data, "bbmr")
    x = bbmr_synthesizer(rng, int(data.column(col.name).sum()), data.n, eps,
                         ledger=ledger)
    return [TabularDataset(data.columns, {col.name: x}, validate=False)]


def modips_entry(method, model, check=None):
    """The entry that releases ``model`` (a stateless plugin, shared by
    every release) under MODIPS, after ``check(data, method)`` when one is
    given; the method "ms" releases without noise."""
    def release(rng, data, eps, m, ledger, postprocess):
        if check is not None:
            check(data, method)
        return modips_release(rng, data, model, eps, m, ledger=ledger,
                              sanitize=method != "ms",
                              postprocess=postprocess, method=method).sets
    return release


SYNTHESIZERS = {
    "laplace": _laplace,
    "pert-hist": _pert_hist,
    "smooth-hist": _smooth_hist,
    "md": _md,
    "bbmr": _bbmr,
    "modips-bernoulli": modips_entry("modips-bernoulli", BernoulliModel(),
                                     _binary_column),
    "modips-normal": modips_entry("modips-normal", NormalModel(),
                                  _continuous_column),
}
