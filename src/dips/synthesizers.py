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
    BinnedAxis,
    CategoricalAxis,
    GridSpec,
    bin_count_from_width,
    bin_width_scott,
    build_histogram,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    smooth_histogram,
)
from .param_synth import (
    BernoulliModel,
    NormalModel,
    bbmr_synthesizer,
    md_synthesizer,
    modips_release,
)

__all__ = ["SYNTHESIZERS", "histogram_grid", "modips_entry"]


def histogram_grid(data: TabularDataset) -> GridSpec:
    """One axis per column: the categorical levels, or Scott's-rule bins
    over the declared bounds (one bin when the column has no spread)."""
    axes = []
    for c in data.columns:
        if isinstance(c, CategoricalColumn):
            axes.append(CategoricalAxis(len(c.levels)))
            continue
        x = data.column(c.name)
        sd = float(x.std(ddof=1)) if len(x) > 1 else 0.0
        bins = (bin_count_from_width(c.lo, c.hi, bin_width_scott(sd, len(x)))
                if sd > 0 else 1)
        axes.append(BinnedAxis(c.lo, c.hi, bins))
    return GridSpec(tuple(axes))


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


def _from_axes(data, draw):
    return TabularDataset(data.columns, {c.name: draw[f"axis{j}"]
                                         for j, c in enumerate(data.columns)},
                          validate=False)


def _pert_hist(rng, data, eps, m, ledger, postprocess):
    grid = histogram_grid(data)
    counts = build_histogram(data, grid)

    def draw(sub, share, j):
        pert = perturb_histogram(sub, counts, share, ledger=ledger,
                                 label=f"pert-set{j}")
        return _from_axes(data, sample_from_histogram(
            sub.substream(1), grid, pert, data.n))

    return _per_set(rng, eps, m, draw)


def _smooth_hist(rng, data, eps, m, ledger, postprocess):
    grid = histogram_grid(data)
    probs = smooth_histogram(build_histogram(data, grid), eps, ledger=ledger)
    return [_from_axes(data, sample_from_histogram(rng, grid, probs,
                                                   data.n))]


def _md(rng, data, eps, m, ledger, postprocess):
    _all_categorical(data, "md synthesizer")
    grid = histogram_grid(data)
    counts = build_histogram(data, grid).astype(int)
    return [TabularDataset(
        data.columns,
        {c.name: codes.astype(np.int64) for c, codes in zip(
            data.columns, np.unravel_index(cells, grid.shape))},
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
