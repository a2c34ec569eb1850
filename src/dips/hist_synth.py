"""Non-parametric synthesis: Laplace-sanitized cross-tabulations, perturbed
and smoothed histograms, and data synthesis from sanitized grids.

A grid over a dataset's columns is one size per column: the level count
of a categorical column, or the bin count of a continuous one, whose bins
split its declared [lo, hi] into equal widths from lo.  A histogram is a
plain array of per-cell counts in the grid's flat (C-order) cell order.
Every cell of a grid has the same volume, so a cell's probability is its
count over the total.

A count has sensitivity 1: neighbouring datasets differ by one row.
Counts over disjoint grid cells are sanitized under parallel composition:
every cell receives the full per-release budget, and the ledger is
charged once per release, not once per cell.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import EpsLike, PrivacyLedger
from .dataset import CategoricalColumn, TabularDataset
from .mechanisms import SensitivitySpec, laplace_mechanism
from .randvar import RngStream

__all__ = [
    "AllCellsZero",
    "MAX_GRID_CELLS",
    "scott_bins",
    "scott_grid",
    "grid_cells",
    "build_histogram",
    "perturb_histogram",
    "smooth_histogram",
    "sample_from_histogram",
    "laplace_sanitizer_crosstab",
]


class AllCellsZero(RuntimeError):
    """Every sanitized cell count is zero; the release is unusable."""


# the most cells a grid may have; a larger one is refused before any
# per-cell array is allocated
MAX_GRID_CELLS = 2 ** 24


# -- grids ------------------------------------------------------------------

def scott_bins(ranges, sd, rows, spread):
    """Scott's rule (Scott 1979), elementwise: ceil(range / (3.5 * S *
    n^(-1/3))) bins from the sample SD S of n rows, and one bin where the
    rows do not spread (``spread`` false, or S = 0).  Float counts; a
    width too small for its range gives inf, which ``grid_cells`` refuses."""
    spread = np.logical_and(spread, np.asarray(sd) > 0)
    width = (3.5 * np.where(spread, sd, 1.0)
             * np.maximum(rows, 2) ** (-1.0 / 3.0))
    with np.errstate(over="ignore"):
        return np.where(spread, np.maximum(1.0, np.ceil(ranges / width)), 1.0)


def scott_grid(data: TabularDataset) -> tuple:
    """The grid over ``data``'s columns: each categorical column's level
    count, and Scott's-rule bins (SD with ddof 1) over each continuous
    column's declared bounds.  A column whose SD overflows a float is a
    ValueError that names it."""
    shape = []
    for c in data.columns:
        if isinstance(c, CategoricalColumn):
            shape.append(len(c.levels))
            continue
        x = data.column(c.name)
        many = len(x) > 1
        sd = 0.0
        if many:
            try:
                with np.errstate(over="raise"):
                    sd = float(x.std(ddof=1))
            except FloatingPointError:
                raise ValueError(f"column {c.name!r} is too wide: its SD "
                                 "overflows a float") from None
        bins = scott_bins(c.hi - c.lo, sd, len(x), many and x.min() < x.max())
        shape.append(int(bins) if np.isfinite(bins) else math.inf)
    return tuple(shape)


def grid_cells(shape) -> int:
    """The exact cell count of a grid; refuses more than MAX_GRID_CELLS."""
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"a grid of {cells} cells is more than the "
                         f"{MAX_GRID_CELLS} allowed")
    return cells


# -- histogram operations ---------------------------------------------------

def build_histogram(data: TabularDataset, shape) -> np.ndarray:
    """Per-cell row counts (float) in the grid's flat cell order; a value
    on a bin edge counts in the upper bin, and ``hi`` in the last bin."""
    cells = grid_cells(shape)
    codes = []
    for c, size in zip(data.columns, shape, strict=True):
        vals = data.column(c.name)
        if isinstance(c, CategoricalColumn):
            codes.append(vals.astype(np.int64))
        else:
            scaled = (vals - c.lo) / ((c.hi - c.lo) / size)
            codes.append(np.maximum(
                np.minimum(scaled.astype(np.int64), size - 1), 0))
    return np.bincount(np.ravel_multi_index(codes, shape),
                       minlength=cells).astype(float)


def perturb_histogram(rng: RngStream, counts: np.ndarray, eps: EpsLike,
                      ledger: PrivacyLedger,
                      label: str = "perturbed-histogram") -> np.ndarray:
    """Laplace-perturb every cell count with the full eps (parallel
    composition over disjoint cells), then legitimize negatives by BIT at 0;
    returns the sanitized counts.

    The noise uses ``float(eps)``; the ledger records ``eps`` as given, so
    an exact ``Fraction`` share stays exact on the ledger.
    """
    stat = laplace_mechanism(rng, counts, SensitivitySpec(1.0), float(eps),
                             label, lower=0.0)
    ledger.charge(label, eps, mode="parallel", group=label)
    if stat.sanitized.sum() <= 0:
        raise AllCellsZero(f"{label}: all sanitized counts are zero")
    return stat.sanitized


def smooth_histogram(counts: np.ndarray, eps: float,
                     ledger: PrivacyLedger,
                     label: str = "smoothed-histogram") -> np.ndarray:
    """DP smoothed histogram: the cell probabilities (1 - lambda) c / n +
    lambda / K over K cells, with the minimal
    lambda = K / (K + n (e^(eps/n) - 1)).
    """
    k, n = counts.size, float(counts.sum())
    lam = smoothing_weight(k, n, eps)
    probs = (1.0 - lam) * (counts / n) + lam / k
    ledger.charge(label, eps, mode="sequential")
    return probs


def smoothing_weight(cell_count: int, n: float, eps: float) -> float:
    """The minimal mixing weight lambda for the smoothed histogram."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if not (n > 0):
        raise ValueError("the smoothed histogram needs at least one row")
    if eps / n > 700:  # expm1 would overflow; the weight underflows to 0
        return 0.0
    return cell_count / (cell_count + n * math.expm1(eps / n))


def sample_from_histogram(rng: RngStream, columns, shape, weights,
                          n_out: int) -> TabularDataset:
    """``n_out`` rows over ``columns`` (a grid of ``shape``): cells drawn in
    proportion to their nonnegative weights (counts or probabilities),
    then uniform within each continuous column's bin; categorical columns
    take the level codes."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise AllCellsZero("weights have no mass")
    probs = weights / total
    gen = rng.generator
    cells = gen.choice(grid_cells(shape), size=n_out, p=probs)
    out = {}
    for c, size, codes in zip(columns, shape, np.unravel_index(cells, shape),
                              strict=True):
        if isinstance(c, CategoricalColumn):
            out[c.name] = codes.astype(np.int64)
        else:
            u = gen.random(n_out)
            out[c.name] = c.lo + (codes + u) * ((c.hi - c.lo) / size)
    return TabularDataset(columns, out, validate=False)


def laplace_sanitizer_crosstab(rng: RngStream, data: TabularDataset,
                               categorical_axes: list[str], eps: EpsLike,
                               ledger: PrivacyLedger,
                               label: str = "laplace-sanitizer"):
    """Sanitize the full cross-tabulation of the named categorical columns
    with ``perturb_histogram`` and draw ``data.n`` synthetic rows
    multinomially in proportion to the sanitized counts.

    Returns the synthetic level-code arrays by column name.
    """
    columns = [next(c for c in data.columns if c.name == name)
               for name in categorical_axes]
    for col in columns:
        if not isinstance(col, CategoricalColumn):
            raise ValueError(f"{col.name!r} is not categorical")
    shape = tuple(len(col.levels) for col in columns)
    hist = build_histogram(TabularDataset(
        columns, {col.name: data.column(col.name) for col in columns},
        validate=False), shape)
    sanitized = perturb_histogram(rng, hist, eps, ledger=ledger, label=label)
    counts = rng.generator.multinomial(data.n, sanitized / sanitized.sum())
    cells = np.repeat(np.arange(hist.size), counts)
    rng.generator.shuffle(cells)
    multi = np.unravel_index(cells, shape)
    return {name: codes.astype(np.int64)
            for name, codes in zip(categorical_axes, multi)}
