"""Non-parametric synthesis: Laplace-sanitized cross-tabulations, perturbed
and smoothed histograms, and data synthesis from sanitized grids.

A histogram is a plain array of per-cell counts in the grid's flat cell
order.  Every cell of a grid has the same volume, so a cell's probability
is its count over the total.

A count has sensitivity 1: neighbouring datasets differ by one row.
Counts over disjoint grid cells are sanitized under parallel composition:
every cell receives the full per-release budget, and the ledger (when one
is attached) is charged once per release, not once per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import EpsLike, PrivacyLedger
from .dataset import CategoricalColumn, TabularDataset
from .mechanisms import SensitivitySpec, laplace_mechanism
from .randvar import RngStream

__all__ = [
    "AllCellsZero",
    "OutOfDomain",
    "CategoricalAxis",
    "BinnedAxis",
    "GridSpec",
    "bin_width_scott",
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


class OutOfDomain(ValueError):
    """A data value falls outside its declared axis domain."""


@dataclass(frozen=True)
class CategoricalAxis:
    levels: int  # number of levels; values are codes in [0, levels)

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("categorical axis needs at least one level")

    @property
    def size(self) -> int:
        return self.levels


@dataclass(frozen=True)
class BinnedAxis:
    lo: float
    hi: float
    bin_count: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"need finite bounds, got [{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.bin_count < 1:
            raise ValueError("bin_count must be >= 1")

    @property
    def size(self) -> int:
        return self.bin_count

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bin_count


Axis = CategoricalAxis | BinnedAxis


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        if self.cell_count > MAX_GRID_CELLS:
            raise ValueError(f"a grid of {self.cell_count} cells is more "
                             f"than the {MAX_GRID_CELLS} allowed")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    def cell_indices(self, values: list[np.ndarray]) -> np.ndarray:
        """Flat cell index per row; values are one array per axis."""
        idx = []
        for ax, vals in zip(self.axes, values):
            vals = np.asarray(vals)
            if isinstance(ax, CategoricalAxis):
                codes = vals.astype(np.int64)
                if codes.size and (codes.min() < 0 or codes.max() >= ax.levels):
                    raise OutOfDomain("categorical code outside level set")
            else:
                if vals.size and (vals.min() < ax.lo - 1e-9
                                  or vals.max() > ax.hi + 1e-9):
                    raise OutOfDomain(
                        f"value outside [{ax.lo}, {ax.hi}]"
                    )
                scaled = (vals - ax.lo) / ax.width
                codes = np.minimum(scaled.astype(np.int64), ax.bin_count - 1)
                codes = np.maximum(codes, 0)
            idx.append(codes)
        return np.ravel_multi_index(idx, self.shape)


# -- binning rules ----------------------------------------------------------

def bin_width_scott(sample_sd: float, n: int) -> float:
    """Scott's rule: 3.5 * S * n^(-1/3)."""
    if not (sample_sd > 0):
        raise ValueError(f"sample_sd must be positive, got {sample_sd}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 3.5 * sample_sd * n ** (-1.0 / 3.0)


def bin_count_from_width(lo: float, hi: float, width: float) -> int:
    """Deterministic bin count anchored at the lower bound."""
    if not (width > 0):
        raise ValueError("width must be positive")
    return max(1, math.ceil((hi - lo) / width))


# -- histogram operations ---------------------------------------------------

def build_histogram(data: TabularDataset, grid: GridSpec,
                    column_names: list[str] | None = None) -> np.ndarray:
    """Per-cell row counts (float) in the grid's flat cell order; raises
    OutOfDomain for stray values."""
    names = column_names or [c.name for c in data.columns]
    if len(names) != len(grid.axes):
        raise ValueError("one column per grid axis required")
    values = [data.column(name) for name in names]
    idx = grid.cell_indices(values)
    return np.bincount(idx, minlength=grid.cell_count).astype(float)


def perturb_histogram(rng: RngStream, counts: np.ndarray, eps: EpsLike,
                      ledger: PrivacyLedger | None = None,
                      label: str = "perturbed-histogram") -> np.ndarray:
    """Laplace-perturb every cell count with the full eps (parallel
    composition over disjoint cells), then legitimize negatives by BIT at 0;
    returns the sanitized counts.

    The noise uses ``float(eps)``; the ledger records ``eps`` as given, so
    an exact ``Fraction`` share stays exact on the ledger.
    """
    stat = laplace_mechanism(rng, counts, SensitivitySpec(1.0), float(eps),
                             label, lower=0.0)
    if ledger is not None:
        ledger.charge(label, eps, mode="parallel", group=label)
    if stat.sanitized.sum() <= 0:
        raise AllCellsZero(f"{label}: all sanitized counts are zero")
    return stat.sanitized


def smooth_histogram(counts: np.ndarray, eps: float,
                     ledger: PrivacyLedger | None = None,
                     label: str = "smoothed-histogram") -> np.ndarray:
    """DP smoothed histogram: the cell probabilities (1 - lambda) c / n +
    lambda / K over K cells, with the minimal
    lambda = K / (K + n (e^(eps/n) - 1)).
    """
    k, n = counts.size, float(counts.sum())
    lam = smoothing_weight(k, n, eps)
    probs = (1.0 - lam) * (counts / n) + lam / k
    if ledger is not None:
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


def sample_from_histogram(rng: RngStream, grid: GridSpec, weights,
                          n_out: int) -> dict[str, np.ndarray]:
    """Draw cells in proportion to their nonnegative weights (counts or
    probabilities), then uniform within each binned axis.

    Returns one array per axis (keyed "axis0", "axis1", ...); categorical
    axes emit level codes.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise AllCellsZero("weights have no mass")
    probs = weights / total
    gen = rng.generator
    cells = gen.choice(grid.cell_count, size=n_out, p=probs)
    multi = np.unravel_index(cells, grid.shape)
    out = {}
    for j, (ax, codes) in enumerate(zip(grid.axes, multi)):
        if isinstance(ax, CategoricalAxis):
            out[f"axis{j}"] = codes.astype(np.int64)
        else:
            u = gen.random(n_out)
            out[f"axis{j}"] = ax.lo + (codes + u) * ax.width
    return out


def laplace_sanitizer_crosstab(rng: RngStream, data: TabularDataset,
                               categorical_axes: list[str], eps: EpsLike,
                               ledger: PrivacyLedger | None = None,
                               label: str = "laplace-sanitizer"):
    """Sanitize the full cross-tabulation of the named categorical columns
    with ``perturb_histogram`` and draw ``data.n`` synthetic rows
    multinomially in proportion to the sanitized counts.

    Returns the synthetic level-code arrays by column name.
    """
    axes = []
    for name in categorical_axes:
        col = next(c for c in data.columns if c.name == name)
        if not isinstance(col, CategoricalColumn):
            raise ValueError(f"{name!r} is not categorical")
        axes.append(CategoricalAxis(len(col.levels)))
    grid = GridSpec(tuple(axes))
    hist = build_histogram(data, grid, column_names=categorical_axes)
    sanitized = perturb_histogram(rng, hist, eps, ledger=ledger, label=label)
    counts = rng.generator.multinomial(data.n, sanitized / sanitized.sum())
    cells = np.repeat(np.arange(grid.cell_count), counts)
    rng.generator.shuffle(cells)
    multi = np.unravel_index(cells, grid.shape)
    return {name: codes.astype(np.int64)
            for name, codes in zip(categorical_axes, multi)}
