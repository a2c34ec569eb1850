"""Non-parametric synthesis: Laplace-sanitized cross-tabulations, perturbed
and smoothed histograms, and data synthesis from sanitized grids.

Counts over disjoint grid cells are sanitized under parallel composition:
every cell receives the full per-release budget, and the ledger (when one
is attached) is charged once per release, not once per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .mechanisms import SensitivitySpec, laplace_mechanism
from .randvar import RngStream

__all__ = [
    "AllCellsZero",
    "OutOfDomain",
    "CategoricalAxis",
    "BinnedAxis",
    "GridSpec",
    "Histogram",
    "bin_width_scott",
    "build_histogram",
    "perturb_histogram",
    "smooth_histogram",
    "sample_from_histogram",
    "laplace_sanitizer_crosstab",
]


class AllCellsZero(RuntimeError):
    """Every sanitized cell count is zero; the release is unusable."""


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

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        """Volume of one cell over the binned axes (1 if none are binned)."""
        vol = 1.0
        for ax in self.axes:
            if isinstance(ax, BinnedAxis):
                vol *= ax.width
        return vol

    @property
    def bounds_volume(self) -> float:
        vol = 1.0
        for ax in self.axes:
            if isinstance(ax, BinnedAxis):
                vol *= ax.hi - ax.lo
        return vol

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


@dataclass(frozen=True)
class Histogram:
    grid: GridSpec
    counts: np.ndarray
    n: float

    def proportions(self) -> np.ndarray:
        total = self.counts.sum()
        if total <= 0:
            raise AllCellsZero("histogram has no mass")
        return self.counts / total

    def density(self) -> np.ndarray:
        """Per-cell density (probability mass / cell volume)."""
        return self.proportions() / self.grid.cell_volume


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
                    column_names: list[str] | None = None) -> Histogram:
    """Tally rows into grid cells; raises OutOfDomain for stray values."""
    names = column_names or [c.name for c in data.columns]
    if len(names) != len(grid.axes):
        raise ValueError("one column per grid axis required")
    values = [data.column(name) for name in names]
    idx = grid.cell_indices(values)
    counts = np.bincount(idx, minlength=grid.cell_count).astype(float)
    return Histogram(grid, counts, float(counts.sum()))


def perturb_histogram(rng: RngStream, hist: Histogram, eps: float,
                      ledger: PrivacyLedger | None = None,
                      label: str = "perturbed-histogram",
                      charge_eps=None,
                      delta_s_counts: int | None = None) -> Histogram:
    """Laplace-perturb every cell count with the full eps (parallel
    composition over disjoint cells), then legitimize negatives by BIT at 0.

    ``charge_eps`` (a Fraction, typically) overrides the amount recorded on
    the ledger, so a caller that derived ``eps`` from an exact share can
    keep the bookkeeping exact while noise uses the float value.

    The sensitivity of one count is ``delta_s_counts``, by default the
    ledger's convention, or 1 without a ledger.  A caller that charges the
    parallel group itself passes no ledger and states the ledger's
    convention here.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if delta_s_counts is None:
        delta_s_counts = 1 if ledger is None else ledger.delta_s_counts
    elif ledger is not None and delta_s_counts != ledger.delta_s_counts:
        raise ValueError(
            f"delta_s_counts={delta_s_counts} contradicts the ledger's "
            f"{ledger.delta_s_counts}")
    stat = laplace_mechanism(rng, hist.counts,
                             SensitivitySpec(float(delta_s_counts)), eps,
                             label, lower=0.0)
    if ledger is not None:
        ledger.charge(label, eps if charge_eps is None else charge_eps,
                      mode="parallel", group=label)
    counts = stat.sanitized
    if counts.sum() <= 0:
        raise AllCellsZero(f"{label}: all sanitized counts are zero")
    return Histogram(hist.grid, counts, hist.n)


def smooth_histogram(hist: Histogram, eps: float,
                     ledger: PrivacyLedger | None = None,
                     label: str = "smoothed-histogram") -> np.ndarray:
    """DP smoothed density: (1 - lambda) f_K + lambda * Omega with the
    minimal lambda = K / (K + n (e^(eps/n) - 1)); returns per-cell density.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    for ax in hist.grid.axes:
        if isinstance(ax, BinnedAxis) and not (
                math.isfinite(ax.lo) and math.isfinite(ax.hi)):
            raise ValueError("smoothed histogram requires bounded axes")
    lam = smoothing_weight(hist.grid.cell_count, hist.n, eps)
    omega = 1.0 / hist.grid.bounds_volume
    density = (1.0 - lam) * hist.density() + lam * omega
    if ledger is not None:
        ledger.charge(label, eps, mode="sequential")
    return density


def smoothing_weight(cell_count: int, n: float, eps: float) -> float:
    """The minimal mixing weight lambda for the smoothed histogram."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if eps / n > 700:  # expm1 would overflow; the weight underflows to 0
        return 0.0
    return cell_count / (cell_count + n * math.expm1(eps / n))


def sample_from_histogram(rng: RngStream, grid: GridSpec, density,
                          n_out: int) -> dict[str, np.ndarray]:
    """Draw cells by probability, then uniform within each binned axis.

    Returns one array per axis (keyed "axis0", "axis1", ...); categorical
    axes emit level codes.
    """
    density = np.asarray(density, dtype=float)
    if np.any(density < 0):
        raise ValueError("density must be nonnegative")
    probs = density * grid.cell_volume
    total = probs.sum()
    if total <= 0:
        raise AllCellsZero("density has no mass")
    probs = probs / total
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
                               categorical_axes: list[str], eps: float,
                               n_out: int | None = None,
                               ledger: PrivacyLedger | None = None,
                               label: str = "laplace-sanitizer",
                               charge_eps=None):
    """Sanitize the full cross-tabulation of the named categorical columns
    and draw synthetic rows multinomially from the sanitized proportions.

    Returns (sanitized counts, synthetic level-code arrays by column name).
    """
    axes = []
    for name in categorical_axes:
        col = next(c for c in data.columns if c.name == name)
        if not isinstance(col, CategoricalColumn):
            raise ValueError(f"{name!r} is not categorical")
        axes.append(CategoricalAxis(len(col.levels)))
    grid = GridSpec(tuple(axes))
    hist = build_histogram(data, grid, column_names=categorical_axes)
    sanitized = perturb_histogram(rng, hist, eps, ledger=ledger,
                                  label=label, charge_eps=charge_eps)
    n_rows = data.n if n_out is None else n_out
    counts = rng.generator.multinomial(n_rows, sanitized.proportions())
    cells = np.repeat(np.arange(grid.cell_count), counts)
    rng.generator.shuffle(cells)
    multi = np.unravel_index(cells, grid.shape)
    synthetic = {name: codes.astype(np.int64)
                 for name, codes in zip(categorical_axes, multi)}
    return sanitized, synthetic
