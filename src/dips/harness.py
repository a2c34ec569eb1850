"""Monte-Carlo benchmark harness: four simulation studies comparing the
synthesizers on bias, RMSE, 95% CI coverage, and CI width.

Study 1: Bernoulli data; proportion inference.
Study 2: bounded normal data; mean and variance inference.
Study 3: Gaussian mixture over a 2x3x4 cross-tabulation with bivariate
         continuous measurements; correlation, variances, marginals.
Study 4: bivariate normal covariates plus three sequential logistic
         outcomes; means, covariance, regression coefficients.

Every replication owns its own ledger and derived random stream, so the
loop over (eps, method, rep) can be reordered or parallelized without
changing any draw.  A replication that raises ``AllCellsZero``,
``NonConvergence``, ``DegenerateEstimate`` or ``LinAlgError`` is recorded
as unusable and does not abort the study.  Within a replication, an
estimator group that raises ``DegenerateEstimate`` or ``NonConvergence``
on a set skips only its own parameters for that set.  ``STUDIES`` states
each study once: its truth settings, true values, default parameters,
methods, per-set estimators and the rules that only it keeps.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .budget import PrivacyBudget, PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .hist_synth import (
    MAX_GRID_CELLS,
    AllCellsZero,
    laplace_sanitizer_crosstab,
    scott_bins,
)
from .inference import (
    DegenerateEstimate,
    NonConvergence,
    combine,
    estimate_correlation,
    estimate_mean,
    estimate_proportion,
    estimate_variance,
    excess_kurtosis,
    firth_logistic,
    fit_multinomial_logit,
    variance_from_moments,
)
from .mechanisms import SensitivitySpec, laplace_mechanism
from .param_synth import (
    BernoulliModel,
    GaussianMixtureModel,
    NormalModel,
    SequentialLogisticModel,
    cell_means,
)
from .randvar import RngStream
from .synthesizers import SYNTHESIZERS, modips_entry

__all__ = [
    "StudyConfig",
    "MetricRow",
    "METRIC_COLUMNS",
    "STUDIES",
    "run_study",
    "report",
    "simulate_truth_sim1",
    "simulate_truth_sim2",
    "simulate_truth_sim3",
    "simulate_truth_sim4",
]


# mixture truth: per-cell bivariate means and cell probabilities over the
# 2x3x4 cross-tabulation (24 cells), shared unit variances, correlation 0.5
SIM3_MU1 = np.array([
    1.371, 0.363, 0.404, 1.512, 2.018, 1.305, -1.389, -0.133, -0.284,
    -2.440, -0.307, -0.172, 1.895, -0.257, 0.460, 0.455, 1.035, 0.505,
    -0.784, -2.414, 0.206, 0.758, -1.368, -0.811,
])
SIM3_MU2 = np.array([
    -0.565, 0.633, -0.106, -0.095, -0.063, 2.287, -0.279, 0.636, -2.656,
    1.320, -1.781, 1.215, -0.430, -1.763, -0.640, 0.705, -0.609, -1.717,
    -0.851, 0.036, -0.361, -0.727, 0.433, 1.444,
])
SIM3_PI = np.array([
    0.041, 0.076, 0.024, 0.062, 0.045, 0.041, 0.038, 0.007, 0.064,
    0.064, 0.031, 0.048, 0.053, 0.007, 0.021, 0.065, 0.070, 0.012,
    0.024, 0.028, 0.048, 0.011, 0.058, 0.062,
])
SIM3_LEVELS = (2, 3, 4)
SIM3_SIGMA = 1.0
SIM3_RHO = 0.5
# the marginal proportions the study estimates: name -> (w axis, level)
SIM3_MARGINS = {"pw1_1": (0, 1), "pw2_1": (1, 1), "pw2_2": (1, 2),
                "pw3_1": (2, 1), "pw3_2": (2, 2), "pw3_3": (2, 3)}

# sequential logistic truth: three regressions on z (and previously drawn
# outcomes), coefficient vectors for the two binary and the three-level
# responses
SIM4_BETA1 = np.array([-1.0, 0.5, -1.0])
SIM4_BETA2 = np.array([-2.0, -1.0, 1.5, 0.5])
SIM4_BETA3 = np.array([0.0, -2.5, 1.0, 0.5, 0.4])
SIM4_BETA4 = np.array([0.1, -1.0, -0.5, 0.0, 1.5])
SIM4_BETAS = {"b1": SIM4_BETA1, "b2": SIM4_BETA2, "b3": SIM4_BETA3,
              "b4": SIM4_BETA4}
SIM4_RHO = 0.5


def sim3_cell_bounds() -> tuple[np.ndarray, np.ndarray]:
    """Per-cell truncation bounds [mu_kj - 4, mu_kj + 4] (unit variances)."""
    lower = np.column_stack([SIM3_MU1 - 4 * SIM3_SIGMA,
                             SIM3_MU2 - 4 * SIM3_SIGMA])
    upper = np.column_stack([SIM3_MU1 + 4 * SIM3_SIGMA,
                             SIM3_MU2 + 4 * SIM3_SIGMA])
    return lower, upper


def sim3_z_bounds() -> tuple[tuple[float, float], tuple[float, float]]:
    lower, upper = sim3_cell_bounds()
    return ((float(lower[:, 0].min()), float(upper[:, 0].max())),
            (float(lower[:, 1].min()), float(upper[:, 1].max())))


SIM4_Z_BOUNDS = ((-4.0, 4.0), (-4.0, 4.0))

METRIC_COLUMNS = ["study", "method", "parameter", "eps", "bias", "rmse",
                  "coverage", "ci_width", "usable_fraction", "reps_used"]


@dataclass
class StudyConfig:
    study: str
    n: int
    truth: dict = field(default_factory=dict)
    eps_grid: list[float] = field(default_factory=lambda: [1.0])
    m: int = 5
    reps: int = 500
    methods: list[str] | None = None
    seed: int = 0
    postprocess: str = "BIT"
    parameters: list[str] | None = None

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}")
        study = STUDIES[self.study]
        for name in ("n", "reps", "m", "seed"):
            # exact type: a bool is an int, and 2.5 must not truncate
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if self.n < 1 or self.reps < 1 or self.m < 1:
            raise ValueError("n, reps, and m must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.truth, dict):
            raise ValueError(f"truth must be an object of settings, got "
                             f"{self.truth!r}")
        unknown = set(self.truth) - set(study.truth)
        if unknown:
            raise ValueError(f"truth keys {sorted(unknown)} are not read by "
                             f"{self.study}")
        for key, value in self.truth.items():
            default, valid = study.truth[key]
            if isinstance(default, str):
                ok = type(value) is str and value in valid
                wanted = f"one of {list(valid)}"
            else:
                ok = _is_finite_number(value) and valid[0] < value < valid[1]
                wanted = f"a finite number in ({valid[0]:g}, {valid[1]:g})"
            if not ok:
                raise ValueError(f"{self.study} truth {key!r} must be "
                                 f"{wanted}, got {value!r}")
        if study.check is not None:
            study.check(study.settings(self.truth))
        if not all(_is_finite_number(e) and e > 0 for e in self.eps_grid):
            raise ValueError("eps_grid must hold positive, finite numbers")
        if list(self.eps_grid) != sorted(self.eps_grid):
            raise ValueError("eps_grid must be sorted ascending")
        if self.postprocess not in ("BIT", "truncate"):
            raise ValueError(f"unknown postprocess {self.postprocess!r}")
        if self.methods is None:
            self.methods = list(study.methods)
        bad = set(self.methods) - set(study.methods)
        if bad:
            raise ValueError(f"methods {sorted(bad)} not valid for "
                             f"{self.study}")
        params = (study.default_params if self.parameters is None
                  else self.parameters)
        unknown = set(params) - set(study.values(study.settings(self.truth)))
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for "
                             f"{self.study}")
        for name, entries in (("methods", self.methods),
                              ("eps_grid", self.eps_grid),
                              ("parameters", params)):
            if not entries or len(set(entries)) != len(entries):
                raise ValueError(f"{name} must be nonempty with no repeated "
                                 f"entry, got {entries!r}")


def _is_finite_number(value) -> bool:
    """A number a float can hold: an int or a float (not a bool) no larger
    than the largest float.  The comparison is exact for an int of any
    size, and false for nan and inf."""
    return (type(value) in (int, float)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class MetricRow:
    study: str
    method: str
    parameter: str
    eps: float
    bias: float
    rmse: float
    coverage: float
    ci_width: float
    usable_fraction: float
    reps_used: int

    def __post_init__(self):
        for name in ("coverage", "usable_fraction"):
            v = getattr(self, name)
            if math.isfinite(v) and not (0 <= v <= 1):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


# -- truth simulators --------------------------------------------------------

def simulate_truth_sim1(rng: RngStream, n: int,
                        pi: float = 0.25) -> TabularDataset:
    if not (0 < pi < 1):
        raise ValueError(f"pi must be in (0,1), got {pi}")
    x = (rng.generator.random(n) < pi).astype(np.int64)
    return TabularDataset([CategoricalColumn("x", (0, 1))], {"x": x})


def _draw_within(draw, n, lo, hi) -> np.ndarray:
    """Rejection sampling of n rows: ``draw(rows)`` gives one value, or
    one row of values, per index in ``rows``.  The rows with a value
    outside [lo, hi] (scalars, or arrays with one entry per row) are drawn
    again, in index order, until every row fits."""
    rows = np.arange(n)
    out = draw(rows)
    lo, hi = np.broadcast_to(lo, out.shape), np.broadcast_to(hi, out.shape)
    while rows.size:
        bad = (out[rows] < lo[rows]) | (out[rows] > hi[rows])
        rows = rows[bad.any(axis=1) if bad.ndim > 1 else bad]
        if rows.size:
            out[rows] = draw(rows)
    return out


# the truncation bounds of each sim2 variant, in sds below and above mu
SIM2_BOUNDS = {"asymmetric": (3, 4), "symmetric": (4, 4)}


def _sim2_support(mu: float, sigma2: float,
                  bounds: str) -> tuple[float, float, float]:
    """The sd and the truncation bounds (c0, c1) of sim2's normal."""
    if bounds not in SIM2_BOUNDS:
        raise ValueError(f"unknown bounds variant {bounds!r}")
    sd = math.sqrt(sigma2)
    below, above = SIM2_BOUNDS[bounds]
    return sd, mu - below * sd, mu + above * sd


def _sim2_check(settings: dict):
    """sim2's joint rule: distinct bounds, and a support whose width to
    the fourth power (the scale of the kurtosis term of the variance
    estimator) is a normal float."""
    mu, sigma2 = settings["mu"], settings["sigma2"]
    _, c0, c1 = _sim2_support(**settings)
    if not c0 < c1:
        raise ValueError(f"sim2 truth 'mu' = {mu!r} leaves no room "
                         f"between the bounds at sigma2 = {sigma2!r}: "
                         f"both round to {c0!r}")
    if not (sys.float_info.min ** 0.25 <= c1 - c0
            <= sys.float_info.max ** 0.25):
        raise ValueError(f"sim2 truth 'sigma2' = {sigma2!r} is out of the "
                         f"study's numeric range: the support [{c0!r}, "
                         f"{c1!r}] has a width whose fourth power is not "
                         f"a normal float")


def simulate_truth_sim2(rng: RngStream, n: int, mu: float = 0.0,
                        sigma2: float = 1.0,
                        bounds: str = "asymmetric") -> TabularDataset:
    sd, c0, c1 = _sim2_support(mu, sigma2, bounds)
    gen = rng.generator
    x = _draw_within(lambda rows: gen.normal(mu, sd, size=len(rows)), n,
                     c0, c1)
    return TabularDataset([ContinuousColumn("x", c0, c1)], {"x": x})


def _sim3_columns():
    zb = sim3_z_bounds()
    return [
        CategoricalColumn("w1", tuple(range(SIM3_LEVELS[0]))),
        CategoricalColumn("w2", tuple(range(SIM3_LEVELS[1]))),
        CategoricalColumn("w3", tuple(range(SIM3_LEVELS[2]))),
        ContinuousColumn("z1", *zb[0]),
        ContinuousColumn("z2", *zb[1]),
    ]


def simulate_truth_sim3(rng: RngStream, n: int,
                        rho: float = SIM3_RHO) -> TabularDataset:
    gen = rng.generator
    counts = gen.multinomial(n, SIM3_PI / SIM3_PI.sum())
    cells = np.repeat(np.arange(24), counts)
    gen.shuffle(cells)
    cov = np.array([[1.0, rho], [rho, 1.0]]) * SIM3_SIGMA ** 2
    chol = np.linalg.cholesky(cov)
    lower, upper = sim3_cell_bounds()
    mus = np.column_stack([SIM3_MU1, SIM3_MU2])
    z = _draw_within(lambda rows: mus[cells[rows]] + gen.standard_normal(
        (len(rows), 2)) @ chol.T, n, lower[cells], upper[cells])
    w = np.unravel_index(cells, SIM3_LEVELS)
    return TabularDataset(_sim3_columns(), {
        "w1": w[0].astype(np.int64), "w2": w[1].astype(np.int64),
        "w3": w[2].astype(np.int64), "z1": z[:, 0], "z2": z[:, 1]})


def _sim4_columns():
    return [
        CategoricalColumn("w1", (0, 1)),
        CategoricalColumn("w2", (0, 1)),
        CategoricalColumn("w3", (0, 1, 2)),
        ContinuousColumn("z1", *SIM4_Z_BOUNDS[0]),
        ContinuousColumn("z2", *SIM4_Z_BOUNDS[1]),
    ]


def simulate_truth_sim4(rng: RngStream, n: int,
                        rho: float = SIM4_RHO) -> TabularDataset:
    gen = rng.generator
    cov = np.array([[1.0, rho], [rho, 1.0]])
    chol = np.linalg.cholesky(cov)
    z = _draw_within(lambda rows: gen.standard_normal((len(rows), 2))
                     @ chol.T, n, -4.0, 4.0)
    x1 = np.column_stack([np.ones(n), z])
    p1 = 1.0 / (1.0 + np.exp(-x1 @ SIM4_BETA1))
    w1 = (gen.random(n) < p1).astype(np.int64)
    x2 = np.column_stack([x1, w1])
    p2 = 1.0 / (1.0 + np.exp(-x2 @ SIM4_BETA2))
    w2 = (gen.random(n) < p2).astype(np.int64)
    x3 = np.column_stack([x1, w1, w2])
    a = np.exp(x3 @ SIM4_BETA3)
    b = np.exp(x3 @ SIM4_BETA4)
    u = gen.random(n) * (1.0 + a + b)
    w3 = np.where(u < 1.0, 0, np.where(u < 1.0 + a, 1, 2)).astype(np.int64)
    return TabularDataset(_sim4_columns(), {
        "w1": w1, "w2": w2, "w3": w3, "z1": z[:, 0], "z2": z[:, 1]})


# -- true parameter values, from a study's truth settings -------------------

def _sim3_values(settings) -> dict[str, float]:
    probs = (SIM3_PI / SIM3_PI.sum()).reshape(SIM3_LEVELS)
    return {"rho": SIM3_RHO, "sigma1": SIM3_SIGMA ** 2,
            "sigma2": SIM3_SIGMA ** 2,
            **{name: float(np.take(probs, level, axis=axis).sum())
               for name, (axis, level) in SIM3_MARGINS.items()}}


def _sim4_coefs(*tags: str) -> tuple[str, ...]:
    """The coefficient names b<k>_<i> of the regressions ``tags``, one
    per entry of their SIM4_BETA<k>."""
    return tuple(f"{tag}_{i}" for tag in tags
                 for i in range(len(SIM4_BETAS[tag])))


def _sim4_values(settings) -> dict[str, float]:
    vals = {"mu1": 0.0, "mu2": 0.0, "sigma1": 1.0, "sigma2": 1.0,
            "rho": SIM4_RHO}
    for tag, beta in SIM4_BETAS.items():
        vals.update(zip(_sim4_coefs(tag), map(float, beta)))
    return vals


# -- study-only methods ------------------------------------------------------
# the shared ones come from dips.synthesizers

def _original(rng, data, eps, m, ledger, postprocess):
    return [data]


def _sim3_cells(ds: TabularDataset) -> np.ndarray:
    """Each row's flat cell in the 2x3x4 cross-tabulation of w."""
    return np.ravel_multi_index(
        [ds.column("w1"), ds.column("w2"), ds.column("w3")], SIM3_LEVELS)


@dataclass(frozen=True)
class _CellGrids:
    """Every sim3 cell's Scott grid over its declared bounds, stacked in
    one flat bin vector: bins per axis and bin widths (K x 2), each cell's
    first and last flat bin, each flat bin's cell, and the original rows'
    count in each flat bin."""
    bins: np.ndarray
    width: np.ndarray
    offsets: np.ndarray
    ends: np.ndarray
    owner: np.ndarray
    counts: np.ndarray


def _sim3_cell_grids(data: TabularDataset) -> _CellGrids:
    """Each cell's grid takes Scott's rule (``scott_bins``) on each
    axis: a ceil bin count from the standard deviation (ddof 1) of the
    cell's rows, clipped to its bounds, and one bin for fewer than two
    rows or rows that are all equal.  One ``bincount`` counts every
    cell's histogram."""
    lower, upper = sim3_cell_bounds()
    ranges = upper - lower
    k = len(ranges)
    cells = _sim3_cells(data)
    lo = np.take(lower, cells, axis=0)
    z = np.clip(np.column_stack([data.column("z1"), data.column("z2")]),
                lo, np.take(upper, cells, axis=0))
    rows, means = cell_means(cells, z, k)
    dev = z - np.take(means, cells, axis=0)
    sq = np.column_stack([np.bincount(cells, d * d, minlength=k)
                          for d in dev.T])
    sd = np.sqrt(sq / np.maximum(rows - 1, 1)[:, None])
    # a cell spreads on an axis when its rows differ there: an exact test,
    # where sd can come out a rounding error above 0 for equal rows
    low, high = np.full((k, 2), np.inf), np.full((k, 2), -np.inf)
    np.minimum.at(low, cells, z)
    np.maximum.at(high, cells, z)
    bins = scott_bins(ranges, sd, rows[:, None], high > low)
    total = bins.prod(axis=1).sum()
    if total > MAX_GRID_CELLS:
        raise ValueError(f"the cell grids hold {total:g} bins, more than "
                         f"the {MAX_GRID_CELLS} allowed")
    bins = bins.astype(np.int64)
    width = ranges / bins
    sizes = bins.prod(axis=1)
    offsets = np.cumsum(sizes) - sizes
    cell_bins = np.take(bins, cells, axis=0)
    code = np.minimum(
        ((z - lo) / np.take(width, cells, axis=0)).astype(np.int64),
        cell_bins - 1)
    flat = offsets[cells] + code[:, 0] * cell_bins[:, 1] + code[:, 1]
    return _CellGrids(bins, width, offsets, offsets + sizes - 1,
                      np.repeat(np.arange(k), sizes),
                      np.bincount(flat, minlength=sizes.sum()).astype(float))


def _sim3_np_set(rng, data, grids, eps_set_frac, ledger, tag):
    """One NP-DIPS set for the mixture study: a Laplace-sanitized
    cross-tabulation of w plus a perturbed 2-D histogram of z per cell,
    the per-set budget split 1:1 between the two.

    One Laplace call sanitizes every cell's histogram in ``grids`` (BIT
    at 0); the cells are disjoint, so one parallel charge covers them.
    Each row then picks a bin of its cell by inverse CDF and is uniform
    within it, all on one generator.  A cell with fewer than two original
    rows has one bin, and a cell whose sanitized histogram has no mass is
    filled uniformly, so both draw uniformly over the cell's bounds."""
    half = eps_set_frac / 2
    lower, upper = sim3_cell_bounds()
    codes = laplace_sanitizer_crosstab(
        rng.substream(0), data, ["w1", "w2", "w3"], half, ledger=ledger,
        label=f"{tag}-counts")
    ledger.charge(f"{tag}-hist", half, mode="parallel", group=f"{tag}-hist")
    sub = rng.substream(1)
    weights = laplace_mechanism(sub, grids.counts, SensitivitySpec(1.0),
                                float(half), f"{tag}-hist",
                                lower=0.0).sanitized
    owner, offsets, ends = grids.owner, grids.offsets, grids.ends
    k = len(offsets)
    weights[(np.bincount(owner, weights, minlength=k) <= 0)[owner]] = 1.0
    # each cell's CDF lies in [cell, cell + 1] of one increasing key
    # vector, exactly 0 before its first bin and 1 at its last
    cum = np.cumsum(weights / np.bincount(owner, weights, minlength=k)[owner])
    start = np.concatenate(([0.0], cum))[offsets]
    keys = owner + (cum - start[owner]) / (cum[ends] - start)[owner]
    new = np.ravel_multi_index([codes["w1"], codes["w2"], codes["w3"]],
                               SIM3_LEVELS)
    gen = sub.generator
    pick = np.minimum(np.searchsorted(keys, new + gen.random(len(new)),
                                      side="right"), ends[new])
    local = pick - offsets[new]
    cols = grids.bins[:, 1][new]
    lo = np.take(lower, new, axis=0)
    z = lo + (np.column_stack([local // cols, local % cols])
              + gen.random((len(new), 2))) * np.take(grids.width, new, axis=0)
    z = np.clip(z, lo, np.take(upper, new, axis=0))
    return TabularDataset(data.columns, {
        "w1": codes["w1"], "w2": codes["w2"], "w3": codes["w3"],
        "z1": z[:, 0], "z2": z[:, 1]}, validate=False)


def _sim3_np_dips(rng, data, eps, m, ledger, postprocess):
    grids = _sim3_cell_grids(data)
    return [_sim3_np_set(rng.substream(j), data, grids, Fraction(eps) / m,
                         ledger, tag=f"np-set{j}") for j in range(m)]


def _sim4_np_dips(rng, data, eps, m, ledger, postprocess):
    """The perturbed histogram over (z1, z2, w1, w2, w3): the grid's axis
    order fixes the draws."""
    columns = data.columns[3:] + data.columns[:3]
    return SYNTHESIZERS["pert-hist"](
        rng, TabularDataset(columns, data.data, validate=False), eps, m,
        ledger, postprocess)


# -- per-set estimators ------------------------------------------------------
# each study's estimators are (parameter names, estimate) groups, where
# estimate(dataset) gives one PerSetEstimate per name in order; a group that
# raises DegenerateEstimate or NonConvergence skips only its own parameters
# for that set.  Each names the inference functions it calls, so a patched
# module attribute is seen at call time.

def _sim1_pooled_mixed(sets) -> bool:
    """Study 1's usability rule: the m sets pooled hold both codes."""
    xs = [s.column("x") for s in sets]
    return any(x.size for x in xs) and 0.0 < np.concatenate(xs).mean() < 1.0


def _sim3_moments(ds: TabularDataset) -> list:
    """rho, sigma1 and sigma2 from one covariance of the z residuals about
    their cell means, pooled over the cells."""
    z = np.column_stack([ds.column("z1"), ds.column("z2")])
    n = ds.n
    cells = _sim3_cells(ds)
    resid = z - np.take(cell_means(cells, z, SIM3_PI.size)[1], cells, axis=0)
    s_mat = resid.T @ resid / n
    s11, s22, s12 = s_mat[0, 0], s_mat[1, 1], s_mat[0, 1]
    if s11 <= 0 or s22 <= 0:
        raise DegenerateEstimate("pooled variance collapsed")
    rho = estimate_correlation(None, r=float(s12 / math.sqrt(s11 * s22)), n=n)
    return [rho] + [variance_from_moments(float(s_mat[col, col] * n / (n - 1)),
                                          excess_kurtosis(resid[:, col]), n)
                    for col in (0, 1)]


def _sim3_margins(ds: TabularDataset) -> list:
    w = (ds.column("w1"), ds.column("w2"), ds.column("w3"))
    return [estimate_proportion((w[axis] == level).astype(float))
            for axis, level in SIM3_MARGINS.values()]


def _sim4_design(ds: TabularDataset, outcomes: int) -> np.ndarray:
    """The intercept, z1, z2 and the first ``outcomes`` binary outcomes."""
    return np.column_stack(
        [np.ones(ds.n), ds.column("z1"), ds.column("z2"),
         *(ds.column(w).astype(float) for w in ("w1", "w2")[:outcomes])])


# -- the study table ---------------------------------------------------------

def _truth_settings(simulate, **valid) -> dict:
    """Named settings of a truth simulator: each maps to its signature's
    default and its valid values, an open interval (lo, hi) for a number
    or a tuple of choices for a string."""
    signature = inspect.signature(simulate).parameters
    return {name: (signature[name].default, ok) for name, ok in valid.items()}


@dataclass(frozen=True)
class Study:
    """One simulation study.  ``truth`` maps each setting its simulator
    reads to its default and valid values, which ``StudyConfig`` checks
    (``simulate_truth_<study>`` is looked up on this module per
    replication), ``estimators`` holds each parameter in exactly one
    (names, estimate) group of the per-set estimators, ``check`` is a
    joint rule over every truth setting that raises ``ValueError`` naming
    the setting, ``gate`` is a usability rule over the m sets of a
    replication, and ``relative`` names the parameters whose bias, RMSE and
    CI width are reported relative to the true value."""
    values: Callable[[dict], dict]
    default_params: tuple[str, ...]
    methods: dict
    estimators: tuple[tuple[tuple[str, ...], Callable], ...]
    truth: dict = field(default_factory=dict)
    check: Callable[[dict], None] | None = None
    gate: Callable | None = None
    relative: tuple[str, ...] = ()

    def settings(self, truth: dict) -> dict:
        """Every truth setting: the config's value, else the default."""
        return {k: type(d)(truth.get(k, d))
                for k, (d, _) in self.truth.items()}


# every method is release(rng, data, eps, m, ledger, postprocess) -> sets;
# the order of the studies fixes each one's random stream
STUDIES = {
    "sim1": Study(
        truth=_truth_settings(simulate_truth_sim1, pi=(0.0, 1.0)),
        values=lambda t: {"pi": t["pi"]}, default_params=("pi",),
        methods={
            **{name: SYNTHESIZERS[name]
               for name in ("modips-bernoulli", "laplace", "md", "bbmr")},
            "ms": modips_entry("ms", BernoulliModel()),
            "original": _original,
        },
        estimators=((("pi",),
                     lambda ds: [estimate_proportion(ds.column("x"))]),),
        gate=_sim1_pooled_mixed),
    "sim2": Study(
        truth=_truth_settings(simulate_truth_sim2, mu=(-math.inf, math.inf),
                              sigma2=(0.0, math.inf),
                              bounds=("asymmetric", "symmetric")),
        values=lambda t: {"mu": t["mu"], "sigma2": t["sigma2"]},
        default_params=("mu", "sigma2"),
        methods={
            "modips-normal": SYNTHESIZERS["modips-normal"],
            "modips-normal-conjoint": modips_entry(
                "modips-normal-conjoint", NormalModel(mode="conjoint")),
            "pert-hist": SYNTHESIZERS["pert-hist"],
            "smooth-hist": SYNTHESIZERS["smooth-hist"],
            "ms": modips_entry("ms", NormalModel()),
            "original": _original,
        },
        estimators=((("mu",), lambda ds: [estimate_mean(ds.column("x"))]),
                    (("sigma2",),
                     lambda ds: [estimate_variance(ds.column("x"))])),
        check=_sim2_check,
        relative=("sigma2",)),
    "sim3": Study(
        values=_sim3_values,
        default_params=("rho", "sigma1", "sigma2", *SIM3_MARGINS),
        methods={
            "modips-mixture": modips_entry(
                "modips-mixture", GaussianMixtureModel(*sim3_cell_bounds())),
            "np-dips": _sim3_np_dips,
            "ms": modips_entry("ms",
                               GaussianMixtureModel(*sim3_cell_bounds())),
            "original": _original,
        },
        estimators=((("rho", "sigma1", "sigma2"), _sim3_moments),
                    (tuple(SIM3_MARGINS), _sim3_margins))),
    "sim4": Study(
        values=_sim4_values, default_params=("mu1", "mu2", "rho"),
        methods={
            "modips-logistic": modips_entry("modips-logistic",
                                            SequentialLogisticModel()),
            "np-dips": _sim4_np_dips,
            "ms": modips_entry("ms", SequentialLogisticModel()),
            "original": _original,
        },
        estimators=(
            (("mu1",), lambda ds: [estimate_mean(ds.column("z1"))]),
            (("mu2",), lambda ds: [estimate_mean(ds.column("z2"))]),
            (("sigma1",), lambda ds: [estimate_variance(ds.column("z1"))]),
            (("sigma2",), lambda ds: [estimate_variance(ds.column("z2"))]),
            (("rho",), lambda ds: [estimate_correlation(ds.column("z1"),
                                                        ds.column("z2"))]),
            (_sim4_coefs("b1"), lambda ds: firth_logistic(
                _sim4_design(ds, 0), ds.column("w1").astype(float))),
            (_sim4_coefs("b2"), lambda ds: firth_logistic(
                _sim4_design(ds, 1), ds.column("w2").astype(float))),
            (_sim4_coefs("b3", "b4"), lambda ds: sum(fit_multinomial_logit(
                _sim4_design(ds, 2), ds.column("w3")), [])),
        )),
}


# -- replication drivers -----------------------------------------------------

# the methods that spend nothing: their ledger audit expects 0
_NO_BUDGET_METHODS = ("ms", "original")


def _run_rep(config: StudyConfig, method: str, rng: RngStream,
             eps: float, params) -> tuple[dict, dict]:
    """One replication: simulate truth, synthesize, run each estimator
    group that holds a requested parameter on each set, combine.

    Returns ({parameter: CombinedEstimate or None}, {"sets": the released
    sets}).  Raises RuntimeError unless the ledger audit passes: each
    method spends exactly eps, and those of ``_NO_BUDGET_METHODS``
    nothing."""
    study = STUDIES[config.study]
    ledger = PrivacyLedger(PrivacyBudget(eps))
    simulate = globals()[f"simulate_truth_{config.study}"]
    data = simulate(rng.substream(0), config.n,
                    **study.settings(config.truth))
    sets = study.methods[method](
        rng.substream(1), data, eps, config.m, ledger, config.postprocess)
    per_param: dict[str, list] = {p: [] for p in params}
    groups = [(names, estimate) for names, estimate in study.estimators
              if not per_param.keys().isdisjoint(names)]
    if study.gate is None or study.gate(sets):
        for s in sets:
            for names, estimate in groups:
                try:
                    ests = estimate(s)
                except (DegenerateEstimate, NonConvergence):
                    continue
                for p, e in zip(names, ests, strict=True):
                    if p in per_param:
                        per_param[p].append(e)
    results = {p: (combine(lst) if lst else None)
               for p, lst in per_param.items()}
    # the one full recomputation of the replication: it must match both
    # the method's spend and the running spend that every charge checked
    spend = ledger.effective_spend_exact()
    expected = Fraction(0 if method in _NO_BUDGET_METHODS else eps)
    if spend != expected or spend != ledger.spend:
        raise RuntimeError(
            f"ledger audit failure: {method} spent {spend} (running "
            f"{ledger.spend}) != {expected}")
    return results, {"sets": sets}


def run_study(config: StudyConfig) -> list[MetricRow]:
    """Run the configured Monte-Carlo study; one MetricRow per
    (eps, method, parameter)."""
    study = STUDIES[config.study]
    params = config.parameters or study.default_params
    truth = study.values(study.settings(config.truth))
    study_idx = list(STUDIES).index(config.study)
    rows = []
    for eps_idx, eps in enumerate(config.eps_grid):
        for method_idx, method in enumerate(config.methods):
            kept = {p: [] for p in params}
            for rep in range(config.reps):
                rng = RngStream(config.seed).substream(
                    study_idx, eps_idx, method_idx, rep)
                try:
                    results, _ = _run_rep(config, method, rng, eps, params)
                except (AllCellsZero, NonConvergence, DegenerateEstimate,
                        np.linalg.LinAlgError):
                    continue
                for p in params:
                    if results[p] is not None:
                        kept[p].append(results[p])
            for p, ests in kept.items():
                pts = np.array([e.point for e in ests])
                scale = truth[p] if p in study.relative else 1.0
                if ests:
                    bias = float(pts.mean() - truth[p]) / scale
                    rmse = float(np.sqrt(np.mean((pts - truth[p]) ** 2)))
                    rmse /= scale
                    coverage = float(np.mean(
                        [e.ci_low <= truth[p] <= e.ci_high for e in ests]))
                    width = float(np.mean([e.ci_high - e.ci_low
                                           for e in ests])) / scale
                else:
                    bias = rmse = coverage = width = math.nan
                rows.append(MetricRow(
                    config.study, method, p, eps, bias, rmse, coverage,
                    width, len(ests) / config.reps, len(ests)))
    return rows


# -- reporting ---------------------------------------------------------------

def _format_field(value):
    if isinstance(value, float):
        return repr(float(value))
    return value


def report(rows: list[MetricRow], out_dir: str | Path,
           config: StudyConfig | None = None) -> dict:
    """Write one CSV per study plus a JSON index; returns the index."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from . import __version__
    studies = sorted({r.study for r in rows}) or (
        [config.study] if config else [])
    index = {"version": __version__, "files": {},
             "config": (config.__dict__ if config else None)}
    for study in studies or ["empty"]:
        path = out_dir / f"{study}_metrics.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_COLUMNS)
            for r in rows:
                if r.study != study:
                    continue
                writer.writerow([_format_field(getattr(r, c))
                                 for c in METRIC_COLUMNS])
        index["files"][study] = path.name
    with open(out_dir / "index.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    return index
