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
changing any draw.  A replication that raises is recorded as unusable and
never aborts a study.  ``STUDIES`` states each study once: its truth
settings, true values, default parameters, methods, per-set analyzer and
the rules that only it keeps.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import sys
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .budget import PrivacyBudget, PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .hist_synth import (
    AllCellsZero,
    build_histogram,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
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
from .param_synth import (
    BernoulliModel,
    GaussianMixtureModel,
    NormalModel,
    SequentialLogisticModel,
)
from .randvar import RngStream
from .synthesizers import SYNTHESIZERS, histogram_grid, modips_entry

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


def _truncated_normal(gen, n, mean, sd, lo, hi):
    """Vectorized rejection: redraw out-of-bound values until all fit."""
    out = gen.normal(mean, sd, size=n)
    bad = (out < lo) | (out > hi)
    while bad.any():
        out[bad] = gen.normal(mean, sd, size=int(bad.sum()))
        bad = (out < lo) | (out > hi)
    return out


def simulate_truth_sim2(rng: RngStream, n: int, mu: float = 0.0,
                        sigma2: float = 1.0,
                        bounds: str = "asymmetric") -> TabularDataset:
    sd = math.sqrt(sigma2)
    if bounds == "asymmetric":
        c0, c1 = mu - 3 * sd, mu + 4 * sd
    elif bounds == "symmetric":
        c0, c1 = mu - 4 * sd, mu + 4 * sd
    else:
        raise ValueError(f"unknown bounds variant {bounds!r}")
    x = _truncated_normal(rng.generator, n, mu, sd, c0, c1)
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
    z = mus[cells] + gen.standard_normal((n, 2)) @ chol.T
    lo, hi = lower[cells], upper[cells]
    bad = ((z < lo) | (z > hi)).any(axis=1)
    while bad.any():
        idx = np.flatnonzero(bad)
        z[idx] = mus[cells[idx]] + gen.standard_normal((len(idx), 2)) @ chol.T
        bad[idx] = ((z[idx] < lo[idx]) | (z[idx] > hi[idx])).any(axis=1)
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
    z = gen.standard_normal((n, 2)) @ chol.T
    bad = (np.abs(z) > 4.0).any(axis=1)
    while bad.any():
        idx = np.flatnonzero(bad)
        z[idx] = gen.standard_normal((len(idx), 2)) @ chol.T
        bad[idx] = (np.abs(z[idx]) > 4.0).any(axis=1)
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


def _sim4_values(settings) -> dict[str, float]:
    vals = {"mu1": 0.0, "mu2": 0.0, "sigma1": 1.0, "sigma2": 1.0,
            "rho": SIM4_RHO}
    for tag, beta in (("b1", SIM4_BETA1), ("b2", SIM4_BETA2),
                      ("b3", SIM4_BETA3), ("b4", SIM4_BETA4)):
        for i, v in enumerate(beta):
            vals[f"{tag}_{i}"] = float(v)
    return vals


# -- study-only methods ------------------------------------------------------
# the shared ones come from dips.synthesizers

def _original(rng, data, eps, m, ledger, postprocess):
    return [data]


def _sim3_np_set(rng, data, eps_set_frac, ledger, tag):
    """One NP-DIPS release for the mixture study: Laplace-sanitized
    cross-tabulation of w plus a perturbed 2-D histogram of z per cell,
    the per-set budget split 1:1 between the two."""
    half = eps_set_frac / 2
    lower, upper = sim3_cell_bounds()
    codes = laplace_sanitizer_crosstab(
        rng.substream(0), data, ["w1", "w2", "w3"], half, ledger=ledger,
        label=f"{tag}-counts")
    cells_orig = np.ravel_multi_index(
        [data.column("w1"), data.column("w2"), data.column("w3")],
        SIM3_LEVELS)
    z = np.column_stack([data.column("z1"), data.column("z2")])
    cells_new = np.ravel_multi_index(
        [codes["w1"], codes["w2"], codes["w3"]], SIM3_LEVELS)
    n = data.n
    z_new = np.zeros((n, 2))
    # the cells are disjoint: one parallel charge covers every histogram
    if ledger is not None:
        ledger.charge(f"{tag}-hist", half, mode="parallel",
                      group=f"{tag}-hist")
    for k in range(24):
        take = cells_new == k
        n_new = int(take.sum())
        if n_new == 0:
            continue
        sub = rng.substream(1, k)
        orig = z[cells_orig == k]
        drawn = None
        if len(orig) >= 2:
            clipped = np.clip(orig, lower[k], upper[k])
            cell = TabularDataset(
                [ContinuousColumn("a", lower[k][0], upper[k][0]),
                 ContinuousColumn("b", lower[k][1], upper[k][1])],
                {"a": clipped[:, 0], "b": clipped[:, 1]}, validate=False)
            grid = histogram_grid(cell)
            counts = build_histogram(cell, grid)
            try:
                pert = perturb_histogram(sub, counts, half,
                                         label=f"{tag}-hist")
                draw = sample_from_histogram(sub.substream(1), grid, pert,
                                             n_new)
                drawn = np.column_stack([draw["axis0"], draw["axis1"]])
            except AllCellsZero:
                pass
        if drawn is None:
            drawn = sub.generator.uniform(lower[k], upper[k], size=(n_new, 2))
        z_new[take] = drawn
    return TabularDataset(_sim3_columns(), {
        "w1": codes["w1"], "w2": codes["w2"], "w3": codes["w3"],
        "z1": z_new[:, 0], "z2": z_new[:, 1]}, validate=False)


def _sim3_np_dips(rng, data, eps, m, ledger, postprocess):
    return [_sim3_np_set(rng.substream(j), data, Fraction(eps) / m, ledger,
                         tag=f"np-set{j}") for j in range(m)]


def _sim4_np_dips(rng, data, eps, m, ledger, postprocess):
    """The perturbed histogram over (z1, z2, w1, w2, w3): the grid's axis
    order fixes the draws."""
    columns = data.columns[3:] + data.columns[:3]
    return SYNTHESIZERS["pert-hist"](
        rng, TabularDataset(columns, data.data, validate=False), eps, m,
        ledger, postprocess)


# -- per-set analyzers -------------------------------------------------------
# each is analyze(dataset, params) -> {parameter: PerSetEstimate}; a set it
# raises DegenerateEstimate or NonConvergence on is skipped

def _sim1_set_estimates(ds: TabularDataset, params) -> dict:
    return {"pi": estimate_proportion(ds.column("x"))}


def _sim1_pooled_mixed(sets) -> bool:
    """Study 1's usability rule: the m sets pooled hold both codes."""
    xs = [s.column("x") for s in sets]
    return any(x.size for x in xs) and 0.0 < np.concatenate(xs).mean() < 1.0


def _sim2_set_estimates(ds: TabularDataset, params) -> dict:
    """Each parameter skips the set on its own, so the mean keeps a set
    whose variance is undefined."""
    out = {}
    for param, estimator in (("mu", estimate_mean),
                             ("sigma2", estimate_variance)):
        if param in params:
            with suppress(DegenerateEstimate):
                out[param] = estimator(ds.column("x"))
    return out


def _sim3_set_estimates(ds: TabularDataset, params) -> dict:
    w1 = ds.column("w1")
    w2 = ds.column("w2")
    w3 = ds.column("w3")
    z = np.column_stack([ds.column("z1"), ds.column("z2")])
    n = ds.n
    cells = np.ravel_multi_index([w1, w2, w3], SIM3_LEVELS)
    counts = np.bincount(cells, minlength=24)
    resid = z.copy()
    for k in np.flatnonzero(counts > 0):
        resid[cells == k] -= z[cells == k].mean(axis=0)
    s_mat = resid.T @ resid / n
    out = {}
    s11, s22, s12 = s_mat[0, 0], s_mat[1, 1], s_mat[0, 1]
    if "rho" in params:
        if s11 <= 0 or s22 <= 0:
            raise DegenerateEstimate("pooled variance collapsed")
        out["rho"] = estimate_correlation(
            None, r=float(s12 / math.sqrt(s11 * s22)), n=n)
    for name, col, vals in (("sigma1", 0, resid[:, 0]),
                            ("sigma2", 1, resid[:, 1])):
        if name in params:
            s2 = s_mat[col, col] * n / (n - 1)
            if s2 <= 0:
                raise DegenerateEstimate("pooled variance collapsed")
            out[name] = variance_from_moments(float(s2),
                                              excess_kurtosis(vals), n)
    for name, (axis, level) in SIM3_MARGINS.items():
        if name in params:
            out[name] = estimate_proportion(
                ((w1, w2, w3)[axis] == level).astype(float))
    return out


def _sim4_set_estimates(ds: TabularDataset, params) -> dict:
    z1, z2 = ds.column("z1"), ds.column("z2")
    w1 = ds.column("w1").astype(float)
    w2 = ds.column("w2").astype(float)
    w3 = ds.column("w3")
    n = ds.n
    out = {}
    if "mu1" in params:
        out["mu1"] = estimate_mean(z1)
    if "mu2" in params:
        out["mu2"] = estimate_mean(z2)
    if "sigma1" in params:
        out["sigma1"] = estimate_variance(z1)
    if "sigma2" in params:
        out["sigma2"] = estimate_variance(z2)
    if "rho" in params:
        out["rho"] = estimate_correlation(z1, z2)
    want_b1 = any(p.startswith("b1_") for p in params)
    want_b2 = any(p.startswith("b2_") for p in params)
    want_b34 = any(p.startswith(("b3_", "b4_")) for p in params)
    x1 = np.column_stack([np.ones(n), z1, z2])
    if want_b1:
        for i, e in enumerate(firth_logistic(x1, w1)):
            out[f"b1_{i}"] = e
    if want_b2:
        x2 = np.column_stack([x1, w1])
        for i, e in enumerate(firth_logistic(x2, w2)):
            out[f"b2_{i}"] = e
    if want_b34:
        x3 = np.column_stack([x1, w1, w2])
        blocks = fit_multinomial_logit(x3, w3)
        for tag, block in zip(("b3", "b4"), blocks):
            for i, e in enumerate(block):
                out[f"{tag}_{i}"] = e
    return {k: v for k, v in out.items() if k in params}


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
    replication), ``gate`` is a usability rule over the m sets
    of a replication, and ``relative`` names the parameters whose bias,
    RMSE and CI width are reported relative to the true value."""
    values: Callable[[dict], dict]
    default_params: tuple[str, ...]
    methods: dict
    analyze: Callable
    truth: dict = field(default_factory=dict)
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
        analyze=_sim1_set_estimates, gate=_sim1_pooled_mixed),
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
        analyze=_sim2_set_estimates, relative=("sigma2",)),
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
        analyze=_sim3_set_estimates),
    "sim4": Study(
        values=_sim4_values, default_params=("mu1", "mu2", "rho"),
        methods={
            "modips-logistic": modips_entry("modips-logistic",
                                            SequentialLogisticModel()),
            "np-dips": _sim4_np_dips,
            "ms": modips_entry("ms", SequentialLogisticModel()),
            "original": _original,
        },
        analyze=_sim4_set_estimates),
}


# -- replication drivers -----------------------------------------------------

_NO_BUDGET_METHODS = ("ms", "original")


def _run_rep(config: StudyConfig, method: str, rng: RngStream,
             eps: float, params) -> tuple[dict, dict]:
    """One replication: simulate truth, synthesize, analyze each set,
    combine.

    Returns ({parameter: CombinedEstimate or None}, extras); extras holds
    the released sets and, for a charged method, the ledger audit."""
    study = STUDIES[config.study]
    ledger = (None if method in _NO_BUDGET_METHODS
              else PrivacyLedger(PrivacyBudget(eps)))
    simulate = globals()[f"simulate_truth_{config.study}"]
    data = simulate(rng.substream(0), config.n,
                    **study.settings(config.truth))
    sets = study.methods[method](
        rng.substream(1), data, eps, config.m, ledger, config.postprocess)
    per_param: dict[str, list] = {p: [] for p in params}
    if study.gate is None or study.gate(sets):
        for s in sets:
            try:
                ests = study.analyze(s, params)
            except (DegenerateEstimate, NonConvergence):
                continue
            for p, e in ests.items():
                per_param[p].append(e)
    results = {p: (combine(lst) if lst else None)
               for p, lst in per_param.items()}
    extras = {"sets": sets}
    if ledger is not None:
        # the one full recomputation of the replication: it must match both
        # the budget and the running spend that every charge checked
        spend = ledger.effective_spend_exact()
        if spend != Fraction(eps) or spend != ledger.spend:
            raise RuntimeError(
                f"ledger audit failure: {method} spent {spend} (running "
                f"{ledger.spend}) != {eps}")
        extras["ledger_exact"] = True
    return results, extras


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


def load_metrics(path: str | Path) -> list[MetricRow]:
    """Parse a metrics CSV back into rows (bit-exact for repr'd floats)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(MetricRow(
                rec["study"], rec["method"], rec["parameter"],
                float(rec["eps"]), float(rec["bias"]), float(rec["rmse"]),
                float(rec["coverage"]), float(rec["ci_width"]),
                float(rec["usable_fraction"]), int(rec["reps_used"])))
    return rows
