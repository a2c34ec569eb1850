"""End-to-end acceptance checks.

Each test exercises one deliverable-level guarantee at desk scale and
prints a single PASS/FAIL line.  Monte-Carlo checks use fixed seeds, so
every run is deterministic.
"""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import dips.harness
from dips.budget import PrivacyLedger
from dips.harness import (
    SIM3_LEVELS,
    SIM3_PI,
    STUDIES,
    StudyConfig,
    _run_rep,
    run_study,
)
from dips.hist_synth import smoothing_weight
from dips.inference import PerSetEstimate, combine, firth_logistic
from dips.mechanisms import SensitivitySpec, laplace_mechanism
from dips.randvar import (
    RngStream,
    sample_beta,
    sample_gamma,
    sample_inv_gamma,
    sample_inv_wishart,
    sample_laplace,
    sample_multinomial,
    sample_mvnormal,
    sample_normal,
    sample_wishart,
)

GOF_ALPHA = 0.01
GOF_DRAWS = 100_000


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_dp_ratio_bound():
    """Laplace mechanism log-density ratio never exceeds eps anywhere."""
    grid = [Fraction(y) for y in np.linspace(-30.0, 30.0, 10_000)]
    ok = True
    for eps in (0.1, 1.0, 10.0):
        rec = laplace_mechanism(RngStream(0), np.array([0.0]),
                                SensitivitySpec(1.0), eps)
        # neighboring inputs shift the statistic by at most delta_s = 1;
        # exact rational arithmetic keeps grid rounding out of the bound
        scale = Fraction(rec.scale)
        ok = ok and all((abs(y - 1) - abs(y)) / scale <= Fraction(eps)
                        for y in grid)
    _verdict(1, ok, "log-density ratio <= eps on 10^4-point grid, "
             "eps in {0.1, 1, 10}, exact")


def test_criterion_02_smoothing_weight():
    lam = smoothing_weight(10, 100, 1.0)
    ok = abs(lam - 0.90868) <= 1e-5
    eps_grid = np.linspace(0.05, 20.0, 20)
    k_grid = np.arange(2, 22)
    table = np.array([[smoothing_weight(int(k), 100, float(e))
                       for e in eps_grid] for k in k_grid])
    ok = ok and bool(np.all(np.diff(table, axis=1) < 0))  # decreasing in eps
    ok = ok and bool(np.all(np.diff(table, axis=0) > 0))  # increasing in K
    _verdict(2, ok, f"lambda(K=10, n=100, eps=1) = {lam:.6f} vs 0.90868, "
             "monotone on 20x20 grid")


def test_criterion_03_combining_rules():
    est = combine([PerSetEstimate(1.0, 0.1), PerSetEstimate(2.0, 0.1),
                   PerSetEstimate(3.0, 0.1)])
    ok = (abs(est.point - 2.0) <= 1e-10
          and abs(est.total_T - 13 / 30) <= 1e-10
          and abs(est.df - 3.38) <= 1e-10)
    flat = combine([PerSetEstimate(2.0, 0.1)] * 3)
    half = stats.norm.ppf(0.975) * math.sqrt(0.1)
    ok = ok and flat.degenerate_between and math.isinf(flat.df)
    ok = ok and abs((flat.ci_high - flat.ci_low) / 2 - half) <= 1e-10
    _verdict(3, ok, f"hand case point={est.point}, T={est.total_T:.5f}, "
             f"df={est.df:.2f}; B=0 gives the normal interval")


def test_criterion_04_usable_fraction():
    (lap,) = run_study(StudyConfig(
        "sim1", 40, truth={"pi": 0.25}, eps_grid=[math.exp(-10)], m=5,
        reps=500, methods=["laplace"], seed=8))
    checks = [abs(lap.usable_fraction - 0.937) <= 0.03]
    rows = run_study(StudyConfig(
        "sim1", 40, truth={"pi": 0.25}, eps_grid=[math.exp(-9)], m=5,
        reps=500, methods=["modips-bernoulli", "md", "bbmr"], seed=8,
        postprocess="truncate"))
    parts = [f"laplace={lap.usable_fraction:.3f} (target 0.937+-0.03)"]
    for r in rows:
        checks.append(r.usable_fraction >= 0.995)
        parts.append(f"{r.method}={r.usable_fraction:.3f} (>=0.995)")
    _verdict(4, all(checks), "usable fractions: " + ", ".join(parts))


SIM3_N = 1000
SIM3_M = 5
SIM3_SEED = 20_260_826
SIM3_REPS = 200


def _empty_cells(ds) -> int:
    cells = np.ravel_multi_index(
        [ds.column("w1"), ds.column("w2"), ds.column("w3")], SIM3_LEVELS)
    return int((np.bincount(cells, minlength=SIM3_PI.size) == 0).sum())


@lru_cache(maxsize=None)
def _sim3_empty_run(ln_eps: int, method: str, reps: int = SIM3_REPS):
    """Shared Sim-3 runs for the empty-cell and budget-audit checks.

    Records the ledger of each replication and returns (mean empty cells
    per set, number of reps whose entries sum exactly to eps, reps
    attempted)."""
    eps = math.exp(ln_eps)
    config = StudyConfig("sim3", SIM3_N, eps_grid=[eps], m=SIM3_M, reps=reps,
                         methods=[method], seed=SIM3_SEED,
                         parameters=["rho"])
    study_idx = list(STUDIES).index("sim3")
    ledgers = []

    class Recorded(PrivacyLedger):
        def __post_init__(self):
            super().__post_init__()
            ledgers.append(self)

    empties = []
    with mock.patch.object(dips.harness, "PrivacyLedger", Recorded):
        for rep in range(reps):
            rng = RngStream(config.seed).substream(study_idx, 0, 0, rep)
            _, extras = _run_rep(config, method, rng, eps, ["rho"])
            if extras["sets"]:
                empties.append(np.mean([_empty_cells(s)
                                        for s in extras["sets"]]))
    assert len(ledgers) == reps
    audited = sum(
        sum((e.eps for e in ledger.entries), Fraction(0)) == Fraction(eps)
        == ledger.spend for ledger in ledgers)
    return float(np.mean(empties)), audited, reps


def _sim3_empty_reference(ln_eps: int, method: str, seed: list[int]):
    """Empty cells per set under the stated Sim-3 design, by numpy alone.

    Returns (expected empty cells per replication, per-replication
    standard deviation), where a replication's value is the mean over its
    m sets, as in ``_run_rep``.  20,000 replications keep its own
    Monte-Carlo error near a tenth of a 200-replication standard error."""
    reps = 20_000
    gen = np.random.default_rng(seed)
    eps = math.exp(ln_eps)
    k = SIM3_PI.size
    truth = gen.multinomial(SIM3_N, SIM3_PI / SIM3_PI.sum(),
                            size=reps)[:, None, :]
    # eps/m per set: np-dips spends half of it on the counts, modips-mixture
    # a sixth (six statistic groups); count sensitivity 1
    groups = 2 if method == "np-dips" else 6
    noisy = truth + gen.laplace(0.0, groups * SIM3_M / eps, (reps, SIM3_M, k))
    if method == "np-dips":  # BIT at 0
        probs = np.maximum(noisy, 0.0)
    else:  # BIT into [0, n], then Dirichlet(0.5 + c*) as normalized gammas
        probs = gen.gamma(0.5 + np.clip(noisy, 0.0, SIM3_N))
    draws = gen.multinomial(SIM3_N, probs / probs.sum(axis=-1, keepdims=True))
    per_rep = (draws == 0).sum(axis=-1).mean(axis=-1)
    return float(per_rep.mean()), float(per_rep.std(ddof=1))


def test_criterion_05_empty_cells():
    """Empty cells per synthetic Sim-3 set match the stated design.

    For np-dips and modips-mixture at ln(eps) = -6 and 4, the mean number
    of the 24 cells left empty by a set (200 replications, seed
    20_260_826) must lie within 4 standard errors of the value that
    ``_sim3_empty_reference`` computes with numpy alone.  Its design
    constants, and where each comes from:

    - n = 1000 rows and m = 5 sets: the ``StudyConfig`` of
      ``_sim3_empty_run``;
    - cell counts Multinomial(n, SIM3_PI) over the 2x3x4 = 24 cells of
      SIM3_LEVELS: ``simulate_truth_sim3``;
    - np-dips spends eps/m per set, split 1:1 between the counts and the
      z histograms: ``_sim3_np_set``;
    - count sensitivity 1 (stated in ``hist_synth``), so Laplace scale
      1/(eps/2m), then BIT at 0: ``perturb_histogram``;
    - np-dips draws n rows multinomially from the sanitized proportions:
      ``laplace_sanitizer_crosstab``;
    - modips-mixture splits eps/m evenly over six statistic groups:
      ``modips_release`` and ``GaussianMixtureModel``;
    - its counts group has sensitivity 1 and is BIT into [0, n]:
      ``GaussianMixtureModel.sufficient_statistics`` and
      ``laplace_mechanism``;
    - cell probabilities ~ Dirichlet(0.5 + c*):
      ``GaussianMixtureModel.posterior_draw``;
    - the set's n rows are a multinomial draw from them:
      ``GaussianMixtureModel.predictive_draw``.

    The standard error is the reference's per-replication spread over
    sqrt(200).  The published ordering at ln(eps) = -6 (np-dips leaves
    more cells empty than modips-mixture) is asserted too.  The published
    table gives 23.66, 4.58, 0.41 and 1.00 for the four points; they are
    recorded below but not asserted, because the design above does not
    reach them: even the original n = 1000 data leave about 0.002 cells
    empty in expectation, far from 0.41 and 1.00, and the table does not
    say which design produced it.  Every band must exclude its published
    figure, so a band too wide to tell the two apart fails.
    """
    points = [
        (-6, "np-dips", 23.66),
        (-6, "modips-mixture", 4.58),
        (4, "np-dips", 0.41),
        (4, "modips-mixture", 1.00),
    ]
    checks = []
    parts = []
    observed = {}
    for i, (ln_eps, method, published) in enumerate(points):
        mean, _, _ = _sim3_empty_run(ln_eps, method)
        expected, spread = _sim3_empty_reference(ln_eps, method,
                                                 seed=[SIM3_SEED, i])
        half = 4 * spread / math.sqrt(SIM3_REPS)
        checks.append(abs(mean - expected) <= half)
        checks.append(abs(published - expected) > half)
        observed[ln_eps, method] = mean
        parts.append(f"ln(eps)={ln_eps} {method}: {mean:.3f} "
                     f"(expected {expected:.3f}+-{half:.3f}, "
                     f"published {published})")
    checks.append(observed[-6, "np-dips"] > observed[-6, "modips-mixture"])
    _verdict(5, all(checks), "empty cells per set: " + "; ".join(parts)
             + "; np-dips > modips-mixture at ln(eps)=-6")


def test_criterion_06_qualitative_curves():
    checks = []
    parts = []
    # binary study: shrinkage synthesizers are biased toward 0.5 and
    # undercover at small eps, the model-based synthesizer holds coverage
    rows = run_study(StudyConfig(
        "sim1", 100, truth={"pi": 0.25},
        eps_grid=[math.exp(-3), math.exp(-2), 1.0, math.exp(2)], m=5,
        reps=500, methods=["modips-bernoulli", "md", "bbmr"], seed=12))
    small = math.exp(-2) + 1e-12
    for r in rows:
        if r.method in ("md", "bbmr") and r.eps <= small:
            checks.append(r.bias > 0)
        if r.method == "md" and r.eps <= small:
            checks.append(r.coverage < 0.90)
        if r.method == "modips-bernoulli":
            checks.append(r.coverage >= 0.90 - 0.03)
    parts.append("sim1: md/bbmr bias>0 and md coverage<0.90 at eps<=e^-2, "
                 "modips coverage>=0.87 across grid")
    # bounded-normal study: variance coverage
    rows = run_study(StudyConfig(
        "sim2", 100, eps_grid=[math.exp(-1), 1.0, math.e, math.exp(2)], m=5,
        reps=500, methods=["modips-normal", "smooth-hist"], seed=12,
        parameters=["sigma2"]))
    for r in rows:
        if r.method == "modips-normal" and r.eps >= 1.0:
            checks.append(r.coverage >= 0.90)
        if r.method == "smooth-hist" and r.eps <= 1.0:
            checks.append(r.coverage < 0.5)
    parts.append("sim2: modips sigma2 coverage>=0.90 for eps>=1, "
                 "smoothed <0.5 at eps<=1")
    # mixture study: correlation coverage
    rows = run_study(StudyConfig(
        "sim3", 1000, eps_grid=[math.exp(2), math.exp(8)], m=5, reps=200,
        methods=["modips-mixture", "np-dips"], seed=12, parameters=["rho"]))
    for r in rows:
        if r.method == "np-dips":
            checks.append(r.coverage < 0.95)
        if r.method == "modips-mixture":  # both grid points exceed e
            checks.append(r.coverage >= 0.92)
    parts.append("sim3: np rho coverage<0.95 even at e^8, "
                 "modips >=0.92 for eps>e")
    _verdict(6, all(checks), "; ".join(parts))


def test_criterion_07_large_eps_consistency():
    eps = math.exp(8)
    rows = run_study(StudyConfig(
        "sim1", 100, truth={"pi": 0.25}, eps_grid=[eps], m=5, reps=300,
        seed=9))
    rows += run_study(StudyConfig(
        "sim2", 100, eps_grid=[eps], m=5, reps=300, seed=9,
        methods=["modips-normal", "pert-hist", "ms", "original"],
        parameters=["mu"]))
    by_key = {(r.study, r.method): r for r in rows}
    pairs = [
        ("sim1", "modips-bernoulli", "ms"),
        ("sim1", "laplace", "original"),
        ("sim1", "md", "original"),
        ("sim1", "bbmr", "original"),
        ("sim2", "modips-normal", "ms"),
        ("sim2", "pert-hist", "ms"),
    ]
    checks = []
    parts = []
    for study, method, baseline in pairs:
        r, b = by_key[(study, method)], by_key[(study, baseline)]

        def mc_se(row):
            spread = math.sqrt(max(row.rmse ** 2 - row.bias ** 2, 0.0))
            return spread / math.sqrt(row.reps_used)

        gap = abs(r.bias - b.bias)
        bound = 2 * math.hypot(mc_se(r), mc_se(b))
        checks.append(gap <= bound)
        parts.append(f"{method} vs {baseline}: |dbias|={gap:.4f}<= {bound:.4f}")
    _verdict(7, all(checks), "; ".join(parts))


def test_criterion_08_sampler_suite():
    rng = RngStream(31)
    checks = []
    # continuous families against their scipy references
    draws = sample_laplace(rng.substream(0), 1.0, 2.0, size=GOF_DRAWS)
    checks.append(stats.kstest(draws, stats.laplace(1.0, 2.0).cdf).pvalue
                  > GOF_ALPHA)
    draws = sample_normal(rng.substream(1), -1.0, 0.5, size=GOF_DRAWS)
    checks.append(stats.kstest(draws, stats.norm(-1.0, 0.5).cdf).pvalue
                  > GOF_ALPHA)
    draws = sample_beta(rng.substream(2), 2.0, 5.0, size=GOF_DRAWS)
    checks.append(stats.kstest(draws, stats.beta(2.0, 5.0).cdf).pvalue
                  > GOF_ALPHA)
    draws = sample_gamma(rng.substream(3), 3.0, rate=2.0, size=GOF_DRAWS)
    checks.append(stats.kstest(draws, stats.gamma(3.0, scale=0.5).cdf).pvalue
                  > GOF_ALPHA)
    draws = sample_inv_gamma(rng.substream(4), 4.0, 3.0, size=GOF_DRAWS)
    checks.append(stats.kstest(draws, stats.invgamma(4.0, scale=3.0).cdf)
                  .pvalue > GOF_ALPHA)
    # multinomial cell frequencies
    p = np.array([0.2, 0.3, 0.5])
    counts = sample_multinomial(rng.substream(5), GOF_DRAWS, p)
    checks.append(stats.chisquare(counts, GOF_DRAWS * p).pvalue > GOF_ALPHA)
    # multivariate normal first and second moments
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    draws = sample_mvnormal(rng.substream(6), np.array([1.0, -1.0]), cov,
                            size=GOF_DRAWS)
    checks.append(np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.02))
    checks.append(np.allclose(np.cov(draws.T), cov, atol=0.03))
    # Wishart and inverse-Wishart means per their closed forms
    scale = np.array([[1.0, 0.3], [0.3, 0.5]])
    total = np.zeros((2, 2))
    inv_total = np.zeros((2, 2))
    reps = 4000
    for i in range(reps):
        total += sample_wishart(rng.substream(7, i), 7.0, scale)
        inv_total += sample_inv_wishart(rng.substream(8, i), 7.0, scale)
    checks.append(np.allclose(total / reps, 7.0 * scale, atol=0.15))
    checks.append(np.allclose(inv_total / reps, scale / (7.0 - 2 - 1),
                              atol=0.02))
    _verdict(8, all(checks),
             f"{len(checks)} sampler checks at alpha={GOF_ALPHA}, "
             f"{GOF_DRAWS} draws; inverse-Wishart mean = scale/(dof-p-1)")


def test_criterion_09_firth_logistic():
    # separated data still yields finite estimates
    design = np.column_stack([np.ones(8), np.arange(8, dtype=float)])
    response = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    sep = firth_logistic(design, response)
    checks = [all(math.isfinite(e.estimate) for e in sep)]
    # intercept-only closed form: fitted p = (n1 + 1/2)/(n + 1)
    ones = np.ones((100, 1))
    y = np.zeros(100)
    y[:30] = 1.0
    (fit,) = firth_logistic(ones, y)
    p_hat = 1.0 / (1.0 + math.exp(-fit.estimate))
    checks.append(abs(p_hat - 0.30198) <= 1e-6)
    # penalized score at the solution, recomputed from scratch
    eta = float(fit.estimate)
    p = 1.0 / (1.0 + math.exp(-eta))
    w = p * (1 - p)
    hat = w / (100 * w)  # leverage of each row in the intercept-only fit
    score = 100 * ((0.3 - p) + hat * (0.5 - p))
    checks.append(abs(score) < 1e-6)
    _verdict(9, all(checks), f"separation-safe, p_hat={p_hat:.6f} vs "
             f"0.30198, |penalized score|={abs(score):.2e}")


def test_criterion_10_budget_audit():
    audited = attempted = 0
    for ln_eps in (-6, 4):
        for method in ("np-dips", "modips-mixture"):
            _, ok, total = _sim3_empty_run(ln_eps, method)
            audited += ok
            attempted += total
    _verdict(10, audited == attempted and attempted > 0,
             f"{audited}/{attempted} replications' recorded ledgers sum "
             "exactly to eps (exact rational bookkeeping, zero violations)")
