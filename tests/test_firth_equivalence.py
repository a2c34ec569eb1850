"""Equivalence gate for the Firth fits of sim4's three regressions.

``firth_logistic`` and ``fit_multinomial_logit`` are compared with the
fitters they replaced, kept verbatim in ``sim4_reference``: on the three
regressions of seeded sim4 truth sets, and on the synthetic sets of a
sim4 study whose modips-logistic sets are near-singular (n = 150, eps 0.5
and 5, m = 3, reps 3, seed 5).  Estimates agree within 1e-8, variances
within 1e-6 relative, and a fit that raises raises the same class.

The modips-logistic sets of that study are compared on the three-level
fit's exception class only.  A covariate whose sanitized variance was
floored at ``TINY_VARIANCE`` has an SD of about 1e-6 there, so the
designs' condition numbers reach 1e6-1e7, and whether a binary fit
converges within its iterations is decided by rounding.
"""

import math
from collections import Counter

import numpy as np
import pytest
from sim4_reference import (
    clamped_loglik,
    log_factors_binary,
    log_factors_trinomial,
    reference_firth_logistic,
    reference_fit_multinomial_logit,
)

from dips.harness import STUDIES, StudyConfig, _run_rep, simulate_truth_sim4
from dips.inference import firth_logistic, fit_multinomial_logit
from dips.param_synth import SequentialLogisticModel
from dips.randvar import RngStream

TRUTH_SEEDS = range(40)
ESTIMATE_ATOL = 1e-8
VARIANCE_RTOL = 1e-6


def _designs(ds):
    """The sim4 analyzer's three designs and responses of one set."""
    n = ds.n
    w1 = ds.column("w1").astype(float)
    w2 = ds.column("w2").astype(float)
    x1 = np.column_stack([np.ones(n), ds.column("z1"), ds.column("z2")])
    x2 = np.column_stack([x1, w1])
    x3 = np.column_stack([x2, w2])
    return x1, w1, x2, w2, x3, ds.column("w3")


def _outcome(fit, design, response):
    """The fit's coefficient blocks, or the class of what it raised."""
    try:
        result = fit(design, response)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)
    return result if isinstance(result[0], list) else [result]


def _assert_same_fit(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    for got_block, want_block in zip(got, want, strict=True):
        for g, w in zip(got_block, want_block, strict=True):
            assert abs(g.estimate - w.estimate) <= ESTIMATE_ATOL
            assert g.within_variance == pytest.approx(
                w.within_variance, rel=VARIANCE_RTOL)


def _assert_all_three_match(ds):
    x1, w1, x2, w2, x3, w3 = _designs(ds)
    for fit, ref, design, response in (
            (firth_logistic, reference_firth_logistic, x1, w1),
            (firth_logistic, reference_firth_logistic, x2, w2),
            (fit_multinomial_logit, reference_fit_multinomial_logit,
             x3, w3)):
        _assert_same_fit(_outcome(fit, design, response),
                         _outcome(ref, design, response))


@pytest.fixture(scope="module")
def separated_study_sets():
    """Every synthetic set of the near-singular study, by method."""
    config = StudyConfig("sim4", 150, eps_grid=[0.5, 5.0], m=3, reps=3,
                         seed=5)
    study_idx = list(STUDIES).index("sim4")
    sets = {}
    for eps_idx, eps in enumerate(config.eps_grid):
        for method_idx, method in enumerate(config.methods):
            for rep in range(config.reps):
                rng = RngStream(config.seed).substream(
                    study_idx, eps_idx, method_idx, rep)
                _, extras = _run_rep(config, method, rng, eps, [])
                sets.setdefault(method, []).extend(extras["sets"])
    return sets


@pytest.mark.parametrize("seed", TRUTH_SEEDS)
def test_fits_match_reference_on_truth_sets(seed):
    _assert_all_three_match(simulate_truth_sim4(RngStream(seed), 200))


@pytest.mark.parametrize("method", ["np-dips", "ms"])
def test_fits_match_reference_on_synthetic_sets(separated_study_sets,
                                                method):
    sets = separated_study_sets[method]
    assert len(sets) == 18
    for ds in sets:
        _assert_all_three_match(ds)


def test_near_singular_three_level_fits_raise_as_reference(
        separated_study_sets):
    def kind(outcome):
        return outcome.__name__ if isinstance(outcome, type) else "fit"

    outcomes = Counter()
    for ds in separated_study_sets["modips-logistic"]:
        *_, x3, w3 = _designs(ds)
        want = kind(_outcome(reference_fit_multinomial_logit, x3, w3))
        assert kind(_outcome(fit_multinomial_logit, x3, w3)) == want
        outcomes[want] += 1
    assert outcomes == {"NonConvergence": 12, "DegenerateEstimate": 2,
                        "fit": 4}


@pytest.mark.parametrize("n", [200, 600])
def test_log_raw_matches_reference(n):
    data = simulate_truth_sim4(RngStream(90 + n), n)
    stats = {g.label: g.value for g in
             SequentialLogisticModel().sufficient_statistics(data)}
    x1, w1, x2, w2, x3, w3 = _designs(data)
    b1, b2, b3, b4 = (
        np.array([e.estimate for e in fit]) for fit in (
            reference_firth_logistic(x1, w1),
            reference_firth_logistic(x2, w2),
            *reference_fit_multinomial_logit(x3, w3)))
    want = [clamped_loglik(log_factors_binary(x1, w1, b1)),
            clamped_loglik(log_factors_binary(x2, w2, b2)),
            clamped_loglik(log_factors_trinomial(x3, w3, b3, b4))]
    assert all(math.isfinite(v) and v < 0 for v in want)
    np.testing.assert_allclose(stats["log_raw"], want, rtol=1e-11, atol=0)
