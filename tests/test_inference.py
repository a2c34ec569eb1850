import math

import numpy as np
import pytest
from scipy.special import expit

from dips.inference import (
    DegenerateEstimate,
    PerSetEstimate,
    _firth_terms,
    combine,
    estimate_correlation,
    estimate_mean,
    estimate_proportion,
    estimate_variance,
    excess_kurtosis,
    firth_logistic,
    fit_multinomial_logit,
)


def test_combine_hand_case():
    ests = [PerSetEstimate(1.0, 0.1), PerSetEstimate(2.0, 0.1),
            PerSetEstimate(3.0, 0.1)]
    c = combine(ests)
    assert c.point == pytest.approx(2.0, abs=1e-12)
    assert c.between_B == pytest.approx(1.0, abs=1e-12)
    assert c.within_W == pytest.approx(0.1, abs=1e-12)
    assert c.total_T == pytest.approx(1.0 / 3.0 + 0.1, abs=1e-10)
    assert c.df == pytest.approx(3.38, abs=1e-10)


def test_combine_degenerate_between_uses_normal_quantile():
    ests = [PerSetEstimate(2.0, 0.25)] * 4
    c = combine(ests)
    assert c.degenerate_between
    half = 1.959963984540054 * 0.5
    assert c.ci_low == pytest.approx(2.0 - half, abs=1e-9)
    assert c.ci_high == pytest.approx(2.0 + half, abs=1e-9)


def test_combine_single_set_passthrough():
    c = combine([PerSetEstimate(1.0, 0.04)])
    assert c.single_set
    assert c.ci_high - c.ci_low == pytest.approx(2 * 1.959963984540054 * 0.2,
                                                 abs=1e-9)


def test_combine_interval_contains_point():
    c = combine([PerSetEstimate(0.1, 0.01), PerSetEstimate(0.4, 0.02)])
    assert c.ci_low < c.point < c.ci_high


def test_combine_empty_rejected():
    with pytest.raises(ValueError):
        combine([])


def test_estimate_proportion():
    e = estimate_proportion([1, 0, 1, 1])
    assert e.estimate == pytest.approx(0.75)
    assert e.within_variance == pytest.approx(0.75 * 0.25 / 4)


def test_estimate_mean_and_variance():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    em = estimate_mean(x)
    assert em.estimate == pytest.approx(3.0)
    assert em.within_variance == pytest.approx(2.5 / 5)
    ev = estimate_variance(x)
    assert ev.estimate == pytest.approx(2.5)


def test_excess_kurtosis_of_normal_sample():
    gen = np.random.default_rng(0)
    x = gen.standard_normal(200_000)
    assert abs(excess_kurtosis(x)) < 0.05


def test_estimate_correlation_from_samples():
    gen = np.random.default_rng(1)
    z = gen.standard_normal((5000, 2))
    x = z[:, 0]
    y = 0.5 * z[:, 0] + math.sqrt(1 - 0.25) * z[:, 1]
    e = estimate_correlation(x, y)
    assert e.estimate == pytest.approx(0.5, abs=0.05)
    assert e.within_variance == pytest.approx(
        (1 - e.estimate ** 2) / (5000 - 2))


def test_estimate_correlation_precomputed():
    e = estimate_correlation(None, r=0.3, n=100)
    assert e.estimate == pytest.approx(0.3)
    assert e.within_variance == pytest.approx((1 - 0.09) / 98)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateEstimate):
        estimate_variance(np.ones(10))
    with pytest.raises(DegenerateEstimate):
        estimate_correlation(np.ones(10), np.arange(10.0))


# -- penalized logistic regression ------------------------------------------

def test_firth_intercept_only_closed_form():
    """With the Jeffreys penalty the intercept-only fit targets
    (n1 + 1/2) / (n + 1)."""
    y = np.zeros(100)
    y[:30] = 1.0
    x = np.ones((100, 1))
    (est,) = firth_logistic(x, y)
    assert expit(est.estimate) == pytest.approx(30.5 / 101, abs=1e-6)


def test_firth_separated_data_finite():
    x = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
    y = np.r_[np.zeros(10), np.ones(10)]  # perfectly separated
    ests = firth_logistic(x, y)
    assert all(np.isfinite(e.estimate) for e in ests)
    assert all(e.within_variance > 0 for e in ests)


def test_firth_penalized_score_at_convergence():
    gen = np.random.default_rng(3)
    n = 400
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    p = expit(x @ np.array([-0.5, 1.0]))
    y = (gen.random(n) < p).astype(float)
    ests = firth_logistic(x, y)
    beta = np.array([e.estimate for e in ests])
    # penalized score: X'(y - p + h(1/2 - p))
    eta = x @ beta
    probs = expit(eta)
    w = probs * (1 - probs)
    wx = x * w[:, None]
    info = x.T @ wx
    hat = np.einsum("ij,jk,ik->i", x, np.linalg.inv(info), wx)
    score = x.T @ (y - probs + hat * (0.5 - probs))
    assert np.max(np.abs(score)) < 1e-6


def test_firth_recovers_truth_on_large_sample():
    gen = np.random.default_rng(4)
    n = 20000
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    p = expit(x @ np.array([-1.0, 0.5]))
    y = (gen.random(n) < p).astype(float)
    ests = firth_logistic(x, y)
    assert ests[0].estimate == pytest.approx(-1.0, abs=0.08)
    assert ests[1].estimate == pytest.approx(0.5, abs=0.08)


def test_multinomial_logit_recovers_truth():
    gen = np.random.default_rng(5)
    n = 20000
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    b1 = np.array([0.2, -0.8])
    b2 = np.array([-0.5, 0.6])
    a = np.exp(x @ b1)
    b = np.exp(x @ b2)
    u = gen.random(n) * (1 + a + b)
    y = np.where(u < 1, 0, np.where(u < 1 + a, 1, 2))
    blocks = fit_multinomial_logit(x, y)
    est1 = np.array([e.estimate for e in blocks[0]])
    est2 = np.array([e.estimate for e in blocks[1]])
    np.testing.assert_allclose(est1, b1, atol=0.1)
    np.testing.assert_allclose(est2, b2, atol=0.1)


def test_multinomial_logit_degenerate_sets_are_degenerate_estimates():
    """A set too short for its design, or one that lacks a response level,
    is a DegenerateEstimate the harness skips; a code outside {0, 1, 2} is
    a caller error."""
    gen = np.random.default_rng(3)
    x = np.column_stack([np.ones(12), gen.standard_normal(12)])
    with pytest.raises(DegenerateEstimate):
        fit_multinomial_logit(x[:2], np.array([0, 1]))
    with pytest.raises(DegenerateEstimate):
        fit_multinomial_logit(x, np.array([0, 1] * 6))
    with pytest.raises(ValueError) as info:
        fit_multinomial_logit(x, np.array([0, 1, 2, 3] * 3))
    assert not isinstance(info.value, DegenerateEstimate)


@pytest.mark.parametrize("fit, codes", [(firth_logistic, "0, 1"),
                                         (fit_multinomial_logit, "0, 1, 2")])
def test_fractional_response_codes_are_refused(fit, codes):
    """A response code outside 0..k is a caller error in both fits, a
    fractional one too: y + 0.5 is not read as y."""
    gen = np.random.default_rng(6)
    x = np.column_stack([np.ones(30), gen.standard_normal(30)])
    y = np.arange(30) % (codes.count(",") + 1)
    one_off = y.astype(float)
    one_off[5] += 0.5
    for response in (y + 0.5, one_off):
        with pytest.raises(ValueError,
                           match=f"^response must use codes {codes}$") as info:
            fit(x, response)
        assert not isinstance(info.value, DegenerateEstimate)


@pytest.mark.parametrize("k", [1, 2])
def test_firth_penalized_score_is_the_objective_gradient(k):
    """The closed-form penalized score equals the central-difference
    gradient of l + 1/2 log det I at random coefficients."""
    gen = np.random.default_rng(10 + k)
    h = 1e-5
    for trial in range(5):
        n, q = 30 + 10 * trial, 2 + trial % 3
        design = np.column_stack([np.ones(n),
                                  gen.standard_normal((n, q - 1))])
        codes = np.r_[np.arange(k + 1), gen.integers(0, k + 1, n - k - 1)]
        evaluate, penalized_score = _firth_terms(design, codes, k)
        theta = gen.normal(0.0, 0.7, k * q)
        _, p, info = evaluate(theta)
        score, _ = penalized_score(p, info)
        numeric = np.array([
            (evaluate(theta + h * e)[0] - evaluate(theta - h * e)[0]) / (2 * h)
            for e in np.eye(k * q)])
        assert np.max(np.abs(score - numeric)) <= 1e-6 * np.max(
            np.abs(numeric))
