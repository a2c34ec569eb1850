import math

import numpy as np
import pytest
from scipy import stats

from dips.mechanisms import (
    SanitizedStatistic,
    SensitivitySpec,
    exponential_mechanism_discrete,
    laplace_mechanism,
    postprocess_bit,
    postprocess_truncate,
)
from dips.randvar import RngStream


def rng(seed=0):
    return RngStream(seed)


def test_laplace_noise_scale_matches_cdf():
    sens = SensitivitySpec(1.0)
    stat = laplace_mechanism(rng(), np.zeros(100_000), sens, 0.5, "s")
    # noise ~ Laplace(0, delta/eps = 2)
    _, p = stats.kstest(stat.sanitized, stats.laplace(scale=2.0).cdf)
    assert p > 0.01


def test_laplace_records_metadata():
    stat = laplace_mechanism(rng(), 3.0, SensitivitySpec(2.0), 0.4, "count")
    assert stat.label == "count"
    assert stat.eps_spent == 0.4
    assert stat.scale == pytest.approx(5.0)
    assert stat.raw == pytest.approx(3.0)


def test_log_density_ratio_bounded_by_eps():
    """Neighboring inputs differing by the sensitivity have output densities
    within a factor e^eps everywhere."""
    for eps in (0.1, 1.0, 10.0):
        scale = 1.0 / eps
        grid = np.linspace(-50.0, 50.0, 10_000)
        log_f0 = -np.abs(grid) / scale
        log_f1 = -np.abs(grid - 1.0) / scale
        assert np.max(np.abs(log_f0 - log_f1)) <= eps + 1e-12


def test_exponential_mechanism_probabilities():
    candidates = ["a", "b", "c"]
    utility = {"a": 0.0, "b": 1.0, "c": 2.0}
    eps = 2.0
    draws = [exponential_mechanism_discrete(
        rng(1).substream(i), candidates, lambda c: utility[c], 1.0, eps)
        for i in range(20_000)]
    logits = np.array([utility[c] * eps / 2 for c in candidates])
    expected = np.exp(logits) / np.exp(logits).sum()
    observed = np.array([draws.count(c) for c in candidates]) / len(draws)
    np.testing.assert_allclose(observed, expected, atol=0.02)


def test_exponential_mechanism_extreme_utilities_stable():
    candidates = [0, 1]
    # large utilities would overflow a naive exp; log-sum-exp must cope
    choice = exponential_mechanism_discrete(
        rng(2), candidates, lambda c: 1e6 * c, 1.0, 1.0)
    assert choice == 1


def test_bit_clamps_to_bounds():
    stat = SanitizedStatistic("s", np.zeros(3), np.array([-3.0, 0.5, 9.0]),
                              1.0, SensitivitySpec(1.0))
    clamped = postprocess_bit(stat, 0.0, 1.0)
    np.testing.assert_allclose(clamped.sanitized, [0.0, 0.5, 1.0])
    assert "BIT" in clamped.postprocess


def test_truncate_resamples_within_bounds():
    raw = np.zeros(500)
    stat = laplace_mechanism(rng(3), raw, SensitivitySpec(1.0), 0.5, "s")
    out = postprocess_truncate(rng(4), stat, -1.0, 1.0)
    assert np.all(out.sanitized >= -1.0) and np.all(out.sanitized <= 1.0)
    # in-bounds entries unchanged
    inside = (stat.sanitized >= -1.0) & (stat.sanitized <= 1.0)
    np.testing.assert_allclose(out.sanitized[inside], stat.sanitized[inside])


def test_truncate_distribution_is_conditional():
    """Resampled noise follows the Laplace law conditioned on the bounds."""
    raw = np.zeros(50_000)
    stat = laplace_mechanism(rng(5), raw, SensitivitySpec(1.0), 1.0, "s")
    out = postprocess_truncate(rng(6), stat, -1.0, 1.0)
    dist = stats.laplace(scale=1.0)
    lo, hi = dist.cdf(-1.0), dist.cdf(1.0)

    def truncated_cdf(x):
        return (dist.cdf(np.clip(x, -1.0, 1.0)) - lo) / (hi - lo)

    _, p = stats.kstest(out.sanitized, truncated_cdf)
    assert p > 0.01


def test_truncate_far_tail_window_draws_inside():
    stat = SanitizedStatistic("s", np.array([0.0]), np.array([5.0]), 1e9,
                              SensitivitySpec(1e-12))
    # the window lies ~1e23 noise scales out: still one finite draw inside
    out = postprocess_truncate(rng(7), stat, 100.0, 100.1)
    assert np.isfinite(out.sanitized[0])
    assert 100.0 <= out.sanitized[0] <= 100.1


def test_sensitivity_must_be_positive():
    with pytest.raises(ValueError):
        SensitivitySpec(0.0)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        laplace_mechanism(rng(), 0.0, SensitivitySpec(1.0), 0.0, "s")
