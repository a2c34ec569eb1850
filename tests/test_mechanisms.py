import math

import numpy as np
import pytest
from scipy import stats

from dips.mechanisms import SensitivitySpec, laplace_mechanism
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


def test_bit_clamps_to_bounds():
    # noise of scale 1e-12 leaves the in-bound entry where it is
    clamped = laplace_mechanism(rng(), np.array([-3.0, 0.5, 9.0]),
                                SensitivitySpec(1e-12), 1.0, "s",
                                lower=0.0, upper=1.0)
    np.testing.assert_allclose(clamped.sanitized, [0.0, 0.5, 1.0])
    assert "BIT" in clamped.postprocess


def _truncated(seed, raw, delta, eps, lo, hi):
    return laplace_mechanism(rng(seed), raw, SensitivitySpec(delta), eps, "s",
                             lower=lo, upper=hi, postprocess="truncate")


def test_truncate_resamples_within_bounds():
    raw = np.zeros(500)
    stat = laplace_mechanism(rng(3), raw, SensitivitySpec(1.0), 0.5, "s")
    out = _truncated(3, raw, 1.0, 0.5, -1.0, 1.0)
    assert np.all(out.sanitized >= -1.0) and np.all(out.sanitized <= 1.0)
    # in-bounds entries keep the first draw, which the truncation follows
    inside = (stat.sanitized >= -1.0) & (stat.sanitized <= 1.0)
    assert 0 < inside.sum() < raw.size
    np.testing.assert_allclose(out.sanitized[inside], stat.sanitized[inside])


def test_truncate_distribution_is_conditional():
    """Resampled noise follows the Laplace law conditioned on the bounds."""
    out = _truncated(5, np.zeros(50_000), 1.0, 1.0, -1.0, 1.0)
    dist = stats.laplace(scale=1.0)
    lo, hi = dist.cdf(-1.0), dist.cdf(1.0)

    def truncated_cdf(x):
        return (dist.cdf(np.clip(x, -1.0, 1.0)) - lo) / (hi - lo)

    _, p = stats.kstest(out.sanitized, truncated_cdf)
    assert p > 0.01


def test_truncate_far_tail_window_draws_inside():
    # the window lies ~1e23 noise scales out: still one finite draw inside
    out = _truncated(7, np.array([0.0]), 1e-12, 1e9, 100.0, 100.1)
    assert np.isfinite(out.sanitized[0])
    assert 100.0 <= out.sanitized[0] <= 100.1


def test_per_entry_sensitivity_is_recorded():
    delta = np.array([0.5, 1.0, 4.0])
    stat = laplace_mechanism(rng(8), np.zeros(3), SensitivitySpec(delta), 2.0)
    np.testing.assert_array_equal(stat.scale, delta / 2.0)
    with pytest.raises(ValueError):
        SensitivitySpec(np.array([1.0, 0.0]))


@pytest.mark.parametrize("postprocess", ["BIT", "truncate"])
def test_undefined_entries_get_no_noise(postprocess):
    """Masked entries take no draw: the defined ones see the same stream
    as a release of the defined entries alone, and the rest are clamped."""
    raw = np.array([0.2, 7.0, 0.9, -3.0, 0.5])
    delta = np.array([0.3, 1.0, 0.6, 1.0, 0.2])
    defined = np.array([True, False, True, False, True])
    kw = dict(lower=0.0, upper=1.0, postprocess=postprocess)
    full = laplace_mechanism(rng(9), raw, SensitivitySpec(delta), 0.5,
                             defined=defined, **kw)
    alone = laplace_mechanism(rng(9), raw[defined],
                              SensitivitySpec(delta[defined]), 0.5, **kw)
    np.testing.assert_array_equal(full.sanitized[defined], alone.sanitized)
    np.testing.assert_array_equal(full.sanitized[~defined], [1.0, 0.0])
    assert full.postprocess == postprocess


def test_unknown_postprocess_rejected():
    with pytest.raises(ValueError, match="postprocess"):
        laplace_mechanism(rng(), 0.0, SensitivitySpec(1.0), 1.0,
                          postprocess="round")


def test_sensitivity_must_be_positive():
    with pytest.raises(ValueError):
        SensitivitySpec(0.0)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        laplace_mechanism(rng(), 0.0, SensitivitySpec(1.0), 0.0, "s")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [1.0, np.float64(2.0), np.array([1.0, 3.0])],
                         ids=["float", "numpy-scalar", "per-entry"])
def test_eps_whose_scale_overflows_is_refused_without_a_warning(delta):
    with pytest.raises(ValueError, match=r"^cell: eps = 5e-321 is too small, "
                       "its Laplace scale overflows a float$"):
        laplace_mechanism(rng(), [1.0, 2.0], SensitivitySpec(delta), 5e-321,
                          "cell")
