import math

import numpy as np
import pytest
from scipy import stats

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from dips.hist_synth import (
    AllCellsZero,
    BinnedAxis,
    CategoricalAxis,
    GridSpec,
    OutOfDomain,
    bin_count_from_width,
    bin_width_scott,
    build_histogram,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    smooth_histogram,
    smoothing_weight,
)
from dips.randvar import RngStream


def _cont_dataset(values, lo=0.0, hi=1.0):
    return TabularDataset([ContinuousColumn("x", lo, hi)],
                          {"x": np.asarray(values, dtype=float)})


def test_scott_rule_oracle():
    # 3.5 * S * n^(-1/3) with S=2, n=1000 -> 0.7
    assert bin_width_scott(2.0, 1000) == pytest.approx(0.7)


def test_bin_count_anchored_at_lower_bound():
    assert bin_count_from_width(0.0, 1.0, 0.3) == 4
    assert bin_count_from_width(0.0, 1.0, 0.5) == 2


def test_histogram_counts_and_density():
    ds = _cont_dataset([0.05, 0.15, 0.95, 0.95])
    grid = GridSpec((BinnedAxis(0.0, 1.0, 10),))
    hist = build_histogram(ds, grid)
    assert hist.counts[0] == 1 and hist.counts[1] == 1 and hist.counts[9] == 2
    # density integrates to one
    assert hist.density().sum() * grid.cell_volume == pytest.approx(1.0)


def test_out_of_domain_rejected():
    ds = _cont_dataset([1.5], lo=0.0, hi=2.0)
    grid = GridSpec((BinnedAxis(0.0, 1.0, 4),))  # narrower than the column
    with pytest.raises(OutOfDomain):
        build_histogram(ds, grid)


def test_perturbed_histogram_nonnegative_and_charged_once():
    rng = RngStream(0)
    ds = _cont_dataset(np.linspace(0.01, 0.99, 200))
    grid = GridSpec((BinnedAxis(0.0, 1.0, 8),))
    hist = build_histogram(ds, grid)
    ledger = PrivacyLedger(PrivacyBudget(0.5))
    pert = perturb_histogram(rng, hist, 0.5, ledger=ledger)
    assert np.all(pert.counts >= 0)
    assert ledger.effective_spend == pytest.approx(0.5)


def test_perturbed_histogram_noise_scale():
    """Per-cell noise uses the full eps (parallel composition), so the
    pre-clamp deviation should match Laplace(1/eps)."""
    rng = RngStream(1)
    counts = np.full(50_000, 100.0)
    from dips.hist_synth import Histogram

    grid = GridSpec((BinnedAxis(0.0, 1.0, len(counts)),))
    hist = Histogram(grid, counts, counts.sum())
    pert = perturb_histogram(rng, hist, 2.0, ledger=None)
    noise = pert.counts - counts  # far from zero, so BIT never binds
    _, p = stats.kstest(noise, stats.laplace(scale=0.5).cdf)
    assert p > 0.01


def test_perturbed_histogram_delta_follows_ledger_or_argument():
    from dips.hist_synth import Histogram

    grid = GridSpec((BinnedAxis(0.0, 1.0, 6),))
    hist = Histogram(grid, np.full(6, 50.0), 300.0)
    by_ledger = perturb_histogram(
        RngStream(2), hist, 0.5,
        ledger=PrivacyLedger(PrivacyBudget(0.5), delta_s_counts=2))
    by_argument = perturb_histogram(RngStream(2), hist, 0.5,
                                    delta_s_counts=2)
    at_half_eps = perturb_histogram(RngStream(2), hist, 0.25)
    np.testing.assert_array_equal(by_ledger.counts, by_argument.counts)
    np.testing.assert_array_equal(by_argument.counts, at_half_eps.counts)
    ledger = PrivacyLedger(PrivacyBudget(0.5), delta_s_counts=2)
    with pytest.raises(ValueError):
        perturb_histogram(RngStream(2), hist, 0.5, ledger=ledger,
                          delta_s_counts=1)
    assert ledger.entries == []


def test_all_cells_zero_raised():
    from dips.hist_synth import Histogram

    grid = GridSpec((BinnedAxis(0.0, 1.0, 4),))
    hist = Histogram(grid, np.zeros(4), 0.0)
    # with tiny eps the sanitized counts collapse to zero almost surely
    with pytest.raises(AllCellsZero):
        for i in range(200):
            perturb_histogram(RngStream(i), hist, 1e-9)


def test_smoothing_weight_oracle():
    assert smoothing_weight(10, 100, 1.0) == pytest.approx(
        0.9086764940894498, abs=1e-12)


def test_smoothing_weight_monotone_in_eps_and_cells():
    eps_grid = np.logspace(-3, 3, 20)
    k_grid = np.arange(2, 22)
    for k in k_grid:
        vals = [smoothing_weight(int(k), 100, e) for e in eps_grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in eps
    for e in eps_grid:
        vals = [smoothing_weight(int(k), 100, float(e)) for k in k_grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in K


def test_smooth_histogram_mixes_toward_uniform():
    ds = _cont_dataset(np.repeat(0.05, 100))
    grid = GridSpec((BinnedAxis(0.0, 1.0, 5),))
    hist = build_histogram(ds, grid)
    density = smooth_histogram(hist, 1e-6)
    # lambda ~ 1: almost uniform
    np.testing.assert_allclose(density, 1.0, rtol=1e-4)
    density = smooth_histogram(hist, 1e6)
    # lambda ~ 0: almost the empirical histogram
    assert density[0] == pytest.approx(5.0, rel=1e-3)


def test_sample_from_histogram_respects_support():
    rng = RngStream(5)
    grid = GridSpec((BinnedAxis(-1.0, 1.0, 4),))
    density = np.array([0.0, 1.0, 0.0, 0.0])
    draw = sample_from_histogram(rng, grid, density, 500)["axis0"]
    assert np.all(draw >= -0.5) and np.all(draw <= 0.0)


def test_sample_from_histogram_mixed_axes():
    rng = RngStream(6)
    grid = GridSpec((CategoricalAxis(3), BinnedAxis(0.0, 1.0, 2)))
    density = np.ones(6)
    out = sample_from_histogram(rng, grid, density, 1000)
    assert set(np.unique(out["axis0"])) <= {0, 1, 2}
    assert np.all((out["axis1"] >= 0.0) & (out["axis1"] <= 1.0))


def test_laplace_sanitizer_crosstab_roundtrip():
    rng = RngStream(7)
    n = 500
    w = (rng.generator.random(n) < 0.3).astype(np.int64)
    ds = TabularDataset([CategoricalColumn("w", (0, 1))], {"w": w})
    ledger = PrivacyLedger(PrivacyBudget(5.0))
    sanitized, codes = laplace_sanitizer_crosstab(rng.substream(1), ds,
                                                  ["w"], 5.0, ledger=ledger)
    assert codes["w"].shape == (n,)
    assert ledger.effective_spend == pytest.approx(5.0)
    # generous budget: sanitized proportions close to the empirical ones
    assert abs(codes["w"].mean() - w.mean()) < 0.1


def test_grid_cell_volume_and_bounds_volume():
    grid = GridSpec((BinnedAxis(0.0, 2.0, 4), CategoricalAxis(3),
                     BinnedAxis(0.0, 1.0, 2)))
    assert grid.cell_volume == pytest.approx(0.25)
    assert grid.bounds_volume == pytest.approx(2.0)
    assert grid.cell_count == 24
