import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from dips.hist_synth import (
    AllCellsZero,
    MAX_GRID_CELLS,
    build_histogram,
    grid_cells,
    laplace_sanitizer_crosstab,
    perturb_histogram,
    sample_from_histogram,
    scott_bins,
    scott_grid,
    smooth_histogram,
    smoothing_weight,
)
from dips.randvar import RngStream


def _ledger(eps):
    return PrivacyLedger(PrivacyBudget(eps))


def _cont_dataset(values, lo=0.0, hi=1.0):
    return TabularDataset([ContinuousColumn("x", lo, hi)],
                          {"x": np.asarray(values, dtype=float)})


def test_scott_rule_oracle():
    # 3.5 * S * n^(-1/3) with S=2, n=1000 -> a width of 0.7, so ranges of
    # 1, 3 and 6 take ceil(1.43), ceil(4.29) and ceil(8.57) bins
    bins = scott_bins(np.array([1.0, 3.0, 6.0]), 2.0, 1000, True)
    assert bins.tolist() == [2.0, 5.0, 9.0]
    data = _cont_dataset([0.0, 0.2, 0.3, 0.9, 1.0])
    sd = float(np.std(data.column("x"), ddof=1))
    assert scott_grid(data) == (math.ceil(1.0 / (3.5 * sd * 5 ** (-1 / 3))),)


def test_bin_count_anchored_at_lower_bound():
    # a width of 0.3 on [0, 1] rounds up to 4 bins, not down to 3
    sd = 0.3 / (3.5 * 8 ** (-1 / 3))
    assert scott_bins(1.0, sd, 8, True) == 4
    # 4 equal bins from lo = 2: an edge counts in the upper bin, and hi
    # in the last
    ds = _cont_dataset([2.0, 2.24, 2.26, 2.5, 3.0], lo=2.0, hi=3.0)
    assert build_histogram(ds, (4,)).tolist() == [2.0, 1.0, 1.0, 1.0]


def test_equal_rows_take_one_bin():
    # seven equal rows have a numpy sd a rounding error above 0
    seven = _cont_dataset([0.1] * 7)
    assert np.std(seven.column("x"), ddof=1) > 0
    assert scott_grid(seven) == (1,)
    # rows a subnormal apart: min < max, but the squares underflow to sd 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scott_grid(_cont_dataset([0.0, 5e-324, 0.0])) == (1,)
    # one bin unless both the rows and the sd spread
    assert scott_bins(np.ones(3), np.array([0.0, 1e-17, 0.5]), 7,
                      np.array([True, False, True])).tolist() == [1, 1, 2]


def test_histogram_counts():
    ds = _cont_dataset([0.05, 0.15, 0.95, 0.95])
    counts = build_histogram(ds, (10,))
    assert counts.dtype == float and counts.shape == (10,)
    assert counts[0] == 1 and counts[1] == 1 and counts[9] == 2
    assert counts.sum() == ds.n


def test_perturbed_histogram_nonnegative_and_charged_once():
    rng = RngStream(0)
    ds = _cont_dataset(np.linspace(0.01, 0.99, 200))
    counts = build_histogram(ds, (8,))
    ledger = PrivacyLedger(PrivacyBudget(0.5))
    pert = perturb_histogram(rng, counts, 0.5, ledger=ledger)
    assert pert.shape == counts.shape and np.all(pert >= 0)
    assert ledger.effective_spend == pytest.approx(0.5)
    for bad in (0.0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="eps must be positive"):
            perturb_histogram(rng, counts, bad, ledger=ledger)
    assert len(ledger.entries) == 1


def test_perturbed_histogram_noise_scale():
    """Per-cell noise uses the full eps (parallel composition), so the
    pre-clamp deviation should match Laplace(1/eps)."""
    rng = RngStream(1)
    counts = np.full(50_000, 100.0)
    pert = perturb_histogram(rng, counts, 2.0, ledger=_ledger(2.0))
    noise = pert - counts  # far from zero, so BIT never binds
    _, p = stats.kstest(noise, stats.laplace(scale=0.5).cdf)
    assert p > 0.01


def test_all_cells_zero_raised():
    hist = np.zeros(4)
    # with tiny eps the sanitized counts collapse to zero almost surely
    with pytest.raises(AllCellsZero):
        for i in range(200):
            perturb_histogram(RngStream(i), hist, 1e-9, _ledger(1e-9))


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
    hist = build_histogram(ds, (5,))
    probs = smooth_histogram(hist, 1e-6, _ledger(1e-6))
    # lambda ~ 1: almost uniform
    np.testing.assert_allclose(probs, 0.2, rtol=1e-4)
    probs = smooth_histogram(hist, 1e6, _ledger(1e6))
    # lambda ~ 0: almost the empirical histogram
    assert probs[0] == pytest.approx(1.0, rel=1e-3)
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    with pytest.raises(ValueError, match="eps must be positive"):
        smooth_histogram(hist, 0.0, ledger=ledger)
    with pytest.raises(ValueError, match="at least one row"):
        smooth_histogram(np.zeros(5), 1.0, ledger=ledger)
    assert ledger.entries == []


def test_smooth_histogram_mixes_uniform_weight_on_mixed_grid():
    """The uniform share of the smoothed histogram is lambda on a grid with
    categorical and continuous columns alike: every cell gets lambda / K."""
    w = np.full(100, 2, dtype=np.int64)
    ds = TabularDataset([CategoricalColumn("w", (0, 1, 2, 3)),
                         ContinuousColumn("x", 0.0, 1.0)],
                        {"w": w, "x": np.full(100, 0.55)})
    shape = (4, 5)
    assert grid_cells(shape) == 20
    counts = build_histogram(ds, shape)
    probs = smooth_histogram(counts, 100.0, _ledger(100.0))
    lam = smoothing_weight(20, 100, 100.0)
    assert lam == pytest.approx(0.104, abs=1e-3)
    assert probs.sum() == pytest.approx(1.0)
    # only cell (2, 2) holds data; the other 19 get the uniform share only
    empty = np.delete(probs, np.ravel_multi_index((2, 2), shape))
    np.testing.assert_allclose(empty, lam / 20, rtol=1e-12)
    assert 20 * probs.min() == pytest.approx(lam, rel=1e-12)


def test_grid_cell_bound_is_exact():
    assert grid_cells((2 ** 12, 2 ** 12)) == MAX_GRID_CELLS
    with pytest.raises(ValueError, match="16777217 cells"):
        grid_cells((MAX_GRID_CELLS + 1,))
    # 2^32 x 2^32 wraps to 0 in int64; the exact product is refused
    with pytest.raises(ValueError, match=f"{2 ** 64} cells"):
        grid_cells((2 ** 32, 2 ** 32))


def test_sample_from_histogram_respects_support():
    rng = RngStream(5)
    columns = [ContinuousColumn("x", -1.0, 1.0)]
    weights = np.array([0.0, 3.0, 0.0, 0.0])
    draw = sample_from_histogram(rng, columns, (4,), weights, 500)
    assert draw.columns == columns
    assert np.all(draw.column("x") >= -0.5) and np.all(draw.column("x") <= 0.0)


def test_sample_from_histogram_mixed_axes():
    rng = RngStream(6)
    columns = [CategoricalColumn("w", (0, 1, 2)),
               ContinuousColumn("x", 0.0, 1.0)]
    weights = np.ones(6)
    out = sample_from_histogram(rng, columns, (3, 2), weights, 1000)
    assert set(np.unique(out.column("w"))) <= {0, 1, 2}
    assert out.column("w").dtype == np.int64
    assert np.all((out.column("x") >= 0.0) & (out.column("x") <= 1.0))


def _choice_reference(rng, columns, shape, weights, n_out):
    """The rows ``sample_from_histogram`` drew with ``Generator.choice``:
    the cells, then one uniform per continuous column."""
    weights = np.asarray(weights, dtype=float)
    gen = rng.generator
    cells = gen.choice(grid_cells(shape), size=n_out,
                       p=weights / weights.sum())
    out = {}
    for c, size, codes in zip(columns, shape, np.unravel_index(cells, shape),
                              strict=True):
        if isinstance(c, CategoricalColumn):
            out[c.name] = codes.astype(np.int64)
        else:
            out[c.name] = c.lo + (codes + gen.random(n_out)) * (
                (c.hi - c.lo) / size)
    return out


def _assert_draws_like_choice(seed, columns, shape, weights, n_out):
    got_rng, want_rng = RngStream(seed), RngStream(seed)
    got = sample_from_histogram(got_rng, columns, shape, weights, n_out)
    want = _choice_reference(want_rng, columns, shape, weights, n_out)
    for c in columns:
        col = got.column(c.name)
        assert col.dtype == want[c.name].dtype
        assert col.tobytes() == want[c.name].tobytes(), c.name
    # the stream is left where choice left it
    assert got_rng.generator.random() == want_rng.generator.random()


_MIXED = [CategoricalColumn("w", (0, 1, 2)), ContinuousColumn("x", -1.0, 2.0)]


@pytest.mark.parametrize("columns, shape, weights", [
    ([ContinuousColumn("x", 0.0, 1.0)], (1,), [2.5]),
    (_MIXED, (3, 4), [0, 0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 9]),
    (_MIXED, (3, 4), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0]),
    (_MIXED, (3, 4), [1, 2, 0, 0, 0, 6, 7, 0, 9, 10, 11, 12]),
    (_MIXED, (3, 4), np.linspace(0.01, 0.12, 12) / 0.78),
], ids=["one-cell", "first-zero", "last-zero", "interior-zero",
        "probabilities"])
@pytest.mark.parametrize("n_out", [0, 1, 1000])
def test_sample_from_histogram_draws_the_cells_of_choice(columns, shape,
                                                         weights, n_out):
    _assert_draws_like_choice(11, columns, shape, weights, n_out)


def test_sample_from_histogram_draws_choice_cells_on_synth_sim3_grid():
    # dips synth's pert-hist grid over 200k sim3 rows: 449,592 cells
    from dips.harness import SIM3_COLUMNS, simulate_truth_sim3

    shape = (2, 3, 4, 131, 143)
    data = simulate_truth_sim3(RngStream(3), 200_000)
    weights = perturb_histogram(RngStream(4), build_histogram(data, shape),
                                0.2, ledger=_ledger(1.0))
    assert np.count_nonzero(weights == 0) > 0
    _assert_draws_like_choice(5, SIM3_COLUMNS, shape, weights, 200_000)


@pytest.mark.parametrize("shape, weights, message", [
    ((3,), [1.0, np.nan, 1.0], "finite"),
    ((3,), [1.0, np.inf, 1.0], "finite"),
    ((2,), [1e308, 1e308], "overflows"),
    ((3,), [1.0, 1.0], "1-D array of 3"),
    ((2, 3), np.ones((2, 3)), "1-D array of 6"),
    ((3,), [1.0, -1.0, 1.0], "nonnegative"),
], ids=["nan", "inf", "sum-overflows", "wrong-length", "2-d", "negative"])
def test_sample_from_histogram_refuses_malformed_weights(shape, weights,
                                                         message):
    columns = [ContinuousColumn(f"x{k}", 0.0, 1.0) for k in range(len(shape))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            sample_from_histogram(RngStream(1), columns, shape, weights, 10)


def test_sample_from_histogram_refuses_weights_without_mass():
    with pytest.raises(AllCellsZero):
        sample_from_histogram(RngStream(1), [ContinuousColumn("x", 0.0, 1.0)],
                              (3,), np.zeros(3), 10)


def test_laplace_sanitizer_crosstab_roundtrip():
    rng = RngStream(7)
    n = 500
    w = (rng.generator.random(n) < 0.3).astype(np.int64)
    ds = TabularDataset([CategoricalColumn("w", (0, 1))], {"w": w})
    ledger = PrivacyLedger(PrivacyBudget(5.0))
    codes = laplace_sanitizer_crosstab(rng.substream(1), ds, ["w"], 5.0,
                                       ledger=ledger)
    assert codes["w"].shape == (n,)
    assert ledger.effective_spend == pytest.approx(5.0)
    # generous budget: sanitized proportions close to the empirical ones
    assert abs(codes["w"].mean() - w.mean()) < 0.1
