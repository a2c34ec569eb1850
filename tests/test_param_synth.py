import math
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from sim4_reference import (
    clamped_loglik,
    log_factors_binary,
    log_factors_trinomial,
    row_major_lockstep_loglik,
    stepwise_mh_lockstep,
)

import dips.inference
import dips.param_synth
from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import (
    STUDIES,
    sim3_cell_bounds,
    simulate_truth_sim3,
    simulate_truth_sim4,
)
from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from dips.inference import firth_logistic, fit_multinomial_logit
from dips.mechanisms import SensitivitySpec, laplace_mechanism
from dips.param_synth import (
    BernoulliModel,
    MIXTURE_PRIOR_ALPHA,
    GaussianMixtureModel,
    NormalModel,
    SequentialLogisticModel,
    StatGroup,
    _md_alpha,
    _sanitized_cov2,
    bbmr_synthesizer,
    cell_means,
    md_synthesizer,
    modips_release,
)
from dips.randvar import (
    RngStream,
    sample_dirichlet,
    sample_inv_wishart,
    sample_mvnormal,
)


def _group(record):
    """The statistic group a release's sanitizer record belongs to: its
    label is the ledger's ``<method>-set<j>-<group>``."""
    return record.label.rsplit("-", 1)[1]


def _ledger(eps=1.0):
    return PrivacyLedger(PrivacyBudget(eps))


def test_pseudo_count_oracle():
    # [DERIVED] n / (e^eps - 1) at n=100, eps=1
    assert _md_alpha(100, 1.0) == pytest.approx(100 / (math.e - 1), rel=1e-14)
    # huge eps degrades to a harmless positive floor instead of overflowing
    assert 0 < _md_alpha(100, 1e6) < 1e-250
    with pytest.raises(ValueError):
        _md_alpha(100, 0.0)


def test_md_shapes_and_ledger():
    rng = RngStream(7)
    counts = np.array([30, 50, 20])
    ledger = PrivacyLedger(PrivacyBudget(1.5))
    sets = md_synthesizer(rng, counts, eps=1.5, m=3, ledger=ledger)
    assert len(sets) == 3
    for cells in sets:
        assert cells.shape == (100,)
        assert set(np.unique(cells)) <= {0, 1, 2}
    assert ledger.effective_spend_exact() == Fraction(1.5)


def test_md_tiny_eps_flattens_toward_uniform():
    # alpha* dominates the observed counts, so cell proportions are pulled
    # to 1/K regardless of the data
    rng = RngStream(11)
    counts = np.array([990, 5, 5])
    props = []
    for r in range(400):
        (cells,) = md_synthesizer(rng.substream(r), counts, eps=0.001,
                                  ledger=_ledger(0.001))
        c = np.bincount(cells, minlength=3)
        props.append(c / 1000)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - 1 / 3) < 0.02)


def test_md_huge_eps_reproduces_observed_proportions():
    rng = RngStream(13)
    counts = np.array([700, 200, 100])
    props = []
    for r in range(400):
        (cells,) = md_synthesizer(rng.substream(r), counts, eps=1e6,
                                  ledger=_ledger(1e6))
        c = np.bincount(cells, minlength=3)
        props.append(c / 1000)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - counts / 1000) < 0.01)


def test_md_validation():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        md_synthesizer(rng, np.array([0, 0]), eps=1.0, ledger=_ledger())
    with pytest.raises(ValueError):
        md_synthesizer(rng, np.array([1, 2]), eps=-1.0, ledger=_ledger())


def test_bbmr_mean_matches_shrunk_proportion():
    n, n1, eps = 200, 60, 1.0
    alpha = 1 / math.expm1(eps / n)
    p_star = (n1 + alpha) / (n + 2 * alpha)
    rng = RngStream(17)
    means = [bbmr_synthesizer(rng.substream(r), n1, n, eps,
                              _ledger(eps)).mean()
             for r in range(600)]
    se = math.sqrt(p_star * (1 - p_star) / n / 600)
    assert np.mean(means) == pytest.approx(p_star, abs=5 * se)


def test_bbmr_ledger_and_validation():
    ledger = PrivacyLedger(PrivacyBudget(0.5))
    x = bbmr_synthesizer(RngStream(3), 10, 50, 0.5, ledger=ledger)
    assert x.shape == (50,)
    assert set(np.unique(x)) <= {0, 1}
    assert ledger.effective_spend_exact() == Fraction(0.5)
    with pytest.raises(ValueError):
        bbmr_synthesizer(RngStream(3), 60, 50, 0.5, _ledger())
    with pytest.raises(ValueError):
        bbmr_synthesizer(RngStream(3), 10, 50, 0.0, _ledger())


def _binary_data(n1, n):
    x = np.zeros(n, dtype=np.int64)
    x[:n1] = 1
    col = CategoricalColumn("x", (0, 1))
    return TabularDataset([col], {"x": x})


def test_modips_bernoulli_ledger_exact_over_m_sets():
    data = _binary_data(30, 100)
    ledger = PrivacyLedger(PrivacyBudget(0.7))
    rel = modips_release(RngStream(5), data, BernoulliModel(), eps=0.7, m=4,
                         ledger=ledger)
    assert len(rel.sets) == 4
    assert ledger.effective_spend_exact() == Fraction(0.7)
    for j, records in enumerate(rel.sanitized_stats):
        assert [r.label for r in records] == [f"modips-set{j}-n1"]


def test_modips_without_sanitization_charges_nothing():
    data = _binary_data(30, 100)
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    rel = modips_release(RngStream(5), data, BernoulliModel(), eps=1.0, m=2,
                         ledger=ledger, sanitize=False)
    assert ledger.effective_spend_exact() == 0
    assert rel.sanitized_stats == [[], []]


def test_modips_bernoulli_posterior_mean_at_large_eps():
    # with negligible noise the long-run proportion should match the
    # Beta(1/3 + n1, 1/3 + n - n1) posterior-predictive mean
    n1, n = 30, 100
    data = _binary_data(n1, n)
    target = (n1 + 1 / 3) / (n + 2 / 3)
    means = [modips_release(RngStream(1000 + r), data, BernoulliModel(),
                            eps=1e5, ledger=_ledger(1e5)
                            ).sets[0].column("x").mean()
             for r in range(500)]
    assert np.mean(means) == pytest.approx(target, abs=0.012)


def test_normal_model_conjoint_single_group():
    x = np.linspace(-1, 1, 50)
    data = TabularDataset([ContinuousColumn("x", -2.0, 2.0)], {"x": x})
    model = NormalModel(mode="conjoint")
    groups = model.sufficient_statistics(data)
    assert len(groups) == 1
    assert groups[0].label == "mean_var"
    r = 4.0
    assert groups[0].delta_s == pytest.approx((r + r ** 2) / 50)
    indiv = NormalModel().sufficient_statistics(data)
    assert [g.label for g in indiv] == ["mean", "var"]
    assert indiv[0].delta_s == pytest.approx(r / 50)
    assert indiv[1].delta_s == pytest.approx(r ** 2 / 50)
    with pytest.raises(ValueError):
        NormalModel(mode="joint")


def test_normal_model_variance_cap():
    data = TabularDataset([ContinuousColumn("x", 0.0, 1.0)],
                          {"x": np.linspace(0, 1, 10)})
    var = NormalModel().sufficient_statistics(data)[1]
    assert var.label == "var"
    assert var.upper == pytest.approx(0.25 * 10 / 9)


def test_normal_model_degenerate_variance_flagged():
    # the draws read only the sanitized statistics and the public n
    flags = []
    [(mu, sigma2)] = NormalModel().posterior_draw(
        [RngStream(2)], [{"mean": np.array([0.0]), "var": np.array([0.0])}],
        50, flags)
    assert flags == ["PosteriorDegenerate:var"]
    assert sigma2 > 0


def test_modips_normal_recovers_moments_at_large_eps():
    rng = RngStream(31)
    x = np.clip(rng.generator.normal(1.0, 0.5, size=2000), -4, 4)
    data = TabularDataset([ContinuousColumn("x", -4.0, 4.0)], {"x": x})
    rel = modips_release(RngStream(37), data, NormalModel(), eps=1e5,
                         ledger=_ledger(1e5))
    synth = rel.sets[0].column("x")
    assert synth.mean() == pytest.approx(x.mean(), abs=0.06)
    assert synth.var(ddof=1) == pytest.approx(x.var(ddof=1), rel=0.15)


def _mixture_model():
    lower = np.array([[-4.0, -4.0], [-1.0, -1.0]])
    upper = np.array([[1.0, 1.0], [4.0, 4.0]])
    return GaussianMixtureModel(lower, upper)


def _mixture_data(rng, n):
    cells = rng.generator.integers(0, 2, size=n)
    mu = np.where(cells[:, None] == 0, -1.5, 1.5)
    z = np.clip(mu + rng.generator.normal(0, 0.5, size=(n, 2)), -4, 4)
    cols = [CategoricalColumn("w1", (0, 1)),
            ContinuousColumn("z1", -4.0, 4.0),
            ContinuousColumn("z2", -4.0, 4.0)]
    return TabularDataset(cols, {"w1": cells.astype(np.int64),
                                 "z1": z[:, 0], "z2": z[:, 1]},
                          validate=False)


def test_cell_means_match_the_per_cell_loop():
    """The bincount sums give each cell's count and mean, and the pooled
    within-cell scatter, as a loop over per-cell masks does."""
    gen = np.random.default_rng(7)
    cells = gen.integers(0, 6, 500)
    cells[cells == 4] = 5  # cell 4 and cell 6 stay empty
    z = gen.normal(10.0, 3.0, size=(500, 2))
    counts, means, dev = cell_means(cells, z, 7)
    scatter = np.zeros((2, 2))
    for k in range(7):
        rows = z[cells == k]
        assert counts[k] == len(rows)
        mean = rows.mean(axis=0) if len(rows) else np.zeros(2)
        np.testing.assert_allclose(means[k], mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(dev[cells == k], rows - mean,
                                   rtol=0, atol=1e-12)
        scatter += (rows - mean).T @ (rows - mean)
    np.testing.assert_allclose(dev.T @ dev, scatter, rtol=1e-12)


def test_mixture_statistic_groups():
    model = _mixture_model()
    data = _mixture_data(RngStream(41), 300)
    groups = model.sufficient_statistics(data)
    assert [g.label for g in groups] == [
        "counts", "zbar1", "zbar2", "var1", "var2", "cov", "raw_counts"]
    assert [g.label for g in groups if g.delta_s is None] == ["raw_counts"]
    counts = groups[0].value
    assert counts.sum() == 300
    np.testing.assert_array_equal(groups[-1].value, counts)
    # per-cell mean sensitivity is range / realized count (both cells span 5)
    np.testing.assert_allclose(groups[1].delta_s, 5.0 / counts, atol=1e-12)


def test_mixture_cell_bounds_must_match_the_declared_levels():
    data = _mixture_data(RngStream(42), 60)
    cols = [CategoricalColumn("w1", (0, 1, 2))] + data.columns[1:]
    with pytest.raises(ValueError, match="make 3 cells, the cell bounds 2"):
        _mixture_model().sufficient_statistics(
            TabularDataset(cols, data.data))


def test_mixture_release_respects_schema_and_ledger():
    model = _mixture_model()
    data = _mixture_data(RngStream(43), 300)
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    rel = modips_release(RngStream(47), data, model, eps=1.0, m=2,
                         ledger=ledger)
    assert ledger.effective_spend_exact() == Fraction(1)
    for ds in rel.sets:
        assert ds.n == 300
        assert set(np.unique(ds.column("w1"))) <= {0, 1}
        for name in ("z1", "z2"):
            v = ds.column(name)
            assert v.min() >= -4.0 and v.max() <= 4.0


def test_mixture_empty_cell_gets_uniform_location():
    model = _mixture_model()
    # all rows in cell 0; cell 1 is empty
    n = 200
    z = np.clip(RngStream(53).generator.normal(-1.5, 0.3, size=(n, 2)), -4, 4)
    cols = [CategoricalColumn("w1", (0, 1)),
            ContinuousColumn("z1", -4.0, 4.0),
            ContinuousColumn("z2", -4.0, 4.0)]
    data = TabularDataset(cols, {"w1": np.zeros(n, dtype=np.int64),
                                 "z1": z[:, 0], "z2": z[:, 1]})
    groups = model.sufficient_statistics(data)
    assert groups[1].defined is not None
    assert list(groups[1].defined) == [True, False]
    flags = []
    stats = {g.label: np.atleast_1d(np.asarray(g.value, float))
             for g in groups}
    [(pi, mus, sigma)] = model.posterior_draw([RngStream(59)], [stats], n,
                                              flags)
    # empty cell's location drawn inside its declared box
    assert -1.0 <= mus[1, 0] <= 4.0 and -1.0 <= mus[1, 1] <= 4.0
    assert np.all(np.linalg.eigvalsh(sigma) > 0)


def test_mixture_mean_draw_matches_per_cell_normals():
    """With every cell occupied, the one (K, 2) standard-normal call,
    scaled by 1/sqrt(count) through one factor of Sigma, draws what one
    N(zbar_k, Sigma / c_k) call per cell draws on the same stream."""
    model = GaussianMixtureModel(*sim3_cell_bounds())
    data = simulate_truth_sim3(RngStream(111), 1000)
    stats = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
             for g in model.sufficient_statistics(data)}
    counts = stats["raw_counts"]
    assert np.all(counts > 0)
    [(pi, mus, sigma)] = model.posterior_draw([RngStream(113)], [stats],
                                              data.n, [])
    rng = RngStream(113)
    np.testing.assert_array_equal(
        sample_dirichlet(rng, MIXTURE_PRIOR_ALPHA + stats["counts"]), pi)
    s_star = _sanitized_cov2(stats["var1"], stats["var2"], stats["cov"], [])
    np.testing.assert_array_equal(
        sample_inv_wishart(rng, data.n - model.k, data.n * s_star), sigma)
    expected = [sample_mvnormal(rng, [stats["zbar1"][k], stats["zbar2"][k]],
                                sigma / counts[k]) for k in range(model.k)]
    np.testing.assert_allclose(mus, expected, rtol=0, atol=1e-12)


def test_mixture_recovers_structure_at_large_eps():
    model = _mixture_model()
    data = _mixture_data(RngStream(61), 1500)
    rel = modips_release(RngStream(67), data, model, eps=1e5,
                         ledger=_ledger(1e5))
    synth = rel.sets[0]
    for cell, mu in ((0, -1.5), (1, 1.5)):
        mask = synth.column("w1") == cell
        assert mask.sum() > 500
        assert synth.column("z1")[mask].mean() == pytest.approx(mu, abs=0.15)


def test_sanitize_truncate_per_entry_bounds():
    value = np.linspace(0.0, 20.0, 40)
    defined = np.ones(40, dtype=bool)
    defined[::7] = False
    value[::7] = 99.0  # undefined entries hold a placeholder out of bounds
    group = StatGroup("g", value, np.linspace(0.5, 2.0, 40),
                      value - 1.0, np.minimum(value + 1.0, 20.0), defined)
    group.lower[::7] = 0.0

    def sanitize(postprocess):
        return laplace_mechanism(
            RngStream(71), group.value, SensitivitySpec(group.delta_s), 1.0,
            group.label, lower=group.lower, upper=group.upper,
            defined=group.defined, postprocess=postprocess)
    clipped = sanitize("BIT").sanitized
    record = sanitize("truncate")
    truncated = record.sanitized
    inside = defined & (group.lower < clipped) & (clipped < group.upper)
    outside = defined & ~inside
    assert inside.any() and outside.any()
    # the first Laplace draw stands wherever it already lay in bounds
    np.testing.assert_array_equal(truncated[inside], clipped[inside])
    np.testing.assert_array_equal(truncated[~defined],
                                  group.upper[~defined])
    assert np.all((group.lower <= truncated) & (truncated <= group.upper))
    assert record.postprocess.startswith("truncate")


def test_modips_records_carry_per_entry_sensitivity():
    model = _mixture_model()
    data = _mixture_data(RngStream(61), 301)
    groups = [g for g in model.sufficient_statistics(data)
              if g.delta_s is not None]
    rel = modips_release(RngStream(67), data, model, eps=1.0, m=2,
                         ledger=_ledger())
    for j, records in enumerate(rel.sanitized_stats):
        assert [r.label for r in records] == [f"modips-set{j}-{g.label}"
                                              for g in groups]
        for group, record in zip(groups, records):
            np.testing.assert_array_equal(record.sensitivity.delta_s,
                                          group.delta_s)
            np.testing.assert_array_equal(
                record.scale, np.asarray(group.delta_s) / record.eps_spent)
    # the two cells hold different counts, so their mean sensitivities differ
    zbar1 = groups[1].delta_s
    assert groups[1].label == "zbar1" and zbar1[0] != zbar1[1]


def _logistic_columns(bound):
    return [CategoricalColumn("w1", (0, 1)), CategoricalColumn("w2", (0, 1)),
            CategoricalColumn("w3", (0, 1, 2)),
            ContinuousColumn("z1", -bound, bound),
            ContinuousColumn("z2", -bound, bound)]


def test_logistic_predictive_w3_follows_softmax_when_exp_overflows():
    n = 20_000
    model = SequentialLogisticModel()
    beta3 = np.zeros((n, 5))
    beta4 = np.zeros((n, 5))
    beta3[:, 0], beta4[:, 0] = 800.0, 799.0  # exp(800) overflows a float
    params = (np.zeros(2), np.eye(2), np.zeros((n, 3)), np.zeros((n, 4)),
              beta3, beta4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        synth = model.predictive_draw(RngStream(73), params,
                                      _logistic_columns(3.0), n)
    observed = np.bincount(synth.column("w3"), minlength=3) / n
    logits = np.array([0.0, 800.0, 799.0])
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    se = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(observed - expected) <= 4 * se + 1e-12)


def _counting_quadratic():
    """A cheap log-likelihood with its mode at (1, -1, 0.5) that counts its
    calls."""
    calls = [0]
    mode = np.array([1.0, -1.0, 0.5])

    def loglik(beta):
        calls[0] += 1
        return -0.5 * float(np.sum((beta - mode) ** 2))
    return loglik, calls


def _proposals(dims):
    """Starts at 0 and unit-information proposal factors, one per target."""
    return ([np.zeros(d) for d in dims],
            [np.eye(d) * (2.38 / math.sqrt(d)) for d in dims])


def _mh_one(rng, loglik, dim, n_draws):
    """The lockstep sampler on one target with a scalar log-likelihood."""
    return SequentialLogisticModel._mh_lockstep(
        rng, lambda b: [loglik(b)], [dim], n_draws, *_proposals([dim]))[0]


def test_mh_sample_returns_prefix_of_full_run_and_stops_early(mh_settings):
    burnin, thin, cap = 250, 4, 50
    mh_settings(burnin=burnin, thin=thin, max_draws=cap)
    ll, calls = _counting_quadratic()
    # one call at the start, then one per step up to the last kept draw
    full = _mh_one(RngStream(81), ll, 3, cap)
    assert full.shape == (cap, 3)
    assert calls[0] == 1 + burnin + (cap - 1) * thin + 1
    for k in (1, 25, 49, 237):
        calls[0] = 0
        got = _mh_one(RngStream(81), ll, 3, k)
        # past the cap the kept draws are tiled, at the cap's cost
        np.testing.assert_array_equal(got, np.tile(full, (5, 1))[:k])
        assert calls[0] == 1 + burnin + (min(k, cap) - 1) * thin + 1


def test_mh_sample_default_settings_likelihood_calls_at_n_200():
    # one call at the start, 200 burn-in steps, then n draws thinned by 5:
    # 1,197 likelihood calls at n = 200; past the 1,000-draw cap, 5,197
    for n_draws, want in ((200, 1197), (1234, 5197)):
        ll, calls = _counting_quadratic()
        draws = _mh_one(RngStream(82), ll, 3, n_draws)
        assert draws.shape == (n_draws, 3)
        assert calls[0] == 1 + 200 + (min(n_draws, 1000) - 1) * 5 + 1 == want


def test_mh_sample_zero_draws_is_empty():
    ll, calls = _counting_quadratic()
    draws = _mh_one(RngStream(83), ll, 3, 0)
    assert draws.shape == (0, 3)
    assert calls[0] == 0


# three quadratic targets of different sizes for the lockstep sampler
LOCKSTEP_MODES = [np.array([1.0, -1.0, 0.5]), np.linspace(-1.0, 1.0, 4),
                  np.linspace(2.0, -2.0, 10)]


def _lockstep_draws(n_draws, modes, widen=None):
    """Sample quadratic targets with these modes in lockstep, from 0 with
    unit-information proposals, target ``widen`` starting at 0.3 with
    twice that factor; return each target's draws and the number of
    batched calls."""
    calls = [0]
    dims = [len(mode) for mode in modes]
    starts, factors = _proposals(dims)
    if widen is not None:
        starts[widen] = starts[widen] + 0.3
        factors[widen] = 2 * factors[widen]

    def batched(state):
        # the targets' states lie end to end in one vector
        calls[0] += 1
        betas = np.split(state, np.cumsum(dims)[:-1])
        return np.array([-0.5 * np.sum((beta - mode) ** 2)
                         for beta, mode in zip(betas, modes)])
    draws = SequentialLogisticModel._mh_lockstep(
        RngStream(85), batched, dims, n_draws, starts, factors)
    assert [d.shape for d in draws] == [(n_draws, dim) for dim in dims]
    return draws, calls[0]


@pytest.mark.parametrize("k", [1, 50, 51, 237])
def test_mh_lockstep_targets_ignore_each_other(k, mh_settings):
    burnin, thin, cap = 250, 4, 50
    mh_settings(burnin=burnin, thin=thin, max_draws=cap)
    draws, calls = _lockstep_draws(k, LOCKSTEP_MODES)
    # one batched call starts the chain, one per step up to its last kept
    # draw; past the cap the draws are tiled
    assert calls == 1 + burnin + (min(k, cap) - 1) * thin + 1
    # each step draws fixed sizes, so moving one target's mode, or its
    # start and proposal factor, leaves every other target's draws as they
    # were, byte for byte
    for moved in range(len(LOCKSTEP_MODES)):
        modes = [mode + 0.5 * (t == moved)
                 for t, mode in enumerate(LOCKSTEP_MODES)]
        for again, _ in (_lockstep_draws(k, modes),
                         _lockstep_draws(k, LOCKSTEP_MODES, moved)):
            for t, (a, b) in enumerate(zip(again, draws)):
                same = a.tobytes() == b.tobytes()
                assert same == (t != moved), (moved, t)


def test_mh_lockstep_default_settings_one_call_per_step_at_n_200():
    # the three targets share each step's call: 1,197 batched calls, where
    # sampling them one by one makes 3 x 1,197 scalar calls
    _, calls = _lockstep_draws(200, LOCKSTEP_MODES)
    assert calls == 1 + 200 + 199 * 5 + 1 == 1197


def test_lockstep_loglik_matches_scalar_likelihoods():
    data = simulate_truth_sim4(RngStream(86), 200)
    n = data.n
    w1 = data.column("w1").astype(float)
    w2 = data.column("w2").astype(float)
    w3 = data.column("w3").astype(np.int64)
    x3 = np.column_stack([np.ones(n), data.column("z1"), data.column("z2"),
                          w1, w2])
    # up to four sets, each with its own three tempering weights
    all_weights = np.array([[0.7, 1.3, 0.05], [1.0, 1.0, 1.0],
                            [0.055, 8.4, 0.051], [2.5, 0.3, 1.7]])
    model = SequentialLogisticModel
    gen = np.random.default_rng(87)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, trials in ((1, 30), (4, 90)):
            weights = all_weights[:m]
            loglik = model._lockstep_loglik(x3, w1, w2, w3, weights)
            for trial in range(trials):
                coefs, want = [], []
                for set_weights in weights:
                    b1, b2, b34 = (gen.normal(0.0, 2.0, d)
                                   for d in (3, 4, 10))
                    # intercepts of +-800 saturate both ends of the clamp
                    for beta, slot in ((b1, 0), (b2, 0), (b34, 0),
                                       (b34, 5)):
                        if gen.random() < 0.4:
                            beta[slot] = gen.choice([800.0, -800.0])
                    coefs += [b1, b2, b34]
                    want += [
                        set_weights[0] * clamped_loglik(
                            log_factors_binary(x3[:, :3], w1, b1)),
                        set_weights[1] * clamped_loglik(
                            log_factors_binary(x3[:, :4], w2, b2)),
                        set_weights[2] * clamped_loglik(
                            log_factors_trinomial(x3, w3, b34[:5], b34[5:])),
                    ]
                got = loglik(np.concatenate(coefs))
                assert len(got) == 3 * m
                np.testing.assert_allclose(got, want, rtol=1e-12)


def _sim4_rows(seed, n):
    """The rows a sim4 set's likelihood reads: x3, w1, w2 and w3."""
    data = simulate_truth_sim4(RngStream(seed), n)
    w1 = data.column("w1").astype(float)
    w2 = data.column("w2").astype(float)
    x3 = np.column_stack([np.ones(n), data.column("z1"), data.column("z2"),
                          w1, w2])
    return x3, w1, w2, data.column("w3").astype(np.int64)


def _saturating_coefs(gen, m):
    """m sets' coefficients, some intercepts at +-800 so that rows sit on
    either end of the clamp."""
    coef = gen.normal(0.0, 2.0, 17 * m)
    for j in range(m):
        for slot in (0, 3, 7, 12):
            if gen.random() < 0.3:
                coef[17 * j + slot] = gen.choice([800.0, -800.0])
    return coef


def test_lockstep_loglik_equals_row_major_reference():
    """The block-major likelihood gives the bytes of the row-major one
    it replaced, for one set and for several, on coefficients that
    saturate both ends of the clamp."""
    rows = _sim4_rows(86, 200)
    gen = np.random.default_rng(90)
    for m, trials in ((1, 800), (3, 600), (5, 600)):
        weights = gen.uniform(0.01, 9.0, (m, 3))
        new = SequentialLogisticModel._lockstep_loglik(*rows, weights)
        old = row_major_lockstep_loglik(*rows, weights)
        for _ in range(trials):
            coef = _saturating_coefs(gen, m)
            assert new(coef).tobytes() == old(coef).tobytes()


def test_lockstep_loglik_returns_a_new_array():
    """The sufficient statistics keep one call's result and the MH keeps
    a step's candidates until it accepts them, so a call must not write
    into the array an earlier call returned."""
    rows = _sim4_rows(86, 200)
    loglik = SequentialLogisticModel._lockstep_loglik(*rows, np.ones((2, 3)))
    gen = np.random.default_rng(91)
    first = loglik(gen.normal(0.0, 1.0, 34))
    kept = first.copy()
    second = loglik(gen.normal(0.0, 1.0, 34))
    assert second is not first
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()


@pytest.mark.parametrize("thin", [1, 4, 5])
@pytest.mark.parametrize("burnin", [0, 60, 200, 250])
def test_mh_lockstep_equals_stepwise_reference(burnin, thin, mh_settings):
    """The windowed sampler on the block-major likelihood draws the bytes
    of the per-step sampler on the row-major one, run as one chain whose
    quota is the cap.  A burn-in of 250 ends halfway through a window,
    which must not tune; the draws asked for end inside the chain, at the
    cap, and past it, where they tile."""
    cap = 100 // thin
    mh_settings(burnin=burnin, thin=thin, max_draws=cap)
    reference = SimpleNamespace(mh_chains=1, mh_iters=burnin + cap * thin,
                                mh_burnin=burnin, mh_thin=thin)
    rows = _sim4_rows(92, 80)
    gen = np.random.default_rng(93 + burnin + thin)
    for m in (1, 3, 5):
        dims = (3, 4, 10) * m
        weights = gen.uniform(0.01, 9.0, (m, 3))
        starts = np.split(_saturating_coefs(gen, m), np.cumsum(dims)[:-1])
        factors = [np.linalg.cholesky(np.cov(gen.normal(size=(d, 3 * d))))
                   * gen.uniform(0.05, 0.5) for d in dims]
        for n_draws in (cap // 2 + 1, cap, cap + 3, 2 * cap + 7):
            _assert_equals_stepwise_reference(
                reference, rows, weights, dims, n_draws, starts, factors)


def _assert_equals_stepwise_reference(reference, rows, weights, dims,
                                      n_draws, starts, factors):
    model = SequentialLogisticModel
    new = model._mh_lockstep(
        RngStream(94), model._lockstep_loglik(*rows, weights), dims,
        n_draws, starts, factors)
    old = stepwise_mh_lockstep(
        reference, RngStream(94), row_major_lockstep_loglik(*rows, weights),
        dims, n_draws, starts, factors)
    assert len(new) == len(old) == len(dims)
    for a, b, d in zip(new, old, dims):
        assert a.shape == b.shape == (n_draws, d)
        assert a.tobytes() == b.tobytes(), (len(weights), n_draws)


def test_mh_lockstep_default_settings_equal_stepwise_reference():
    """Under the module's burn-in, thinning and cap, one set's draws past
    the 1,000-draw cap are the reference's, run as one chain with that
    quota, byte for byte."""
    reference = SimpleNamespace(mh_chains=1, mh_iters=200 + 1000 * 5,
                                mh_burnin=200, mh_thin=5)
    gen = np.random.default_rng(95)
    dims = (3, 4, 10)
    starts = np.split(_saturating_coefs(gen, 1), np.cumsum(dims)[:-1])
    factors = [np.linalg.cholesky(np.cov(gen.normal(size=(d, 3 * d))))
               * gen.uniform(0.05, 0.5) for d in dims]
    _assert_equals_stepwise_reference(
        reference, _sim4_rows(92, 80), gen.uniform(0.01, 9.0, (1, 3)), dims,
        1234, starts, factors)


# a short chain for the plugin cases' releases
SHORT_MH = dict(burnin=40, thin=2, max_draws=40)


def _plugin_cases(mh_settings):
    mh_settings(**SHORT_MH)
    gen = RngStream(88).generator
    normal = TabularDataset([ContinuousColumn("x", -5.0, 5.0)],
                            {"x": np.clip(gen.normal(0.0, 1.0, 80), -5, 5)})
    return {
        "bernoulli": (BernoulliModel(), _binary_data(30, 100)),
        "normal": (NormalModel(), normal),
        "mixture": (_mixture_model(), _mixture_data(RngStream(89), 120)),
        "logistic": (SequentialLogisticModel(),
                     simulate_truth_sim4(RngStream(90), 120)),
    }


@pytest.mark.parametrize("plugin", ["bernoulli", "normal", "mixture",
                                    "logistic"])
def test_modips_release_computes_statistics_once(plugin, mh_settings):
    model, data = _plugin_cases(mh_settings)[plugin]
    labels = [g.label for g in model.sufficient_statistics(data)
              if g.delta_s is not None]
    calls = []
    compute = model.sufficient_statistics

    def counting(d):
        calls.append(d)
        return compute(d)
    model.sufficient_statistics = counting
    eps, m = 0.9, 3
    ledger = PrivacyLedger(PrivacyBudget(eps))
    rel = modips_release(RngStream(91), data, model, eps, m=m,
                         ledger=ledger, method=f"modips-{plugin}")
    assert calls == [data]
    assert len(rel.sets) == m
    # set-major ledger entries in group order, each its exact share
    assert [(e.label, e.eps) for e in ledger.entries] == [
        (f"modips-{plugin}-set{j}-{label}", Fraction(eps) / (m * len(labels)))
        for j in range(m) for label in labels]
    assert ledger.spend == ledger.effective_spend_exact() == Fraction(eps)


# the attributes a release may write: none, since every raw-data read of
# the draws is a declared unsanitized group
RELEASE_STATE = {"bernoulli": set(), "normal": set(),
                 "mixture": set(), "logistic": set()}


@pytest.mark.parametrize("plugin", list(RELEASE_STATE))
def test_release_writes_only_the_listed_model_state(plugin, mh_settings):
    model, data = _plugin_cases(mh_settings)[plugin]
    before = dict(vars(model))
    modips_release(RngStream(92), data, model, 1.0, m=1, ledger=_ledger())
    after = vars(model)
    assert after.keys() == before.keys()
    changed = {k for k in after if after[k] is not before[k]}
    assert changed == RELEASE_STATE[plugin]


# which groups each plugin's posterior reads raw
UNSANITIZED = {"bernoulli": [], "normal": [], "mixture": ["raw_counts"],
               "logistic": ["x3", "w1", "w2", "w3", "log_raw", "firth"]}


@pytest.mark.parametrize("plugin", list(UNSANITIZED))
def test_draws_from_the_recorded_stats_reproduce_each_set(plugin,
                                                          mh_settings):
    """Each set is a function of its sanitize records, the declared
    unsanitized groups, n and the columns: a fresh model fed those on the
    release's substreams draws the same bytes."""
    model, data = _plugin_cases(mh_settings)[plugin]
    rel = modips_release(RngStream(93), data, model, 1.0, m=2,
                         ledger=_ledger())
    assert rel.flags[:len(UNSANITIZED[plugin])] == [
        f"unsanitized:{label}" for label in UNSANITIZED[plugin]]
    # the raw groups come from another instance: the fresh model sees
    # only the draws' inputs
    source, fresh = (_plugin_cases(mh_settings)[plugin][0] for _ in range(2))
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in source.sufficient_statistics(data) if g.delta_s is None}
    assert list(raw) == UNSANITIZED[plugin]
    subs = [RngStream(93).substream(j) for j in range(len(rel.sets))]
    stats_sets = [{**raw, **{_group(r): r.sanitized for r in records}}
                  for records in rel.sanitized_stats]
    params = fresh.posterior_draw([sub.substream(10_000) for sub in subs],
                                  stats_sets, data.n, [])
    for sub, p, synth in zip(subs, params, rel.sets, strict=True):
        again = fresh.predictive_draw(sub.substream(20_000), p,
                                      data.columns, data.n)
        assert again.columns == synth.columns
        for col in data.columns:
            assert (again.column(col.name).tobytes()
                    == synth.column(col.name).tobytes())


def _param_bytes(params):
    """A posterior draw's parameters, entry by entry, as raw bytes."""
    if isinstance(params, tuple):
        return [b for p in params for b in _param_bytes(p)]
    return [np.asarray(params).tobytes()]


# the group set 1 gets as a non-positive variance, so its posterior flags
# the release
DEGENERATE = {"bernoulli": None, "normal": "var", "mixture": "var1",
              "logistic": "s11"}


def _three_sets(plugin, mh_settings):
    """A plugin and the three sets' statistics of one of its releases."""
    model, data = _plugin_cases(mh_settings)[plugin]
    rel = modips_release(RngStream(103), data, model, 1.0, m=3,
                         ledger=_ledger())
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data) if g.delta_s is None}
    stats_sets = [{**raw, **{_group(r): r.sanitized for r in records}}
                  for records in rel.sanitized_stats]
    return model, data, stats_sets


@pytest.mark.parametrize("plugin", ["bernoulli", "normal", "mixture"])
def test_posterior_over_m_sets_equals_one_set_calls(plugin, mh_settings):
    """Set j's parameters depend only on its stream and statistics: one
    call over three sets draws the same bytes, and flags in the same
    order, as three one-set calls."""
    model, data, stats_sets = _three_sets(plugin, mh_settings)
    if DEGENERATE[plugin]:
        stats_sets[1][DEGENERATE[plugin]] = np.array([-1.0])

    def streams():
        return [RngStream(104).substream(j, 10_000) for j in range(3)]
    flags = []
    batched = model.posterior_draw(streams(), stats_sets, data.n, flags)
    assert len(batched) == 3
    one_flags = []
    for rng, stats, params in zip(streams(), stats_sets, batched):
        [alone] = model.posterior_draw([rng], [stats], data.n, one_flags)
        assert _param_bytes(alone) == _param_bytes(params)
    # set 1 flags its variance; a set with noisy variances may flag too
    assert flags == one_flags
    assert ("PosteriorDegenerate:var" in flags) == bool(DEGENERATE[plugin])


def test_logistic_posterior_sets_ignore_each_others_statistics(mh_settings):
    """The MH draws every set's coefficients on one stream with fixed
    sizes per step: with the same streams and m, changing set 1's
    statistics leaves the other sets' parameters byte-identical."""
    model, data, stats_sets = _three_sets("logistic", mh_settings)

    def streams():
        return [RngStream(104).substream(j, 10_000) for j in range(3)]
    base = model.posterior_draw(streams(), stats_sets, data.n, [])
    again = model.posterior_draw(streams(), stats_sets, data.n, [])
    assert list(map(_param_bytes, again)) == list(map(_param_bytes, base))
    # set 1's variance goes degenerate and its tempering weights go to 1/2
    stats_sets[1]["s11"] = np.array([-1.0])
    for i, log_raw in enumerate(stats_sets[1]["log_raw"]):
        stats_sets[1][f"likprod{i + 1}"] = np.array([math.exp(log_raw / 2)])
    assert [model._temper_weight(stats_sets[1], i)
            for i in range(3)] == pytest.approx([0.5] * 3)
    flags = []
    moved = model.posterior_draw(streams(), stats_sets, data.n, flags)
    assert "PosteriorDegenerate:var" in flags
    for j in (0, 2):
        assert _param_bytes(moved[j]) == _param_bytes(base[j])
    for new, old in zip(moved[1], base[1]):
        assert new.tobytes() != old.tobytes()


def test_logistic_release_runs_one_mh_for_all_sets(monkeypatch):
    """At n = 200 and m = 5 under the default chains, one release builds
    one likelihood for its MH and calls it once per step for all fifteen
    regressions: 1,197 calls, where one MH per set makes 5 x 1,197.  The
    raw log-products of the sufficient statistics are one call of a
    one-set likelihood."""
    calls = []  # (sets, calls) of each likelihood built
    make = SequentialLogisticModel._lockstep_loglik

    def counting_make(x3, w1, w2, w3, weights):
        loglik = make(x3, w1, w2, w3, weights)
        count = [len(weights), 0]
        calls.append(count)

        def counted(coef):
            count[1] += 1
            return loglik(coef)
        return counted
    monkeypatch.setattr(SequentialLogisticModel, "_lockstep_loglik",
                        staticmethod(counting_make))
    data = simulate_truth_sim4(RngStream(105), 200)
    rel = modips_release(RngStream(106), data, SequentialLogisticModel(),
                         1.0, m=5, ledger=_ledger())
    assert len(rel.sets) == 5
    assert calls == [[1, 1], [5, 1 + 200 + 199 * 5 + 1]]
    assert calls[1][1] == 1197


@pytest.mark.parametrize("method", ["modips-logistic", "ms"])
def test_logistic_release_fits_each_regression_once(method, monkeypatch):
    """A sim4 release at n = 200 makes the three regressions' Firth fits
    once, in the sufficient statistics: the MH takes its starts and
    proposal factors from the ``firth`` group."""
    fit = dips.inference._firth_fit
    levels = []

    def counting(design, codes, k):
        levels.append(k)
        return fit(design, codes, k)
    monkeypatch.setattr(dips.inference, "_firth_fit", counting)
    data = simulate_truth_sim4(RngStream(105), 200)
    sets = STUDIES["sim4"].methods[method](RngStream(106), data, 1.0, 5,
                                           _ledger(), "BIT")
    assert len(sets) == 5
    assert levels == [1, 1, 2]


def _sim4_release(sanitize):
    """A seeded sim4 release at n = 200, eps = 1, m = 5 and its sets'
    statistics as ``posterior_draw`` reads them."""
    data = simulate_truth_sim4(RngStream(105), 200)
    model = SequentialLogisticModel()
    rel = modips_release(RngStream(106), data, model, 1.0, m=5,
                         ledger=_ledger(), sanitize=sanitize)
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data)}
    return rel, [{**raw, **{_group(r): r.sanitized for r in records}}
                 for records in rel.sanitized_stats]


@pytest.mark.parametrize("sanitize", [True, False])
def test_logistic_mh_acceptance_after_burn_in(sanitize, mh_settings):
    """Every target whose tempered posterior is proper accepts 15-50% of
    its proposals after burn-in.  With ``MH_THIN = 1`` the kept draws are
    consecutive states, so a target accepted a step where its draw
    changed.  A weight far below 1 (0.012-0.027 in a release's noisy
    sanitized products) leaves the clamped likelihood's flat tails
    unbounded mass: there a chain drifts, accepting 50-80% of its steps
    with coefficients that grow with the burn-in, so no rate is right."""
    _, stats_sets = _sim4_release(sanitize)
    model = SequentialLogisticModel()
    mh_settings(thin=1)
    params = model.posterior_draw(
        [RngStream(107).substream(j) for j in range(5)], stats_sets, 1000,
        [])
    rates = [np.mean(np.any(np.diff(beta, axis=0) != 0, axis=1))
             for p in params for beta in (p[2], p[3], np.hstack(p[4:]))]
    weights = [model._temper_weight(stats, i)
               for stats in stats_sets for i in range(3)]
    proper = [rate for rate, w in zip(rates, weights) if w > 0.5]
    assert len(proper) == (8 if sanitize else 15)
    assert all(0.15 <= rate <= 0.5 for rate in proper), rates


@pytest.mark.parametrize("sanitize", [True, False])
def test_logistic_release_flags(sanitize):
    # the raw reads the model declares, then one PosteriorDegenerate:var
    # per set whose sanitized covariance was floored; the MH adds none
    rel, _ = _sim4_release(sanitize)
    reads = [f"unsanitized:{label}"
             for label in ("x3", "w1", "w2", "w3", "log_raw", "firth")]
    floored = ["PosteriorDegenerate:var"] * (4 if sanitize else 0)
    assert rel.flags == reads + floored


def test_logistic_posterior_refuses_sets_with_different_rows(mh_settings):
    model, data = _plugin_cases(mh_settings)["logistic"]
    rel = modips_release(RngStream(107), data, model, 1.0, m=2,
                         ledger=_ledger())
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data) if g.delta_s is None}
    # set 1 gets other outcome rows, or other Firth fits of the rows
    for label, change in (("w1", lambda w1: 1.0 - w1),
                          ("firth", lambda firth: firth + 0.5)):
        stats_sets = [{**raw, **{_group(r): r.sanitized for r in records}}
                      for records in rel.sanitized_stats]
        stats_sets[1][label] = change(stats_sets[1][label])
        with pytest.raises(ValueError, match="share their unsanitized rows"):
            model.posterior_draw([RngStream(108), RngStream(109)],
                                 stats_sets, data.n, [])


@pytest.mark.parametrize("plugin", list(UNSANITIZED))
def test_traced_release_equals_untraced(plugin, monkeypatch, mh_settings):
    """The benchmark's tracer wraps every plugin's three methods and reads
    each statistic group; a traced release draws the same bytes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer

    def release():
        model, data = _plugin_cases(mh_settings)[plugin]
        return dips.param_synth.modips_release(
            RngStream(98), data, model, 1.0, m=2, ledger=_ledger()).sets
    untraced = release()
    tracer = Tracer()
    try:
        tracer.install()
        traced = release()
    finally:
        tracer.uninstall()
    calls = {name: v["calls"] for name, v in
             tracer.summary()["by_name"].items()}
    # one posterior call draws both sets' parameters
    assert calls["sufficient_statistics"] == calls["posterior_draw"] == 1
    assert calls["predictive_draw"] == 2
    assert tracer.entries_sanitized > 0
    for a, b in zip(traced, untraced, strict=True):
        for col in b.columns:
            assert a.column(col.name).tobytes() == b.column(col.name).tobytes()


def _normal_data(seed, name, lo, hi, n):
    x = np.clip(RngStream(seed).generator.normal((lo + hi) / 2, 1.0, n),
                lo, hi)
    return TabularDataset([ContinuousColumn(name, lo, hi)], {name: x})


@pytest.mark.parametrize("make, first, second", [
    (BernoulliModel, _binary_data(30, 100),
     TabularDataset([CategoricalColumn("b", (0, 1))],
                    {"b": np.arange(120) % 3 // 2})),
    (NormalModel, _normal_data(94, "x", -5.0, 5.0, 80),
     _normal_data(95, "y", 0.0, 10.0, 60)),
    (_mixture_model, _mixture_data(RngStream(99), 150),
     _mixture_data(RngStream(100), 90)),
    (SequentialLogisticModel,
     simulate_truth_sim4(RngStream(101), 120),
     simulate_truth_sim4(RngStream(102), 90)),
], ids=["bernoulli", "normal", "mixture", "logistic"])
def test_stateless_model_reused_equals_fresh(make, first, second,
                                             mh_settings):
    mh_settings(**SHORT_MH)
    model = make()
    before = dict(vars(model))
    modips_release(RngStream(96), first, model, 1.0, m=2, ledger=_ledger())
    assert vars(model) == before
    # a second dataset with another column name and declared domain
    reused = modips_release(RngStream(97), second, model, 1.0, m=2,
                            ledger=_ledger()).sets
    fresh = modips_release(RngStream(97), second, make(), 1.0, m=2,
                           ledger=_ledger()).sets
    assert len(reused) == len(fresh) == 2
    for a, b in zip(reused, fresh):
        assert a.columns == b.columns == second.columns
        for col in second.columns:
            assert a.column(col.name).tobytes() == b.column(col.name).tobytes()


def _logistic_release(seed, eps, sanitize):
    """modips_release of a seeded sim4 set (n = 200) under the default MH
    chains; records each set's tempering weights and posterior draw."""
    data = simulate_truth_sim4(RngStream(seed), 200)
    model = SequentialLogisticModel()
    seen = []
    draw = model.posterior_draw

    def recording_draw(rngs, stats_sets, n, flags):
        params = draw(rngs, stats_sets, n, flags)
        for stats, p in zip(stats_sets, params, strict=True):
            seen.append(([model._temper_weight(stats, i) for i in range(3)],
                         p))
        return params
    model.posterior_draw = recording_draw
    ledger = PrivacyLedger(PrivacyBudget(eps))
    rel = modips_release(RngStream(seed + 1), data, model, eps, m=2,
                         ledger=ledger, sanitize=sanitize,
                         method="modips-logistic")
    return data, model, rel, ledger, seen


def _firth_reference(data):
    """The Firth estimates b1, b2, b3 and b4 of the three regressions."""
    n = data.n
    w1 = data.column("w1").astype(float)
    w2 = data.column("w2").astype(float)
    x1 = np.column_stack([np.ones(n), data.column("z1"), data.column("z2")])
    x2 = np.column_stack([x1, w1])
    fits = [firth_logistic(x1, w1), firth_logistic(x2, w2),
            *fit_multinomial_logit(np.column_stack([x2, w2]),
                                   data.column("w3"))]
    return [np.array([e.estimate for e in fit]) for fit in fits]


def test_logistic_release_round_trip():
    eps = math.exp(8)
    data, model, rel, ledger, seen = _logistic_release(83, eps, True)
    assert ledger.effective_spend_exact() == Fraction(eps)
    assert len(ledger.entries) == 2 * 8
    assert len(rel.sets) == len(seen) == 2
    for ds in rel.sets:
        assert ds.n == 200
        assert ds.columns == data.columns
        for col in ds.columns:
            values = ds.column(col.name)
            if isinstance(col, CategoricalColumn):
                assert set(np.unique(values)) <= set(range(len(col.levels)))
            else:
                assert np.all((col.lo <= values) & (values <= col.hi))
        # the covariate mean is sanitized with scale ~1e-4 at this eps
        for name in ("z1", "z2"):
            assert abs(ds.column(name).mean() - data.column(name).mean()) < 0.3
    # without noise each tempering exponent is exactly 1 and the posterior
    # centres on the Firth reference coefficients
    _, model, rel, _, seen = _logistic_release(83, eps, False)
    ref = _firth_reference(data)
    for weights, params in seen:
        assert weights == [1.0, 1.0, 1.0]
        for draws, centre in zip(params[2:], ref):
            spread = draws.std(axis=0)
            assert np.all(np.abs(draws.mean(axis=0) - centre) < 2 * spread)


@pytest.mark.parametrize("n", [200, 1000, 2000])
def test_logistic_ms_tempering_weights_are_one(n):
    """The non-private ``ms`` release passes the raw likelihood products,
    so every tempering weight is exactly 1, also where the raw product
    lies below ``PRODUCT_FLOOR`` (from n of about 1,000) or underflows
    to 0."""
    data = simulate_truth_sim4(RngStream(3), n)
    model = SequentialLogisticModel()
    weights = []
    draw = model.posterior_draw

    def recording_draw(rngs, stats_sets, n, flags):
        weights.extend(model._temper_weight(stats, i)
                       for stats in stats_sets for i in range(3))
        return draw(rngs, stats_sets, n, flags)
    model.posterior_draw = recording_draw
    modips_release(RngStream(4), data, model, 1.0, m=2, ledger=_ledger(),
                   sanitize=False)
    assert weights == [1.0] * 6


@pytest.mark.parametrize("intercept", [800.0, -800.0])
def test_logistic_predictive_binary_draws_when_exp_overflows(intercept):
    n = 1000
    model = SequentialLogisticModel()
    beta1 = np.zeros((n, 3))
    beta2 = np.zeros((n, 4))
    beta1[:, 0], beta2[:, 0] = intercept, -intercept
    params = (np.zeros(2), np.eye(2), beta1, beta2, np.zeros((n, 5)),
              np.zeros((n, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synth = model.predictive_draw(RngStream(84), params,
                                      _logistic_columns(4.0), n)
    # expit(+800) is 1 and expit(-800) is 0 to double precision
    assert np.all(synth.column("w1") == (intercept > 0))
    assert np.all(synth.column("w2") == (intercept < 0))
