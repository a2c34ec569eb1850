import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dips.param_synth
from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import simulate_truth_sim4
from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from dips.inference import firth_logistic, fit_multinomial_logit
from dips.mechanisms import SensitivitySpec, laplace_mechanism
from dips.param_synth import (
    BernoulliModel,
    GaussianMixtureModel,
    NormalModel,
    SequentialLogisticModel,
    StatGroup,
    _md_alpha,
    bbmr_synthesizer,
    md_synthesizer,
    modips_release,
)
from dips.randvar import RngStream


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
        (cells,) = md_synthesizer(rng.substream(r), counts, eps=0.001)
        c = np.bincount(cells, minlength=3)
        props.append(c / 1000)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - 1 / 3) < 0.02)


def test_md_huge_eps_reproduces_observed_proportions():
    rng = RngStream(13)
    counts = np.array([700, 200, 100])
    props = []
    for r in range(400):
        (cells,) = md_synthesizer(rng.substream(r), counts, eps=1e6)
        c = np.bincount(cells, minlength=3)
        props.append(c / 1000)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - counts / 1000) < 0.01)


def test_md_validation():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        md_synthesizer(rng, np.array([0, 0]), eps=1.0)
    with pytest.raises(ValueError):
        md_synthesizer(rng, np.array([1, 2]), eps=-1.0)


def test_bbmr_mean_matches_shrunk_proportion():
    n, n1, eps = 200, 60, 1.0
    alpha = 1 / math.expm1(eps / n)
    p_star = (n1 + alpha) / (n + 2 * alpha)
    rng = RngStream(17)
    means = [bbmr_synthesizer(rng.substream(r), n1, n, eps).mean()
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
        bbmr_synthesizer(RngStream(3), 60, 50, 0.5)
    with pytest.raises(ValueError):
        bbmr_synthesizer(RngStream(3), 10, 50, 0.0)


def _binary_data(n1, n):
    x = np.zeros(n, dtype=np.int64)
    x[:n1] = 1
    col = CategoricalColumn("x", (0, 1))
    return TabularDataset([col], {"x": x})


def test_modips_bernoulli_ledger_exact_with_allocation():
    data = _binary_data(30, 100)
    ledger = PrivacyLedger(PrivacyBudget(0.7))
    rel = modips_release(RngStream(5), data, BernoulliModel(), eps=0.7, m=4,
                         ledger=ledger)
    assert rel.m == 4
    assert ledger.effective_spend_exact() == Fraction(0.7)
    for records in rel.sanitized_stats:
        assert [r.label for r in records] == ["n1"]


def test_modips_normal_uneven_allocation_sums_exactly():
    rng = RngStream(23)
    x = np.clip(rng.generator.normal(0.0, 1.0, size=80), -5, 5)
    cols = [ContinuousColumn("x", -5.0, 5.0)]
    data = TabularDataset(cols, {"x": x})
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    modips_release(RngStream(29), data, NormalModel(), eps=1.0, m=3,
                   allocation=[1.0, 2.0], ledger=ledger)
    assert ledger.effective_spend_exact() == Fraction(1)


def test_modips_allocation_length_checked():
    data = _binary_data(10, 40)
    with pytest.raises(ValueError, match="allocation"):
        modips_release(RngStream(1), data, BernoulliModel(), eps=1.0,
                       allocation=[1.0, 1.0])


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
                            eps=1e5).sets[0].column("x").mean()
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
    rel = modips_release(RngStream(37), data, NormalModel(), eps=1e5)
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


def test_mixture_recovers_structure_at_large_eps():
    model = _mixture_model()
    data = _mixture_data(RngStream(61), 1500)
    rel = modips_release(RngStream(67), data, model, eps=1e5)
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
    rel = modips_release(RngStream(67), data, model, eps=1.0, m=2)
    for records in rel.sanitized_stats:
        assert [r.label for r in records] == [g.label for g in groups]
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


def _mh_one(model, rng, loglik, dim, n_draws):
    """The lockstep sampler on one target with a scalar log-likelihood."""
    return model._mh_lockstep([rng], lambda b: [loglik(b)], [dim],
                              n_draws)[0]


def test_mh_sample_returns_prefix_of_full_run_and_stops_early():
    burnin, thin = 250, 4
    model = SequentialLogisticModel(mh_chains=2, mh_iters=450,
                                    mh_burnin=burnin, mh_thin=thin)
    ll, calls = _counting_quadratic()
    # 2 chains x 50 kept draws: both chains run to their last kept draw
    full = _mh_one(model, RngStream(81), ll, 3, 100)
    assert full.shape == (100, 3)
    assert calls[0] == 2 * (1 + burnin + 49 * thin + 1)
    for k in (1, 49, 50, 51, 100):
        calls[0] = 0
        got = _mh_one(model, RngStream(81), ll, 3, k)
        np.testing.assert_array_equal(got, full[:k])
        if k <= 50:  # chain 1 is never started
            assert calls[0] == 1 + burnin + (k - 1) * thin + 1
    # more rows than both chains keep: the kept draws are tiled
    np.testing.assert_array_equal(_mh_one(model, RngStream(81), ll, 3, 237),
                                  np.tile(full, (3, 1))[:237])


def test_mh_sample_default_settings_likelihood_calls_at_n_200():
    # 1,500 burn-in iterations, then 200 draws thinned by 10 from chain 0
    # alone: 3,492 likelihood calls, where running both chains in full
    # took 2 x (1 + 6,500) = 13,002
    model = SequentialLogisticModel()
    ll, calls = _counting_quadratic()
    draws = _mh_one(model, RngStream(82), ll, 3, 200)
    assert draws.shape == (200, 3)
    assert calls[0] == 1 + 1500 + 199 * 10 + 1 == 3492


def test_mh_sample_zero_draws_is_empty():
    model = SequentialLogisticModel(mh_chains=2, mh_iters=260,
                                    mh_burnin=60, mh_thin=4)
    ll, calls = _counting_quadratic()
    draws = _mh_one(model, RngStream(83), ll, 3, 0)
    assert draws.shape == (0, 3)
    assert calls[0] == 0


# three quadratic targets of different sizes for the lockstep sampler
LOCKSTEP_MODES = [np.array([1.0, -1.0, 0.5]), np.linspace(-1.0, 1.0, 4),
                  np.linspace(2.0, -2.0, 10)]


def _lockstep_calls(model, n_draws):
    """Sample the three quadratic targets in lockstep, check each one's
    draws against `_mh_one` on it alone and return the batched calls."""
    targets = [lambda beta, mode=mode: -0.5 * float(np.sum((beta - mode) ** 2))
               for mode in LOCKSTEP_MODES]
    calls = [0]
    dims = [len(mode) for mode in LOCKSTEP_MODES]

    def batched(state):
        # the targets' states lie end to end in one vector
        calls[0] += 1
        betas = np.split(state, np.cumsum(dims)[:-1])
        return [ll(beta) for ll, beta in zip(targets, betas)]
    rngs = [RngStream(85).substream(k) for k in (1, 2, 3)]
    got = model._mh_lockstep(rngs, batched, dims, n_draws)
    assert len(got) == 3
    for draws, rng, ll, dim in zip(got, rngs, targets, dims):
        assert draws.shape == (n_draws, dim)
        np.testing.assert_array_equal(draws,
                                      _mh_one(model, rng, ll, dim, n_draws))
    return calls[0]


@pytest.mark.parametrize("k", [1, 50, 51, 237])
def test_mh_lockstep_matches_each_target_alone(k):
    burnin, thin = 250, 4
    model = SequentialLogisticModel(mh_chains=2, mh_iters=450,
                                    mh_burnin=burnin, mh_thin=thin)
    # 50 draws per chain; one batched call starts each chain, one per step
    quotas = {1: [1], 50: [50], 51: [50, 1], 237: [50, 50]}[k]
    assert _lockstep_calls(model, k) == sum(
        1 + burnin + (want - 1) * thin + 1 for want in quotas)


def test_mh_lockstep_default_settings_one_call_per_step_at_n_200():
    # the three targets share each step's call: 3,492 batched calls, where
    # sampling them one by one makes 3 x 3,492 scalar calls
    model = SequentialLogisticModel()
    assert _lockstep_calls(model, 200) == 3492


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
                        set_weights[0] * model._clamped_loglik(
                            model._log_factors_binary(x3[:, :3], w1, b1)),
                        set_weights[1] * model._clamped_loglik(
                            model._log_factors_binary(x3[:, :4], w2, b2)),
                        set_weights[2] * model._clamped_loglik(
                            model._log_factors_trinomial(x3, w3, b34[:5],
                                                         b34[5:])),
                    ]
                got = loglik(np.concatenate(coefs))
                assert len(got) == 3 * m
                np.testing.assert_allclose(got, want, rtol=1e-12)


SHORT_MH = dict(mh_iters=120, mh_burnin=40, mh_thin=2)


def _plugin_cases():
    gen = RngStream(88).generator
    normal = TabularDataset([ContinuousColumn("x", -5.0, 5.0)],
                            {"x": np.clip(gen.normal(0.0, 1.0, 80), -5, 5)})
    return {
        "bernoulli": (BernoulliModel(), _binary_data(30, 100), None),
        "normal": (NormalModel(), normal, [1.0, 3.0]),
        "mixture": (_mixture_model(), _mixture_data(RngStream(89), 120),
                    None),
        "logistic": (SequentialLogisticModel(**SHORT_MH),
                     simulate_truth_sim4(RngStream(90), 120), None),
    }


@pytest.mark.parametrize("plugin", ["bernoulli", "normal", "mixture",
                                    "logistic"])
def test_modips_release_computes_statistics_once(plugin):
    model, data, allocation = _plugin_cases()[plugin]
    labels = [g.label for g in model.sufficient_statistics(data)
              if g.delta_s is not None]
    weights = allocation or [1.0] * len(labels)
    calls = []
    compute = model.sufficient_statistics

    def counting(d):
        calls.append(d)
        return compute(d)
    model.sufficient_statistics = counting
    eps, m = 0.9, 3
    ledger = PrivacyLedger(PrivacyBudget(eps))
    rel = modips_release(RngStream(91), data, model, eps, m=m,
                         allocation=allocation, ledger=ledger,
                         method=f"modips-{plugin}")
    assert calls == [data]
    assert len(rel.sets) == m
    # set-major ledger entries in group order, each its exact share
    assert [(e.label, e.eps) for e in ledger.entries] == [
        (f"modips-{plugin}-set{j}-{label}",
         Fraction(eps) * Fraction(w) / (m * sum(map(Fraction, weights))))
        for j in range(m) for label, w in zip(labels, weights)]
    assert ledger.spend == ledger.effective_spend_exact() == Fraction(eps)


# the attributes a release may write: none, since every raw-data read of
# the draws is a declared unsanitized group
RELEASE_STATE = {"bernoulli": set(), "normal": set(),
                 "mixture": set(), "logistic": set()}


@pytest.mark.parametrize("plugin", list(RELEASE_STATE))
def test_release_writes_only_the_listed_model_state(plugin):
    model, data, allocation = _plugin_cases()[plugin]
    before = dict(vars(model))
    modips_release(RngStream(92), data, model, 1.0, m=1,
                   allocation=allocation)
    after = vars(model)
    assert after.keys() == before.keys()
    changed = {k for k in after if after[k] is not before[k]}
    assert changed == RELEASE_STATE[plugin]


# which groups each plugin's posterior reads raw
UNSANITIZED = {"bernoulli": [], "normal": [], "mixture": ["raw_counts"],
               "logistic": ["x3", "w1", "w2", "w3", "log_raw"]}


@pytest.mark.parametrize("plugin", list(UNSANITIZED))
def test_draws_from_the_recorded_stats_reproduce_each_set(plugin):
    """Each set is a function of its sanitize records, the declared
    unsanitized groups, n and the columns: a fresh model fed those on the
    release's substreams draws the same bytes."""
    model, data, allocation = _plugin_cases()[plugin]
    rel = modips_release(RngStream(93), data, model, 1.0, m=2,
                         allocation=allocation)
    assert rel.flags[:len(UNSANITIZED[plugin])] == [
        f"unsanitized:{label}" for label in UNSANITIZED[plugin]]
    # the raw groups come from another instance: the fresh model sees
    # only the draws' inputs
    source, fresh = _plugin_cases()[plugin][0], _plugin_cases()[plugin][0]
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in source.sufficient_statistics(data) if g.delta_s is None}
    assert list(raw) == UNSANITIZED[plugin]
    subs = [RngStream(93).substream(j) for j in range(len(rel.sets))]
    stats_sets = [{**raw, **{r.label: r.sanitized for r in records}}
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


@pytest.mark.parametrize("plugin", list(DEGENERATE))
def test_posterior_over_m_sets_equals_one_set_calls(plugin):
    """Set j's parameters depend only on its stream and statistics: one
    call over three sets draws the same bytes, and flags in the same
    order, as three one-set calls."""
    model, data, allocation = _plugin_cases()[plugin]
    rel = modips_release(RngStream(103), data, model, 1.0, m=3,
                         allocation=allocation)
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data) if g.delta_s is None}
    stats_sets = [{**raw, **{r.label: r.sanitized for r in records}}
                  for records in rel.sanitized_stats]
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


def test_logistic_release_runs_one_mh_for_all_sets(monkeypatch):
    """At n = 200 and m = 5 under the default chains, one release builds
    one likelihood and calls it once per MH step for all fifteen
    regressions: 3,492 calls, where one MH per set made 5 x 3,492."""
    built, calls = [0], [0]
    make = SequentialLogisticModel._lockstep_loglik

    def counting_make(*args):
        built[0] += 1
        loglik = make(*args)

        def counted(coef):
            calls[0] += 1
            return loglik(coef)
        return counted
    monkeypatch.setattr(SequentialLogisticModel, "_lockstep_loglik",
                        staticmethod(counting_make))
    data = simulate_truth_sim4(RngStream(105), 200)
    rel = modips_release(RngStream(106), data, SequentialLogisticModel(),
                         1.0, m=5)
    assert len(rel.sets) == 5
    assert built[0] == 1
    assert calls[0] == 1 + 1500 + 199 * 10 + 1 == 3492


def test_logistic_posterior_refuses_sets_with_different_rows():
    model, data, _ = _plugin_cases()["logistic"]
    rel = modips_release(RngStream(107), data, model, 1.0, m=2)
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data) if g.delta_s is None}
    stats_sets = [{**raw, **{r.label: r.sanitized for r in records}}
                  for records in rel.sanitized_stats]
    stats_sets[1]["w1"] = 1.0 - stats_sets[1]["w1"]
    with pytest.raises(ValueError, match="share their unsanitized rows"):
        model.posterior_draw([RngStream(108), RngStream(109)], stats_sets,
                             data.n, [])


@pytest.mark.parametrize("plugin", list(UNSANITIZED))
def test_traced_release_equals_untraced(plugin, monkeypatch):
    """The benchmark's tracer wraps every plugin's three methods and reads
    each statistic group; a traced release draws the same bytes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer

    def release():
        model, data, allocation = _plugin_cases()[plugin]
        return dips.param_synth.modips_release(
            RngStream(98), data, model, 1.0, m=2, allocation=allocation).sets
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
    (lambda: SequentialLogisticModel(**SHORT_MH),
     simulate_truth_sim4(RngStream(101), 120),
     simulate_truth_sim4(RngStream(102), 90)),
], ids=["bernoulli", "normal", "mixture", "logistic"])
def test_stateless_model_reused_equals_fresh(make, first, second):
    model = make()
    before = dict(vars(model))
    modips_release(RngStream(96), first, model, 1.0, m=2)
    assert vars(model) == before
    # a second dataset with another column name and declared domain
    reused = modips_release(RngStream(97), second, model, 1.0, m=2).sets
    fresh = modips_release(RngStream(97), second, make(), 1.0, m=2).sets
    assert len(reused) == len(fresh) == 2
    for a, b in zip(reused, fresh):
        assert a.columns == b.columns == second.columns
        for col in second.columns:
            assert a.column(col.name).tobytes() == b.column(col.name).tobytes()


def _logistic_release(seed, eps, sanitize):
    """modips_release of a seeded sim4 set (n = 200) under short MH chains;
    records each set's tempering weights and posterior draw."""
    data = simulate_truth_sim4(RngStream(seed), 200)
    model = SequentialLogisticModel(mh_iters=1200, mh_burnin=400, mh_thin=4)
    seen = []
    draw = model.posterior_draw

    def recording_draw(rngs, stats_sets, n, flags):
        params = draw(rngs, stats_sets, n, flags)
        for stats, p in zip(stats_sets, params, strict=True):
            seen.append(([model._temper_weight(stats, i) for i in range(3)],
                         p))
        return params
    model.posterior_draw = recording_draw
    ledger = PrivacyLedger(PrivacyBudget(eps)) if sanitize else None
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
        assert [c.name for c in ds.columns] == ["w1", "w2", "w3", "z1", "z2"]
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
