import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import SIM4_Z_BOUNDS, simulate_truth_sim4
from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset
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
    rel = md_synthesizer(rng, counts, eps=1.5, m=3, ledger=ledger)
    assert rel.m == 3
    for ds in rel.sets:
        assert ds.n == 100
        assert set(np.unique(ds.column("cell"))) <= {0, 1, 2}
    assert ledger.effective_spend_exact() == Fraction(1.5)


def test_md_tiny_eps_flattens_toward_uniform():
    # alpha* dominates the observed counts, so cell proportions are pulled
    # to 1/K regardless of the data
    rng = RngStream(11)
    counts = np.array([990, 5, 5])
    props = []
    for r in range(400):
        rel = md_synthesizer(rng.substream(r), counts, eps=0.001)
        c = np.bincount(rel.sets[0].column("cell"), minlength=3)
        props.append(c / 1000)
    mean_p = np.mean(props, axis=0)
    assert np.all(np.abs(mean_p - 1 / 3) < 0.02)


def test_md_huge_eps_reproduces_observed_proportions():
    rng = RngStream(13)
    counts = np.array([700, 200, 100])
    props = []
    for r in range(400):
        rel = md_synthesizer(rng.substream(r), counts, eps=1e6)
        c = np.bincount(rel.sets[0].column("cell"), minlength=3)
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
    means = [bbmr_synthesizer(rng.substream(r), n1, n, eps)
             .sets[0].column("x").mean() for r in range(600)]
    se = math.sqrt(p_star * (1 - p_star) / n / 600)
    assert np.mean(means) == pytest.approx(p_star, abs=5 * se)


def test_bbmr_ledger_and_validation():
    ledger = PrivacyLedger(PrivacyBudget(0.5))
    rel = bbmr_synthesizer(RngStream(3), 10, 50, 0.5, ledger=ledger)
    assert rel.m == 1
    assert rel.sets[0].n == 50
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
    assert rel.per_set_eps == pytest.approx(0.7 / 4)
    assert ledger.effective_spend_exact() == Fraction(0.7)
    for records in rel.sanitized_stats:
        assert [r.label for r in records] == ["n1"]


def test_modips_normal_uneven_allocation_sums_exactly():
    rng = RngStream(23)
    x = np.clip(rng.generator.normal(0.0, 1.0, size=80), -5, 5)
    cols = [ContinuousColumn("x", -5.0, 5.0)]
    data = TabularDataset(cols, {"x": x})
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    modips_release(RngStream(29), data, NormalModel(-5.0, 5.0), eps=1.0, m=3,
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
    model = NormalModel(-2.0, 2.0, mode="conjoint")
    groups = model.sufficient_statistics(data)
    assert len(groups) == 1
    assert groups[0].label == "mean_var"
    r = 4.0
    assert groups[0].delta_s == pytest.approx((r + r ** 2) / 50)
    indiv = NormalModel(-2.0, 2.0).sufficient_statistics(data)
    assert [g.label for g in indiv] == ["mean", "var"]
    assert indiv[0].delta_s == pytest.approx(r / 50)
    assert indiv[1].delta_s == pytest.approx(r ** 2 / 50)
    with pytest.raises(ValueError):
        NormalModel(-2.0, 2.0, mode="joint")


def test_normal_model_variance_cap():
    model = NormalModel(0.0, 1.0)
    assert model._var_upper(10) == pytest.approx(0.25 * 10 / 9)


def test_normal_model_degenerate_variance_flagged():
    x = np.linspace(-1, 1, 50)
    data = TabularDataset([ContinuousColumn("x", -2.0, 2.0)], {"x": x})
    model = NormalModel(-2.0, 2.0)
    model.sufficient_statistics(data)
    flags = []
    mu, sigma2 = model.posterior_draw(
        RngStream(2), {"mean": np.array([0.0]), "var": np.array([0.0])}, flags)
    assert flags == ["PosteriorDegenerate:var"]
    assert sigma2 > 0


def test_modips_normal_recovers_moments_at_large_eps():
    rng = RngStream(31)
    x = np.clip(rng.generator.normal(1.0, 0.5, size=2000), -4, 4)
    data = TabularDataset([ContinuousColumn("x", -4.0, 4.0)], {"x": x})
    rel = modips_release(RngStream(37), data, NormalModel(-4.0, 4.0), eps=1e5)
    synth = rel.sets[0].column("x")
    assert synth.mean() == pytest.approx(x.mean(), abs=0.06)
    assert synth.var(ddof=1) == pytest.approx(x.var(ddof=1), rel=0.15)


def _mixture_model():
    lower = np.array([[-4.0, -4.0], [-1.0, -1.0]])
    upper = np.array([[1.0, 1.0], [4.0, 4.0]])
    return GaussianMixtureModel((2,), lower, upper,
                                ((-4.0, 4.0), (-4.0, 4.0)))


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
        "counts", "zbar1", "zbar2", "var1", "var2", "cov"]
    counts = groups[0].value
    assert counts.sum() == 300
    # per-cell mean sensitivity is range / realized count (both cells span 5)
    np.testing.assert_allclose(groups[1].delta_s, 5.0 / counts, atol=1e-12)


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
    pi, mus, sigma = model.posterior_draw(RngStream(59), stats, flags)
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
    groups = model.sufficient_statistics(data)
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


def test_logistic_predictive_w3_follows_softmax_when_exp_overflows():
    n = 20_000
    model = SequentialLogisticModel(((-3.0, 3.0), (-3.0, 3.0)))
    beta3 = np.zeros((n, 5))
    beta4 = np.zeros((n, 5))
    beta3[:, 0], beta4[:, 0] = 800.0, 799.0  # exp(800) overflows a float
    params = (np.zeros(2), np.eye(2), np.zeros((n, 3)), np.zeros((n, 4)),
              beta3, beta4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        synth = model.predictive_draw(RngStream(73), params, n)
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


def test_mh_sample_returns_prefix_of_full_run_and_stops_early():
    burnin, thin = 250, 4
    model = SequentialLogisticModel(SIM4_Z_BOUNDS, mh_chains=2, mh_iters=450,
                                    mh_burnin=burnin, mh_thin=thin)
    ll, calls = _counting_quadratic()
    # 2 chains x 50 kept draws: both chains run to their last kept draw
    full = model._mh_sample(RngStream(81), ll, 3, 100)
    assert full.shape == (100, 3)
    assert calls[0] == 2 * (1 + burnin + 49 * thin + 1)
    for k in (1, 49, 50, 51, 100):
        calls[0] = 0
        got = model._mh_sample(RngStream(81), ll, 3, k)
        np.testing.assert_array_equal(got, full[:k])
        if k <= 50:  # chain 1 is never started
            assert calls[0] == 1 + burnin + (k - 1) * thin + 1
    # more rows than both chains keep: the kept draws are tiled
    np.testing.assert_array_equal(model._mh_sample(RngStream(81), ll, 3, 237),
                                  np.tile(full, (3, 1))[:237])


def test_mh_sample_default_settings_likelihood_calls_at_n_200():
    # 1,500 burn-in iterations, then 200 draws thinned by 10 from chain 0
    # alone: 3,492 likelihood calls, where running both chains in full
    # took 2 x (1 + 6,500) = 13,002
    model = SequentialLogisticModel(SIM4_Z_BOUNDS)
    ll, calls = _counting_quadratic()
    draws = model._mh_sample(RngStream(82), ll, 3, 200)
    assert draws.shape == (200, 3)
    assert calls[0] == 1 + 1500 + 199 * 10 + 1 == 3492


def test_mh_sample_zero_draws_is_empty():
    model = SequentialLogisticModel(SIM4_Z_BOUNDS, mh_chains=2, mh_iters=260,
                                    mh_burnin=60, mh_thin=4)
    ll, calls = _counting_quadratic()
    draws = model._mh_sample(RngStream(83), ll, 3, 0)
    assert draws.shape == (0, 3)
    assert calls[0] == 0


# three quadratic targets of different sizes for the lockstep sampler
LOCKSTEP_MODES = [np.array([1.0, -1.0, 0.5]), np.linspace(-1.0, 1.0, 4),
                  np.linspace(2.0, -2.0, 10)]


def _lockstep_calls(model, n_draws):
    """Sample the three quadratic targets in lockstep, check each one's
    draws against `_mh_sample` on it alone and return the batched calls."""
    targets = [lambda beta, mode=mode: -0.5 * float(np.sum((beta - mode) ** 2))
               for mode in LOCKSTEP_MODES]
    calls = [0]

    def batched(betas):
        calls[0] += 1
        return [ll(beta) for ll, beta in zip(targets, betas)]
    dims = [len(mode) for mode in LOCKSTEP_MODES]
    rngs = [RngStream(85).substream(k) for k in (1, 2, 3)]
    got = model._mh_lockstep(rngs, batched, dims, n_draws)
    assert len(got) == 3
    for draws, rng, ll, dim in zip(got, rngs, targets, dims):
        assert draws.shape == (n_draws, dim)
        np.testing.assert_array_equal(draws,
                                      model._mh_sample(rng, ll, dim, n_draws))
    return calls[0]


@pytest.mark.parametrize("k", [1, 50, 51, 237])
def test_mh_lockstep_matches_each_target_alone(k):
    burnin, thin = 250, 4
    model = SequentialLogisticModel(SIM4_Z_BOUNDS, mh_chains=2, mh_iters=450,
                                    mh_burnin=burnin, mh_thin=thin)
    # 50 draws per chain; one batched call starts each chain, one per step
    quotas = {1: [1], 50: [50], 51: [50, 1], 237: [50, 50]}[k]
    assert _lockstep_calls(model, k) == sum(
        1 + burnin + (want - 1) * thin + 1 for want in quotas)


def test_mh_lockstep_default_settings_one_call_per_step_at_n_200():
    # the three targets share each step's call: 3,492 batched calls, where
    # sampling them one by one makes 3 x 3,492 scalar calls
    model = SequentialLogisticModel(SIM4_Z_BOUNDS)
    assert _lockstep_calls(model, 200) == 3492


def test_lockstep_loglik_matches_scalar_likelihoods():
    data = simulate_truth_sim4(RngStream(86), 200)
    n = data.n
    w1 = data.column("w1").astype(float)
    w2 = data.column("w2").astype(float)
    w3 = data.column("w3").astype(np.int64)
    x3 = np.column_stack([np.ones(n), data.column("z1"), data.column("z2"),
                          w1, w2])
    weights = [0.7, 1.3, 0.05]
    model = SequentialLogisticModel
    loglik = model._lockstep_loglik(x3, w1, w2, w3, weights)
    gen = np.random.default_rng(87)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(90):
            b1, b2, b34 = (gen.normal(0.0, 2.0, d) for d in (3, 4, 10))
            # intercepts of +-800 saturate both ends of the clamp
            for beta, slot in ((b1, 0), (b2, 0), (b34, 0), (b34, 5)):
                if gen.random() < 0.4:
                    beta[slot] = gen.choice([800.0, -800.0])
            want = [
                weights[0] * model._clamped_loglik(
                    model._log_factors_binary(x3[:, :3], w1, b1)),
                weights[1] * model._clamped_loglik(
                    model._log_factors_binary(x3[:, :4], w2, b2)),
                weights[2] * model._clamped_loglik(
                    model._log_factors_trinomial(x3, w3, b34[:5], b34[5:])),
            ]
            got = loglik([b1, b2, b34])
            assert len(got) == 3
            np.testing.assert_allclose(got, want, rtol=1e-12)


def _plugin_cases():
    gen = RngStream(88).generator
    normal = TabularDataset([ContinuousColumn("x", -5.0, 5.0)],
                            {"x": np.clip(gen.normal(0.0, 1.0, 80), -5, 5)})
    short_mh = dict(mh_iters=120, mh_burnin=40, mh_thin=2)
    return {
        "bernoulli": (BernoulliModel(), _binary_data(30, 100), None),
        "normal": (NormalModel(-5.0, 5.0), normal, [1.0, 3.0]),
        "mixture": (_mixture_model(), _mixture_data(RngStream(89), 120),
                    None),
        "logistic": (SequentialLogisticModel(SIM4_Z_BOUNDS, **short_mh),
                     simulate_truth_sim4(RngStream(90), 120), None),
    }


@pytest.mark.parametrize("plugin", ["bernoulli", "normal", "mixture",
                                    "logistic"])
def test_modips_release_computes_statistics_once(plugin):
    model, data, allocation = _plugin_cases()[plugin]
    labels = [g.label for g in model.sufficient_statistics(data)]
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


def _logistic_release(seed, eps, sanitize):
    """modips_release of a seeded sim4 set (n = 200) under short MH chains;
    records each set's tempering weights and posterior draw."""
    data = simulate_truth_sim4(RngStream(seed), 200)
    model = SequentialLogisticModel(SIM4_Z_BOUNDS, mh_iters=1200,
                                    mh_burnin=400, mh_thin=4)
    seen = []
    draw = model.posterior_draw

    def recording_draw(rng, stats, flags):
        params = draw(rng, stats, flags)
        seen.append(([model._temper_weight(stats, i) for i in range(3)],
                     params))
        return params
    model.posterior_draw = recording_draw
    ledger = PrivacyLedger(PrivacyBudget(eps)) if sanitize else None
    rel = modips_release(RngStream(seed + 1), data, model, eps, m=2,
                         ledger=ledger, sanitize=sanitize,
                         method="modips-logistic")
    return data, model, rel, ledger, seen


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
    ref = model._cache["ref_beta"]
    for weights, params in seen:
        assert weights == [1.0, 1.0, 1.0]
        for draws, centre in zip(params[2:], ref):
            spread = draws.std(axis=0)
            assert np.all(np.abs(draws.mean(axis=0) - centre) < 2 * spread)


@pytest.mark.parametrize("intercept", [800.0, -800.0])
def test_logistic_predictive_binary_draws_when_exp_overflows(intercept):
    n = 1000
    model = SequentialLogisticModel(SIM4_Z_BOUNDS)
    beta1 = np.zeros((n, 3))
    beta2 = np.zeros((n, 4))
    beta1[:, 0], beta2[:, 0] = intercept, -intercept
    params = (np.zeros(2), np.eye(2), beta1, beta2, np.zeros((n, 5)),
              np.zeros((n, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synth = model.predictive_draw(RngStream(84), params, n)
    # expit(+800) is 1 and expit(-800) is 0 to double precision
    assert np.all(synth.column("w1") == (intercept > 0))
    assert np.all(synth.column("w2") == (intercept < 0))
