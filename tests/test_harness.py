import csv
import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import dips.harness
from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import (
    METRIC_COLUMNS,
    SIM3_LEVELS,
    SIM3_PI,
    SIM4_BETA1,
    STUDIES,
    MetricRow,
    StudyConfig,
    report,
    run_study,
    sim3_cell_bounds,
    simulate_truth_sim1,
    simulate_truth_sim2,
    simulate_truth_sim3,
    simulate_truth_sim4,
)
from dips.randvar import RngStream


# -- truth simulators --------------------------------------------------------

def test_sim1_truth_is_bernoulli():
    ds = simulate_truth_sim1(RngStream(3), 50_000, 0.25)
    x = ds.column("x")
    assert set(np.unique(x)) <= {0, 1}
    assert x.mean() == pytest.approx(0.25, abs=0.01)
    with pytest.raises(ValueError):
        simulate_truth_sim1(RngStream(3), 10, 1.5)


def test_sim2_truth_respects_declared_bounds():
    ds = simulate_truth_sim2(RngStream(5), 20_000)
    x = ds.column("x")
    col = ds.columns[0]
    assert (col.lo, col.hi) == (-3.0, 4.0)
    assert x.min() >= -3.0 and x.max() <= 4.0
    assert x.mean() == pytest.approx(0.0, abs=0.03)
    sym = simulate_truth_sim2(RngStream(5), 100, mu=2.0, sigma2=4.0,
                              bounds="symmetric")
    assert (sym.columns[0].lo, sym.columns[0].hi) == (-6.0, 10.0)
    with pytest.raises(ValueError):
        simulate_truth_sim2(RngStream(5), 10, bounds="oval")


def test_sim3_truth_cell_frequencies():
    n = 100_000
    ds = simulate_truth_sim3(RngStream(7), n)
    cells = np.ravel_multi_index(
        [ds.column("w1"), ds.column("w2"), ds.column("w3")], SIM3_LEVELS)
    observed = np.bincount(cells, minlength=24)
    expected = n * SIM3_PI / SIM3_PI.sum()
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=23)


def test_sim3_truth_z_within_cell_bounds():
    ds = simulate_truth_sim3(RngStream(11), 20_000)
    cells = np.ravel_multi_index(
        [ds.column("w1"), ds.column("w2"), ds.column("w3")], SIM3_LEVELS)
    lower, upper = sim3_cell_bounds()
    z = np.column_stack([ds.column("z1"), ds.column("z2")])
    assert np.all(z >= lower[cells]) and np.all(z <= upper[cells])
    # each z column declares the union of its cells' bounds
    assert [(c.lo, c.hi) for c in ds.columns[3:]] == list(
        zip(lower.min(axis=0), upper.max(axis=0)))
    # within-cell correlation near the target 0.5
    big = np.bincount(cells).argmax()
    sel = z[cells == big]
    assert np.corrcoef(sel.T)[0, 1] == pytest.approx(0.5, abs=0.08)


def test_sim4_truth_first_outcome_prevalence():
    # P(w1=1 | z=0) = expit(-1); averaged over z the slope terms roughly
    # cancel, so check the observed rate against a Monte-Carlo anchor
    n = 100_000
    ds = simulate_truth_sim4(RngStream(13), n)
    z = np.column_stack([ds.column("z1"), ds.column("z2")])
    eta = SIM4_BETA1[0] + z @ SIM4_BETA1[1:]
    expected = float(np.mean(1 / (1 + np.exp(-eta))))
    assert ds.column("w1").mean() == pytest.approx(expected, abs=0.01)
    assert set(np.unique(ds.column("w3"))) <= {0, 1, 2}
    assert np.abs(z).max() <= 4.0
    assert np.corrcoef(z.T)[0, 1] == pytest.approx(0.5, abs=0.02)


def test_draw_within_redraws_only_the_rows_out_of_bounds():
    """A row is out when any of its values is; only those rows are drawn
    again, in index order, against their own bounds."""
    batches = iter([np.array([[0.5, 0.5], [2.0, 0.5], [0.5, -1.0],
                              [0.1, 0.1]]),
                    np.array([[3.0, 0.0], [0.2, 0.3]]),
                    np.array([[0.9, 0.9]])])
    calls = []

    def draw(rows):
        calls.append(rows.tolist())
        return next(batches)
    lo = np.zeros((4, 2))
    hi = np.ones((4, 2))
    out = dips.harness._draw_within(draw, 4, lo, hi)
    assert calls == [[0, 1, 2, 3], [1, 2], [1]]
    assert out.tolist() == [[0.5, 0.5], [0.9, 0.9], [0.2, 0.3], [0.1, 0.1]]
    empty = dips.harness._draw_within(lambda rows: np.zeros(len(rows)), 0,
                                      -1.0, 1.0)
    assert empty.shape == (0,)


@pytest.mark.parametrize("simulate", [simulate_truth_sim2,
                                      simulate_truth_sim3,
                                      simulate_truth_sim4])
@pytest.mark.parametrize("n", [0, 1])
def test_truncated_truth_has_n_rows(simulate, n):
    assert simulate(RngStream(3), n).n == n


# -- config / row validation -------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown study"):
        StudyConfig("sim9", 100)
    with pytest.raises(ValueError, match="positive"):
        StudyConfig("sim1", 0)
    with pytest.raises(ValueError, match="sorted"):
        StudyConfig("sim1", 100, eps_grid=[1.0, 0.1])
    with pytest.raises(ValueError, match="finite"):
        StudyConfig("sim1", 100, eps_grid=[1.0, math.inf])
    with pytest.raises(ValueError, match="not valid"):
        StudyConfig("sim1", 100, methods=["pert-hist"])
    # exact integers: 2.5 must not truncate and a bool is not a count
    for field, value in (("reps", 1.5), ("n", 50.5), ("m", 2.5),
                         ("seed", 1.5), ("n", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StudyConfig(**{"study": "sim1", "n": 100, field: value})
    # a truth key the study's simulator does not read
    with pytest.raises(ValueError, match=r"\['p'\] are not read by sim1"):
        StudyConfig("sim1", 100, truth={"p": 0.9})
    with pytest.raises(ValueError, match=r"\['sigma'\] are not read by sim2"):
        StudyConfig("sim2", 100, truth={"sigma": 2.0})
    with pytest.raises(ValueError, match="not read by sim3"):
        StudyConfig("sim3", 100, truth={"pi": 0.25})
    StudyConfig("sim1", 100, truth={"pi": 0.25})
    StudyConfig("sim2", 100, truth={"mu": 1.0, "sigma2": 2.0,
                                    "bounds": "symmetric"})
    cfg = StudyConfig("sim2", 100)
    assert cfg.methods == list(
        ("modips-normal", "modips-normal-conjoint", "pert-hist",
         "smooth-hist", "ms", "original"))


@pytest.mark.parametrize("study, key, value, wanted", [
    ("sim1", "pi", 0.0, "a finite number in (0, 1)"),
    ("sim1", "pi", 1.5, "a finite number in (0, 1)"),
    ("sim2", "sigma2", -1.0, "a finite number in (0, inf)"),
    ("sim2", "sigma2", 0.0, "a finite number in (0, inf)"),
    ("sim2", "mu", math.nan, "a finite number in (-inf, inf)"),
    ("sim2", "bounds", "oval", "one of ['asymmetric', 'symmetric']"),
    ("sim2", "bounds", 1.0, "one of ['asymmetric', 'symmetric']"),
])
def test_truth_settings_are_checked_against_their_valid_values(study, key,
                                                               value, wanted):
    # each study states every truth setting's valid values next to its
    # default, so a bad one is refused before any replication runs
    assert STUDIES[study].truth[key][0] == STUDIES[study].settings({})[key]
    with pytest.raises(ValueError) as info:
        StudyConfig(study, 100, truth={key: value})
    assert str(info.value) == (f"{study} truth {key!r} must be {wanted}, "
                               f"got {value!r}")


@pytest.mark.parametrize("truth, setting", [
    ({"mu": 1e17}, "mu"),
    ({"mu": -1e308, "bounds": "symmetric"}, "mu"),
    ({"sigma2": 1e-320}, "sigma2"),
    ({"sigma2": 1e300}, "sigma2"),
])
def test_sim2_joint_truth_is_refused_naming_the_setting(truth, setting):
    # each setting lies in its own range, but together they leave the
    # bounds equal or the squared moments outside the floats
    with pytest.raises(ValueError, match=f"^sim2 truth '{setting}' = "):
        StudyConfig("sim2", 100, truth=truth)


def test_sim2_joint_truth_keeps_the_usable_range():
    for truth in ({"mu": 1e15}, {"sigma2": 1e-150}, {"sigma2": 1e150}):
        rows = run_study(StudyConfig("sim2", 60, truth=truth, reps=2,
                                     methods=["modips-normal", "pert-hist"]))
        assert all(r.reps_used > 0 for r in rows), truth


def test_metric_row_bounds():
    with pytest.raises(ValueError, match="coverage"):
        MetricRow("sim1", "md", "pi", 1.0, 0.0, 0.0, 1.2, 0.0, 1.0, 10)
    row = MetricRow("sim1", "md", "pi", 1.0, 0.0, 0.0, math.nan, math.nan,
                    0.0, 0)
    assert math.isnan(row.coverage)


# -- run_study ---------------------------------------------------------------

def test_run_study_sim1_shape_and_determinism():
    cfg = StudyConfig("sim1", n=100, eps_grid=[1.0, 10.0], m=3, reps=4,
                      methods=["md", "original"], seed=42)
    rows = run_study(cfg)
    assert len(rows) == 2 * 2  # eps x method, one parameter
    again = run_study(StudyConfig("sim1", n=100, eps_grid=[1.0, 10.0], m=3,
                                  reps=4, methods=["md", "original"], seed=42))
    assert rows == again
    other = run_study(StudyConfig("sim1", n=100, eps_grid=[1.0, 10.0], m=3,
                                  reps=4, methods=["md", "original"], seed=43))
    assert rows != other


def test_run_study_original_has_small_bias():
    cfg = StudyConfig("sim1", n=500, eps_grid=[1.0], reps=30,
                      methods=["original"], seed=7)
    (row,) = run_study(cfg)
    assert row.usable_fraction == 1.0
    assert abs(row.bias) < 0.02
    assert row.reps_used == 30


def test_run_study_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameters"):
        StudyConfig("sim2", n=100, reps=2, parameters=["kurtosis"])


def test_run_study_sim2_both_parameters():
    cfg = StudyConfig("sim2", n=200, eps_grid=[100.0], m=2, reps=5,
                      methods=["modips-normal"], seed=11)
    rows = run_study(cfg)
    assert {r.parameter for r in rows} == {"mu", "sigma2"}
    for r in rows:
        assert r.usable_fraction == 1.0
        assert math.isfinite(r.bias)


def test_study_table_order_fixes_the_streams():
    # a study's index in the table seeds its rows' random streams
    assert list(STUDIES) == ["sim1", "sim2", "sim3", "sim4"]


@pytest.mark.parametrize("study", list(STUDIES))
def test_truth_simulator_runs_once_per_replication(study, monkeypatch):
    """The benchmark times a replication from one call of the harness's
    ``simulate_truth_<study>`` to the next, so the harness must look the
    simulator up on its module for every replication."""
    name = f"simulate_truth_{study}"
    original = getattr(dips.harness, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dips.harness, name, counting)
    methods = list(STUDIES[study].methods)[-2:]  # ms and original: no noise
    # the mixture model needs at least 26 rows, 2 more than its 24 cells
    run_study(StudyConfig(study, {"sim3": 30}.get(study, 20),
                          eps_grid=[1.0, 2.0], m=2, reps=2, methods=methods,
                          seed=3))
    assert len(calls) == 2 * 2 * 2


def test_sim4_large_eps_consistency():
    """In the style of acceptance criterion 7: at eps = e^8 the sanitized
    logistic release should estimate the first regression's coefficients
    with the same bias as the unsanitized multiple synthesis ("ms"),
    within 2 combined Monte-Carlo standard errors."""
    params = ["b1_0", "b1_1", "b1_2"]
    rows = run_study(StudyConfig(
        "sim4", 200, eps_grid=[math.exp(8)], m=3, reps=12, seed=29,
        methods=["modips-logistic", "ms"], parameters=params))
    by_key = {(r.method, r.parameter): r for r in rows}

    def mc_se(row):
        spread = math.sqrt(max(row.rmse ** 2 - row.bias ** 2, 0.0))
        return spread / math.sqrt(row.reps_used)

    parts = []
    ok = True
    for p in params:
        r, b = by_key[("modips-logistic", p)], by_key[("ms", p)]
        assert r.reps_used == b.reps_used == 12
        gap = abs(r.bias - b.bias)
        bound = 2 * math.hypot(mc_se(r), mc_se(b))
        ok &= gap <= bound
        parts.append(f"{p}: |dbias|={gap:.4f} <= {bound:.4f}")
    assert ok, "; ".join(parts)


def test_nonconvergence_in_a_replication_makes_it_unusable(monkeypatch):
    import dips.inference
    import dips.mechanisms

    assert not hasattr(dips.mechanisms, "NonConvergence")
    sampler = dips.mechanisms.sample_truncated_laplace
    calls = []

    def fail_first_call(*args):
        calls.append(args)
        if len(calls) == 1:
            raise dips.inference.NonConvergence("truncation failed")
        return sampler(*args)

    monkeypatch.setattr(dips.mechanisms, "sample_truncated_laplace",
                        fail_first_call)
    cfg = StudyConfig("sim1", n=40, eps_grid=[math.exp(-9)], reps=3,
                      methods=["modips-bernoulli"], postprocess="truncate")
    (row,) = run_study(cfg)
    assert row.usable_fraction < 1


@pytest.mark.parametrize("n, parameters, reps_used", [
    (5, ["b3_0"], [0]), (8, ["b3_0"], [4]), (5, ["mu1", "b3_0"], [4, 0])],
    ids=["5-0", "8-4", "5-mu1-4-b3_0-0"])
def test_sim4_degenerate_set_is_skipped_not_fatal(n, parameters, reps_used):
    """At n = 5 every set is too short for the five-column w3 design
    (RankDeficient); at n = 8 some sets lack a w3 level.  Both skip the
    set's b3 and b4 estimates, but not its mu1 estimate, and the study runs
    to the end."""
    cfg = StudyConfig("sim4", n, m=2, reps=4, methods=["np-dips"],
                      parameters=parameters, seed=5)
    assert [r.reps_used for r in run_study(cfg)] == reps_used


@pytest.mark.parametrize("study", list(STUDIES))
def test_every_parameter_has_one_estimator(study):
    """A parameter with no estimator would give an all-NaN row."""
    s = STUDIES[study]
    names = [name for group, _ in s.estimators for name in group]
    assert sorted(names) == sorted(s.values(s.settings({})))


# runs in which some estimator groups fail on some sets: at n = 3 sim2's
# variance needs a fourth row, and at n = 8 some of sim4's sets lack a w3
# level
@pytest.mark.parametrize("study, config", [
    ("sim2", dict(n=3, eps_grid=[1.0], m=2, reps=3, seed=5,
                  methods=["pert-hist", "original"])),
    ("sim3", dict(n=30, eps_grid=[0.1, 10.0], m=2, reps=2, seed=5,
                  methods=["np-dips", "modips-mixture"])),
    ("sim4", dict(n=8, eps_grid=[0.5, 5.0], m=2, reps=3, seed=5,
                  methods=["np-dips"])),
])
def test_a_row_does_not_depend_on_the_other_parameters_requested(study,
                                                                  config):
    s = STUDIES[study]
    every = list(s.values(s.settings({})))
    together = run_study(StudyConfig(study, parameters=every, **config))
    for p in every:
        alone = run_study(StudyConfig(study, parameters=[p], **config))
        assert ([repr(r) for r in alone]
                == [repr(r) for r in together if r.parameter == p]), p


# sha256 over every MetricRow field, one line per row (as
# perfbench.workloads.rows_digest), recorded after the stacked NP-DIPS
# histograms and the one-call mixture mean draw (numpy 2.4.6); a change
# that moves a sim3 row must say why and re-pin, after
# tests/test_sim3_distribution.py passes before and after it
# Every digest below that moved was re-pinned once when ``t_quantile``
# stopped calling scipy: only the last bits of ci_width moved, as
# tests/test_quantile_rows.py checks against scipy's quantile
SIM3_PINNED_DIGESTS = {
    "np-dips":
        "1418a29169f2c35b296a1e0d70296355def09204da1618836c546a9c4bd6c12d",
    "modips-mixture":
        "02d8283f7bc902d59eec4d8671c7e9750ced2cd9fe2637ce0d791049b2d34167",
}


def test_sim3_rows_match_pinned_digest():
    rows = run_study(StudyConfig(
        "sim3", 300, eps_grid=[math.exp(-6), math.exp(2)], m=3, reps=2,
        methods=list(SIM3_PINNED_DIGESTS), seed=11))
    for method, pinned in SIM3_PINNED_DIGESTS.items():
        h = hashlib.sha256()
        for r in rows:
            if r.method == method:
                h.update((",".join(repr(getattr(r, c))
                                   for c in METRIC_COLUMNS) + "\n").encode())
        assert h.hexdigest() == pinned, method


# the same digest over sim4 rows, recorded before the lockstep MH sampler
# and the once-per-release sufficient statistics (numpy 2.4.6); at n = 600
# the second MH chain is partly used
SIM4_PINNED_DIGESTS = {
    200: {
        "modips-logistic":
            "8205d28558ffe740e2bd5e7364a8e0b47f56453bfd778381d0eef09a47b1ffb2",
        "ms":
            "dd58fe5c9dc2331311319e87e911748b6d60a804c8ab9ad81e59b079060300f2",
    },
    600: {
        "modips-logistic":
            "648d64499906c756adb16dd054daef77ed8296d11c46e7670955602302a6d93a",
        "ms":
            "4a5a837a7154dbffdb1acb82cc526b693a89dc125049ccd8c3f97176a579d0fe",
    },
}


def _rows_digest(rows, method):
    h = hashlib.sha256()
    for r in rows:
        if r.method == method:
            h.update((",".join(repr(getattr(r, c))
                               for c in METRIC_COLUMNS) + "\n").encode())
    return h.hexdigest()


def test_sim4_rows_match_pinned_digest():
    for n, pinned in SIM4_PINNED_DIGESTS.items():
        rows = run_study(StudyConfig(
            "sim4", n, eps_grid=[math.exp(-2), math.exp(2)], m=3, reps=1,
            methods=list(pinned), seed=11))
        for method, digest in pinned.items():
            assert _rows_digest(rows, method) == digest, (n, method)


# the same digest over sim4's regression coefficients (b1_0 ... b4_4),
# recorded at the parent of the multinomial overflow shift (numpy 2.4.6),
# where this run raised overflow warnings in the multinomial fit; mu1, mu2
# and rho never see the MH sampler, since the predictive draw takes z first.
# modips-logistic and ms were re-pinned when each MH chain of a release
# moved to one random stream, a change of stream consumption that keeps
# the sampler's law (tests/test_sim4_mh_law.py).  All three were re-pinned
# when the two Firth fits shared one Newton loop with the Jeffreys gradient
# in closed form: the synthetic sets stayed byte-identical and the rows
# moved by at most 1.6e-9 (tests/test_firth_equivalence.py).
# modips-logistic and ms were re-pinned when the MH started each target at
# its Firth estimate with a proposal shaped by the inverse information and
# shorter burn-in and thinning, behind the law check of
# tests/test_sim4_mh_law.py
SIM4_COEF_PINNED_DIGESTS = {
    "modips-logistic":
        "ebad3aa209c2b716466d7111e9ffe80db64c6f98f0016bc287565598bf69392e",
    "ms": "093de9c67bf2671dbe11d9f78c3be2aaf86b61abed44613b6f6f63e5017c1ac2",
    "np-dips":
        "d7772ec9bed8e721bb66c12b225b507260e4155f808fd4346a1a1fac3171858f",
}


def test_sim4_coefficient_rows_match_pinned_digest():
    study = STUDIES["sim4"]
    coefs = [p for p in study.values(study.settings({})) if p[0] == "b"]
    assert len(coefs) == 17
    rows = run_study(StudyConfig(
        "sim4", 200, eps_grid=[math.exp(-2), math.exp(2)], m=3, reps=1,
        methods=list(SIM4_COEF_PINNED_DIGESTS), seed=11, parameters=coefs))
    for method, digest in SIM4_COEF_PINNED_DIGESTS.items():
        assert _rows_digest(rows, method) == digest, method


def test_sim4_separated_multinomial_fit_raises_no_warning():
    # at separation the multinomial Firth fit's information is singular:
    # its Jeffreys penalty is -inf without slogdet's divide-by-zero warning
    # (34 of them at n = 150, eps 0.5 and 5, m = 3, reps 3, seed 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_study(StudyConfig(
            "sim4", 150, eps_grid=[0.5, 5.0], m=3, reps=3, seed=5,
            parameters=["b3_0"]))
    assert [(r.method, r.eps, r.reps_used) for r in rows] == [
        (method, eps, used) for eps in (0.5, 5.0)
        for method, used in (("modips-logistic", 2), ("np-dips", 3),
                             ("ms", 3), ("original", 3))]


# the same digest over every sim1 and sim2 method under BIT and under
# truncate, recorded before `perturb_histogram` and `modips_release` shared
# one sanitizer (numpy 2.4.6); at eps e^-9 most truncation windows lie far
# out in the noise's tail
SIM1_SIM2_PINNED_DIGESTS = {
    ("sim1", "BIT"): {
        "modips-bernoulli":
            "14a48518c7032f5385e216162ff429c97faa2b4e9138da216a053176c9396294",
        "laplace":
            "355783351f91f46853fc9b248c8e2a255d1414433f869f3d00cae072c0c5f1eb",
        "md":
            "0971e8211962ab573bfc7cc3be610b0dd2fa2cedb9d464e2ff1d867fb88bac0b",
        "bbmr":
            "34ed54a7165a2a4dcec8349389f9b471349f9f6239dfb5f8dd0ea5ab31e19f46",
        "ms":
            "0ad0a4cde43799c8f2cf1c6b387c5b20c05becdf048796e2b7293496a71e897d",
        "original":
            "965f1b068424441c3008bdcce0882fabdad1ca5282d10aa4da49cbc9bf55df71",
    },
    ("sim1", "truncate"): {
        "modips-bernoulli":
            "e8187e0ad210ff93d4b27a7b5a161dc9c5f8b86425ae212258d17505897851db",
        "laplace":
            "355783351f91f46853fc9b248c8e2a255d1414433f869f3d00cae072c0c5f1eb",
        "md":
            "0971e8211962ab573bfc7cc3be610b0dd2fa2cedb9d464e2ff1d867fb88bac0b",
        "bbmr":
            "34ed54a7165a2a4dcec8349389f9b471349f9f6239dfb5f8dd0ea5ab31e19f46",
        "ms":
            "0ad0a4cde43799c8f2cf1c6b387c5b20c05becdf048796e2b7293496a71e897d",
        "original":
            "965f1b068424441c3008bdcce0882fabdad1ca5282d10aa4da49cbc9bf55df71",
    },
    ("sim2", "BIT"): {
        "modips-normal":
            "e84bcfc66ed353b906a056898ebb0fc94a11669bd723a3367a194220cd1f4c43",
        "modips-normal-conjoint":
            "7b3c11961351b571b1117c0441eee5206fce2593591deb110f9f9387a93a223a",
        "pert-hist":
            "7c511dfb4c999dd680ffeab816245ff8b9d55128b6a8023362979da91ba4e9b3",
        "smooth-hist":
            "b387036055a50e16c950d60f5190f8cc555cdeda0ee856aaf33259c60b3a225c",
        "ms":
            "6a0eaf65689e39607ca53857eae08885968fbf3d0d42aa59d01b74f2d3760fc5",
        "original":
            "57f7d466ed2b81d8446af1032b605704e60792999d68ca6f19b22fc8d64ac432",
    },
    ("sim2", "truncate"): {
        "modips-normal":
            "f9e269e16ac5281d1751e61079271e82999cebec4dd79d96873ab5da5c009d59",
        "modips-normal-conjoint":
            "ed8884863ee805c1a54dc7a3bc10d615410ea8af9df2fd0cb13c3d770309b7a7",
        "pert-hist":
            "7c511dfb4c999dd680ffeab816245ff8b9d55128b6a8023362979da91ba4e9b3",
        "smooth-hist":
            "b387036055a50e16c950d60f5190f8cc555cdeda0ee856aaf33259c60b3a225c",
        "ms":
            "6a0eaf65689e39607ca53857eae08885968fbf3d0d42aa59d01b74f2d3760fc5",
        "original":
            "57f7d466ed2b81d8446af1032b605704e60792999d68ca6f19b22fc8d64ac432",
    },
}


def test_sim1_sim2_rows_match_pinned_digest():
    for (study, postprocess), pinned in SIM1_SIM2_PINNED_DIGESTS.items():
        assert set(pinned) == set(STUDIES[study].methods)
        rows = run_study(StudyConfig(
            study, {"sim1": 40, "sim2": 100}[study],
            eps_grid=[math.exp(-9), math.exp(-2), math.exp(2)], m=3, reps=3,
            methods=list(pinned), seed=11, postprocess=postprocess))
        for method, digest in pinned.items():
            assert _rows_digest(rows, method) == digest, (
                study, postprocess, method)


def _sim3_np_release(eps, ledger, m=3):
    data = simulate_truth_sim3(RngStream(3), 300)
    return STUDIES["sim3"].methods["np-dips"](RngStream(4), data, eps, m,
                                              ledger, "BIT")


def _assert_two_entries_per_set(ledger, eps, m=3):
    shape = [(e.label, e.mode, e.group) for e in ledger.entries]
    assert shape == [
        entry for j in range(m) for entry in (
            (f"np-set{j}-counts", "parallel", f"np-set{j}-counts"),
            (f"np-set{j}-hist", "parallel", f"np-set{j}-hist"))]
    assert all(e.eps == Fraction(eps) / m / 2 for e in ledger.entries)
    assert ledger.spend == ledger.effective_spend_exact() == Fraction(eps)


def test_sim3_np_dips_charges_each_histogram_group_once():
    ledger = PrivacyLedger(PrivacyBudget(0.7))
    sets = _sim3_np_release(0.7, ledger)
    assert len(sets) == 3
    _assert_two_entries_per_set(ledger, 0.7)
    _assert_z_in_cell_bounds(sets)


def _unit_z(ds):
    """Each row's cell and its (z1, z2) scaled to [0, 1] over that cell's
    declared bounds."""
    lower, upper = sim3_cell_bounds()
    cells = np.ravel_multi_index(
        [ds.column("w1"), ds.column("w2"), ds.column("w3")], SIM3_LEVELS)
    z = np.column_stack([ds.column("z1"), ds.column("z2")])
    return cells, (z - lower[cells]) / (upper[cells] - lower[cells])


def _assert_uniform(u, axes=(0, 1)):
    assert len(u) >= 100
    for axis in axes:
        assert stats.kstest(u[:, axis], "uniform").pvalue > 1e-3, axis


def _assert_z_in_cell_bounds(sets):
    for s in sets:
        _, u = _unit_z(s)
        assert np.all(u >= 0) and np.all(u <= 1)


def test_sim3_np_dips_charges_the_group_when_no_cell_has_a_histogram(
        monkeypatch):
    """Every cell's sanitized histogram has no mass: the ledger holds the
    same entries and spend, and every cell fills uniformly over its
    bounds."""
    calls = []
    sanitize = dips.harness.laplace_mechanism

    def no_mass(*args, **kwargs):
        stat = sanitize(*args, **kwargs)
        calls.append(stat.label)
        return dataclasses.replace(stat,
                                   sanitized=np.zeros_like(stat.sanitized))

    monkeypatch.setattr(dips.harness, "laplace_mechanism", no_mass)
    ledger = PrivacyLedger(PrivacyBudget(0.7))
    sets = _sim3_np_release(0.7, ledger)
    # one sanitizing call covers every cell's histogram of a set
    assert calls == ["np-set0-hist", "np-set1-hist", "np-set2-hist"]
    _assert_two_entries_per_set(ledger, 0.7)
    _assert_z_in_cell_bounds(sets)
    _assert_uniform(np.concatenate([_unit_z(s)[1] for s in sets]))


def test_sim3_np_dips_sparse_cells_fill_uniformly(monkeypatch):
    """A cell with no original row, or with one, fills uniformly over its
    bounds, and so does an axis with no spread; a cell with many rows at
    a large eps follows its histogram."""
    data = simulate_truth_sim3(RngStream(5), 2000)
    cells = np.ravel_multi_index(
        [data.column("w1"), data.column("w2"), data.column("w3")],
        SIM3_LEVELS)
    keep = (cells != 0) & ((cells != 1) | (np.cumsum(cells == 1) == 1))
    z1 = np.where(cells == 2, dips.harness.SIM3_MU1[2], data.column("z1"))
    data = dips.harness.TabularDataset(data.columns, {
        **{c: data.column(c)[keep] for c in ("w1", "w2", "w3", "z2")},
        "z1": z1[keep]})
    assert [int(np.sum(cells[keep] == k)) for k in (0, 1)] == [0, 1]
    # every synthetic cell gets 300 rows
    level_codes = np.unravel_index(np.repeat(np.arange(24), 300),
                                   SIM3_LEVELS)
    monkeypatch.setattr(
        dips.harness, "laplace_sanitizer_crosstab",
        lambda *args, **kwargs: dict(zip(("w1", "w2", "w3"), level_codes)))
    [synth] = STUDIES["sim3"].methods["np-dips"](
        RngStream(6), data, 1e4, 1, PrivacyLedger(PrivacyBudget(1e4)), "BIT")
    _assert_z_in_cell_bounds([synth])
    cells, u = _unit_z(synth)
    _assert_uniform(u[cells == 0])
    _assert_uniform(u[cells == 1])
    _assert_uniform(u[cells == 2], axes=(0,))
    # the original rows have unit sd in a box eight sds wide, so a
    # histogram's rows spread far less than uniform ones (sd 1/sqrt(12))
    busy = 3 + int(np.argmax(SIM3_PI[3:]))
    spread = np.std(u[cells == busy], axis=0)
    assert np.all(spread < 1.5 / 8), spread


def test_sim3_np_dips_set_builds_at_most_three_generators(monkeypatch):
    """Each set draws its counts on one generator and every histogram and
    row on another; one substream per cell used to build about 49."""
    data = simulate_truth_sim3(RngStream(3), 1000)
    built = [0]
    generator = RngStream.generator

    def counting(self):
        built[0] += self._gen is None
        return generator.fget(self)

    monkeypatch.setattr(RngStream, "generator", property(counting))
    for m in (1, 5):
        built[0] = 0
        sets = STUDIES["sim3"].methods["np-dips"](
            RngStream(4), data, 1.0, m, PrivacyLedger(PrivacyBudget(1.0)),
            "BIT")
        assert len(sets) == m
        assert built[0] <= 3 * m


# -- the ledger audit ----------------------------------------------------------

AUDIT_N = {"sim1": 80, "sim2": 80, "sim3": 200, "sim4": 150}


def _audit_rep(study, method):
    config = StudyConfig(study, AUDIT_N[study], m=2, reps=1,
                         methods=[method])
    return dips.harness._run_rep(config, method, RngStream(8), 1.0,
                                 list(STUDIES[study].default_params))


@pytest.mark.parametrize("study", list(STUDIES))
@pytest.mark.parametrize("method", ["ms", "original"])
def test_no_budget_methods_are_audited_to_spend_nothing(study, method,
                                                        monkeypatch):
    ledgers = []

    class Recorded(PrivacyLedger):
        def __post_init__(self):
            super().__post_init__()
            ledgers.append(self)

    monkeypatch.setattr(dips.harness, "PrivacyLedger", Recorded)
    _audit_rep(study, method)
    [ledger] = ledgers
    assert ledger.entries == []
    assert ledger.spend == ledger.effective_spend_exact() == 0


def test_audit_refuses_a_no_budget_method_that_charges(monkeypatch):
    def leaky(rng, data, eps, m, ledger, postprocess):
        ledger.charge("leak", Fraction(1, 10))
        return [data]

    monkeypatch.setitem(STUDIES["sim1"].methods, "ms", leaky)
    with pytest.raises(RuntimeError,
                       match=r"ledger audit failure: ms spent 1/10 .* != 0$"):
        _audit_rep("sim1", "ms")


# -- reporting ---------------------------------------------------------------

def _tiny_rows():
    cfg = StudyConfig("sim1", n=80, eps_grid=[1.0], m=2, reps=3,
                      methods=["md"], seed=3)
    return run_study(cfg), cfg


def test_report_round_trip(tmp_path):
    rows, cfg = _tiny_rows()
    index = report(rows, tmp_path, cfg)
    assert index["files"] == {"sim1": "sim1_metrics.csv"}
    with open(tmp_path / "sim1_metrics.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    # floats are written with repr, so each field reads back exactly
    assert back == [{c: str(getattr(r, c)) for c in METRIC_COLUMNS}
                    for r in rows]


def test_report_writes_each_float_as_its_repr(tmp_path):
    """A float field, numpy's float64 included, is written as the repr of
    the Python float; an int as its str."""
    row = MetricRow("sim1", "laplace", "pi", 3, 0.1 + 0.2, 1e16, math.nan,
                    np.float64(1e-05), -0.0, 0)
    report([row], tmp_path)
    with open(tmp_path / "sim1_metrics.csv", newline="") as fh:
        header, fields = list(csv.reader(fh))
    values = [getattr(row, c) for c in METRIC_COLUMNS]
    assert header == METRIC_COLUMNS
    assert fields == [repr(float(v)) if isinstance(v, float) else str(v)
                      for v in values]
    assert fields[3:] == ["3", "0.30000000000000004", "1e+16", "nan",
                          "1e-05", "-0.0", "0"]


def test_report_identical_bytes_for_identical_inputs(tmp_path):
    rows, cfg = _tiny_rows()
    report(rows, tmp_path / "a", cfg)
    report(rows, tmp_path / "b", cfg)
    a = (tmp_path / "a" / "sim1_metrics.csv").read_bytes()
    b = (tmp_path / "b" / "sim1_metrics.csv").read_bytes()
    assert a == b


def test_report_header_only_when_no_rows(tmp_path):
    cfg = StudyConfig("sim1", n=10, reps=1)
    report([], tmp_path, cfg)
    text = (tmp_path / "sim1_metrics.csv").read_text().strip()
    assert text == ",".join(METRIC_COLUMNS)
