import math

import numpy as np
import pytest
from scipy import stats

from dips.harness import (
    DEFAULT_PARAMS,
    METRIC_COLUMNS,
    SIM3_LEVELS,
    SIM3_PI,
    SIM4_BETA1,
    MetricRow,
    StudyConfig,
    empty_cell_study,
    load_metrics,
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


# -- config / row validation -------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown study"):
        StudyConfig("sim9", 100)
    with pytest.raises(ValueError, match="positive"):
        StudyConfig("sim1", 0)
    with pytest.raises(ValueError, match="sorted"):
        StudyConfig("sim1", 100, eps_grid=[1.0, 0.1])
    with pytest.raises(ValueError, match="not valid"):
        StudyConfig("sim1", 100, methods=["pert-hist"])
    cfg = StudyConfig("sim2", 100)
    assert cfg.methods == list(
        ("modips-normal", "modips-normal-conjoint", "pert-hist",
         "smooth-hist", "ms", "original"))


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
    cfg = StudyConfig("sim2", n=100, reps=2, parameters=["kurtosis"])
    with pytest.raises(ValueError, match="unknown parameters"):
        run_study(cfg)


def test_run_study_sim2_both_parameters():
    cfg = StudyConfig("sim2", n=200, eps_grid=[100.0], m=2, reps=5,
                      methods=["modips-normal"], seed=11)
    rows = run_study(cfg)
    assert {r.parameter for r in rows} == {"mu", "sigma2"}
    for r in rows:
        assert r.usable_fraction == 1.0
        assert math.isfinite(r.bias)


def test_default_params_cover_every_study():
    assert set(DEFAULT_PARAMS) == {"sim1", "sim2", "sim3", "sim4"}


def test_truncation_nonconvergence_counts_as_unusable(monkeypatch):
    import dips.inference
    import dips.mechanisms

    assert dips.mechanisms.NonConvergence is dips.inference.NonConvergence
    monkeypatch.setattr(dips.mechanisms, "TRUNCATE_MAX_REDRAWS", 5)
    cfg = StudyConfig("sim1", n=40, eps_grid=[math.exp(-9)], reps=3,
                      methods=["modips-bernoulli"], postprocess="truncate")
    (row,) = run_study(cfg)
    assert row.usable_fraction < 1


def test_empty_cell_study_runs():
    v = empty_cell_study(math.exp(4), reps=2, seed=5, method="modips-mixture",
                         n=400, m=2)
    assert 0.0 <= v <= 24.0


# -- reporting ---------------------------------------------------------------

def _tiny_rows():
    cfg = StudyConfig("sim1", n=80, eps_grid=[1.0], m=2, reps=3,
                      methods=["md"], seed=3)
    return run_study(cfg), cfg


def test_report_round_trip(tmp_path):
    rows, cfg = _tiny_rows()
    index = report(rows, tmp_path, cfg)
    assert index["files"] == {"sim1": "sim1_metrics.csv"}
    back = load_metrics(tmp_path / "sim1_metrics.csv")
    assert back == rows


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
