import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dips
import dips.dataset
import dips.harness
from dips.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, SYNTH_METHODS,
                      _load_csv, main)
from dips.budget import PrivacyBudget, PrivacyLedger
from dips.dataset import ContinuousColumn, TabularDataset
from dips.randvar import RngStream
from dips.synthesizers import SYNTHESIZERS


@pytest.fixture
def binary_csv(tmp_path):
    path = tmp_path / "binary.csv"
    rng = np.random.default_rng(0)
    x = (rng.random(200) < 0.3).astype(int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"])
        writer.writerows([[v] for v in x])
    return path


@pytest.fixture
def continuous_csv(tmp_path):
    path = tmp_path / "cont.csv"
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, size=150)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"])
        writer.writerows([[repr(float(v))] for v in x])
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# method -> (input fixture, rows, released sets, ledger entries) at --m 3
SYNTH_CASES = {
    "laplace": ("binary_csv", 200, 3, 3),
    "pert-hist": ("continuous_csv", 150, 3, 3),
    "smooth-hist": ("continuous_csv", 150, 1, 1),
    "md": ("binary_csv", 200, 3, 3),
    "bbmr": ("binary_csv", 200, 1, 1),
    "modips-bernoulli": ("binary_csv", 200, 3, 3),
    "modips-normal": ("continuous_csv", 150, 3, 6),
}


@pytest.mark.parametrize("method", SYNTH_METHODS)
def test_synth_writes_sets_and_ledger(method, request, tmp_path):
    fixture, n_rows, n_sets, n_entries = SYNTH_CASES[method]
    out = tmp_path / "out"
    code = main(["synth", "--input", str(request.getfixturevalue(fixture)),
                 "--method", method, "--eps", "1.0", "--m", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert len(list(out.glob("synth_*.csv"))) == n_sets
    for j in range(1, n_sets + 1):
        header, rows = _read_csv(out / f"synth_{j}.csv")
        assert header == ["x"]
        assert len(rows) == n_rows
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["total"] == 1.0
    assert ledger["effective_spend"] == pytest.approx(1.0, abs=1e-12)
    assert len(ledger["entries"]) == n_entries


# sha256 over the name and bytes of every file `dips synth` writes
# (ledger.json included) at --eps 1.0 --m 3 --seed 7, recorded before
# `perturb_histogram` and `modips_release` shared one sanitizer (numpy 2.4.6)
SYNTH_PINNED_DIGESTS = {
    "laplace": (
        "binary_csv",
        "b744ac28301ff7821450592f3bff3c1e477818891c657e9421a51b7e32519997"),
    "pert-hist": (
        "continuous_csv",
        "677b4db1c13ea9d47291c40c46461e375213657047f727ff4ee2c027b2d21aae"),
    "modips-normal": (
        "continuous_csv",
        "cf9163e8b3170f6dfea94199e7ddd39063c8a2b11d0b734c194f583155f0df47"),
    # recorded while md and bbmr still returned a SyntheticRelease
    "md": (
        "binary_csv",
        "504607a887f14cbea1f9a4307ea45a651ec548afc327e86ad90a6b564aaf2522"),
    "bbmr": (
        "binary_csv",
        "fe18e3b6339b8b702246946b583443554e43e2357b616f0eb971c15e9f7ae7b3"),
    "smooth-hist": (
        "continuous_csv",
        "b48143ec108a3ade6a20cf776f93a08e259568106856c9f314cc7b91bb6cb675"),
    "modips-bernoulli": (
        "binary_csv",
        "ea23d4df490077de6fba7aa314ccca650eb40de74218fb29d0780d2722d425f9"),
}


def test_every_synth_method_has_a_pinned_digest():
    assert set(SYNTH_PINNED_DIGESTS) == set(SYNTH_METHODS)


def _synth_digest(input_path, method, out):
    code = main(["synth", "--input", str(input_path), "--method", method,
                 "--eps", "1.0", "--m", "3", "--seed", "7",
                 "--out", str(out)])
    assert code == EXIT_OK
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("method", list(SYNTH_PINNED_DIGESTS))
def test_synth_outputs_match_pinned_digest(method, request, tmp_path):
    fixture, pinned = SYNTH_PINNED_DIGESTS[method]
    digest = _synth_digest(request.getfixturevalue(fixture), method,
                           tmp_path / "out")
    assert digest == pinned


def test_synth_tiny_eps_drops_sets_without_mass(binary_csv, tmp_path,
                                                capsys):
    out = tmp_path / "out"
    code = main(["synth", "--input", str(binary_csv), "--method", "laplace",
                 "--eps", "1e-4", "--m", "5", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    written = sorted(p.name for p in out.glob("synth_*.csv"))
    assert 1 <= len(written) < 5
    assert written == [f"synth_{j}.csv" for j in range(1, len(written) + 1)]
    assert f"dropped {5 - len(written)} of 5" in capsys.readouterr().out
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["effective_spend"] == pytest.approx(1e-4, rel=1e-12)


def test_synth_no_surviving_set_exits_2_with_ledger(binary_csv, tmp_path,
                                                    capsys):
    out = tmp_path / "out"
    code = main(["synth", "--input", str(binary_csv), "--method", "laplace",
                 "--eps", "1e-4", "--m", "1", "--seed", "9",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not list(out.glob("synth_*.csv"))
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["effective_spend"] == pytest.approx(1e-4, rel=1e-12)


def test_synth_deterministic_bytes(binary_csv, tmp_path):
    args = ["synth", "--input", str(binary_csv), "--method", "bbmr",
            "--eps", "0.5", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "synth_1.csv").read_bytes()
    b = (tmp_path / "b" / "synth_1.csv").read_bytes()
    assert a == b


def test_synth_modips_normal(continuous_csv, tmp_path):
    out = tmp_path / "out"
    code = main(["synth", "--input", str(continuous_csv),
                 "--method", "modips-normal", "--eps", "2.0", "--m", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _read_csv(out / "synth_1.csv")
    assert header == ["x"] and len(rows) == 150


def test_synth_pert_hist(continuous_csv, tmp_path):
    out = tmp_path / "out"
    code = main(["synth", "--input", str(continuous_csv),
                 "--method", "pert-hist", "--eps", "1.0", "--m", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "synth_2.csv").exists()


def test_synth_schema_file(continuous_csv, tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"x": {"type": "continuous",
                                        "lo": -6.0, "hi": 6.0}}))
    out = tmp_path / "out"
    code = main(["synth", "--input", str(continuous_csv),
                 "--method", "smooth-hist", "--eps", "1.0",
                 "--schema", str(schema), "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _read_csv(out / "synth_1.csv")
    assert len(rows) == 150


def test_synth_config_errors(binary_csv, continuous_csv, tmp_path):
    out = str(tmp_path / "out")
    # missing input file
    assert main(["synth", "--input", str(tmp_path / "nope.csv"),
                 "--method", "md", "--eps", "1", "--out", out]) == EXIT_CONFIG
    # non-positive budget
    assert main(["synth", "--input", str(binary_csv), "--method", "md",
                 "--eps", "0", "--out", out]) == EXIT_CONFIG
    # method/data mismatch
    assert main(["synth", "--input", str(continuous_csv), "--method", "bbmr",
                 "--eps", "1", "--out", out]) == EXIT_CONFIG


@pytest.mark.parametrize("eps", ["inf", "1e400", "nan"])
def test_synth_non_finite_eps_exits_2(eps, binary_csv, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["synth", "--input", str(binary_csv), "--method", "md",
                 "--eps", eps, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "configuration error: epsilon must be positive and finite"), err
    assert not out.exists()


def test_synth_budget_violation_exit_code(binary_csv, tmp_path, monkeypatch):
    # force an overcharge: patch the md synthesizer to bill double
    import dips.synthesizers as synth_mod
    from fractions import Fraction

    real = synth_mod.md_synthesizer

    def greedy(rng, counts, eps, m=1, *, ledger):
        rel = real(rng, counts, eps, m, ledger=ledger)
        for j in range(m):
            ledger.charge(f"md-set-{m + j}", Fraction(eps) / m)
        return rel

    monkeypatch.setattr(synth_mod, "md_synthesizer", greedy)
    code = main(["synth", "--input", str(binary_csv), "--method", "md",
                 "--eps", "1.0", "--m", "2", "--out", str(tmp_path / "o")])
    assert code == EXIT_BUDGET


def test_bench_smoke(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 100, "eps_grid": [1.0], "m": 2, "methods": ["md"], "seed": 4,
    }))
    out = tmp_path / "bench"
    code = main(["bench", "--study", "sim1", "--config", str(cfg),
                 "--reps", "3", "--out", str(out)])
    assert code == EXIT_OK
    index = json.loads((out / "index.json").read_text())
    assert index["files"] == {"sim1": "sim1_metrics.csv"}
    header, rows = _read_csv(out / "sim1_metrics.csv")
    assert header[0] == "study" and len(rows) == 1


def test_bench_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "methods": ["pert-hist"]}))
    code = main(["bench", "--study", "sim1", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def _one_config_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err


def test_bench_non_object_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1]")
    code = main(["bench", "--study", "sim1", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    _one_config_error(capsys)


@pytest.mark.parametrize("study, cfg", [
    ("sim1", {"reps": 1.5}), ("sim1", {"n": 50.5}), ("sim1", {"m": 2.5}),
    ("sim1", {"seed": 1.5}), ("sim1", {"n": True}),
    ("sim1", {"truth": {"p": 0.9}}), ("sim1", {"eps_grid": [1e400]}),
    ("sim1", {"truth": {"pi": None}}), ("sim1", {"truth": {"pi": [0.3]}}),
    ("sim1", {"truth": {"pi": "0.3"}}), ("sim2", {"truth": {"mu": None}}),
    ("sim1", {"methods": ["md", "md"]}),
    ("sim1", {"eps_grid": [1.0, 1.0]}),
    ("sim2", {"parameters": ["mu", "mu"]}),
    ("sim2", {"parameters": ["kurtosis"]}), ("sim2", {"parameters": []}),
    ("sim1", {"eps_grid": [True]}), ("sim1", {"seed": -1}),
    ("sim1", {"truth": {"pi": 10 ** 400}}),
    ("sim1", {"eps_grid": [10 ** 400]}),
], ids=["reps", "n", "m", "seed", "bool-n", "unread-truth-key",
        "infinite-eps", "null-truth", "list-truth", "string-truth",
        "null-sim2-truth", "repeated-method", "repeated-eps",
        "repeated-parameter", "unknown-parameter", "no-parameters",
        "bool-eps", "negative-seed", "huge-int-truth", "huge-int-eps"])
def test_bench_config_value_errors_exit_2(study, cfg, tmp_path, capsys,
                                          monkeypatch):
    def replication_ran(*args, **kwargs):
        raise AssertionError("a replication ran before the refusal")

    monkeypatch.setattr(dips.harness, f"simulate_truth_{study}",
                        replication_ran)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["bench", "--study", study, "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    _one_config_error(capsys)


@pytest.mark.parametrize("truth", [[], ["pi"]])
def test_bench_non_object_truth_exits_2(truth, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"truth": truth, "reps": 1}))
    code = main(["bench", "--study", "sim1", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: truth must be an object of "
                   f"settings, got {truth!r}"]


@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_bench_sim2_bad_sigma2_names_study_and_setting(value, tmp_path,
                                                       capsys, monkeypatch):
    def replication_ran(*args, **kwargs):
        raise AssertionError("a replication ran before the refusal")

    monkeypatch.setattr(dips.harness, "simulate_truth_sim2", replication_ran)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"truth": {"sigma2": value}}))
    code = main(["bench", "--study", "sim2", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: sim2 truth 'sigma2' must be a "
                   f"finite number in (0, inf), got {value!r}"]


@pytest.mark.parametrize("truth, message", [
    ({"mu": 1e17}, "sim2 truth 'mu' = 1e+17 leaves no room between the "
                   "bounds at sigma2 = 1.0: both round to 1e+17"),
    ({"sigma2": 1e-320}, "sim2 truth 'sigma2' = 1e-320 is out of the "
                         "study's numeric range"),
])
def test_bench_sim2_joint_truth_exits_2_before_any_replication(
        truth, message, tmp_path, capsys, monkeypatch):
    def replication_ran(*args, **kwargs):
        raise AssertionError("a replication ran before the refusal")

    monkeypatch.setattr(dips.harness, "simulate_truth_sim2", replication_ran)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"truth": truth}))
    code = main(["bench", "--study", "sim2", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(f"configuration error: {message}")


def test_bench_config_study_must_match_flag(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"study": "sim2", "n": 50}))
    code = main(["bench", "--study", "sim1", "--config", str(path),
                 "--reps", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: the config's study 'sim2' differs "
                   "from --study sim1"]
    assert not (tmp_path / "o").exists()


def test_synth_modips_normal_one_row_exits_2(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("x\n0.5\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"x": {"type": "continuous",
                                        "lo": 0.0, "hi": 1.0}}))
    code = main(["synth", "--input", str(path), "--method", "modips-normal",
                 "--eps", "1.0", "--schema", str(schema),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    _one_config_error(capsys)


def test_bench_sim2_one_row_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 1}))
    code = main(["bench", "--study", "sim2", "--config", str(cfg),
                 "--reps", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    _one_config_error(capsys)


def test_synth_unreadable_input_exits_2(tmp_path, capsys):
    # a directory where a CSV is expected raises IsADirectoryError
    code = main(["synth", "--input", str(tmp_path), "--method", "md",
                 "--eps", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bench_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["bench", "--study", "sim1", "--config", str(tmp_path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def _synth_exit(tmp_path, text, schema=None, method="md"):
    path = tmp_path / "in.csv"
    path.write_text(text)
    argv = ["synth", "--input", str(path), "--method", method,
            "--eps", "1.0", "--m", "1", "--out", str(tmp_path / "o")]
    if schema is not None:
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(schema if isinstance(schema, str)
                               else json.dumps(schema))
        argv += ["--schema", str(schema_path)]
    return main(argv)


@pytest.mark.parametrize("text, schema, message", [
    ("x,x\n1,0\n0,1\n", None, "duplicate CSV column name 'x'"),
    ("x\n1.5\n0.7\n1\n", {"x": {"type": "categorical", "levels": 2}},
     "categorical column 'x' holds a non-integer code 1.5"),
    ("x\n" + "1\n" * 9000 + "1,0\n", None, "ragged CSV row: ['1', '0']"),
    ("x\n1\n\n0\n", None, "ragged CSV row: []"),
    ("", None, "input CSV has no columns"),
], ids=["duplicate-name", "non-integer-code", "ragged-later-block",
        "blank-line", "empty-file"])
def test_synth_bad_input_csv_exits_2(text, schema, message, tmp_path,
                                     capsys):
    assert _synth_exit(tmp_path, text, schema) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: {message}"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_synth_over_long_field_exits_2(cpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dips.dataset, "_usable_cpus", lambda: cpus)
    rows = ["1,0"] * (3 * dips.dataset.BLOCK_ROWS) + ["1," + "9" * 200_000]
    assert _synth_exit(tmp_path, "x,y\n" + "\n".join(rows) + "\n") \
        == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: {tmp_path / 'in.csv'}: field "
                   "larger than field limit (131072)"]


def test_synth_reads_a_piped_input(tmp_path):
    src = str(Path(dips.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "dips.cli", "synth", "--input", "/dev/stdin",
         "--method", "md", "--eps", "1.0", "--m", "1", "--out", str(out)],
        input="x\n0\n1\n1\n0\n", env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert sorted(p.name for p in out.iterdir()) == ["ledger.json",
                                                     "synth_1.csv"]


CONTINUOUS_X = {"x": {"type": "continuous", "lo": 0.0, "hi": 1.0}}


@pytest.mark.parametrize("text, schema, message", [
    ("x\n0.5\nnan\n0.2\n", CONTINUOUS_X,
     "column 'x' holds a non-finite value nan"),
    ("x\n0.5\ninf\n0.2\n", None, "column 'x' holds a non-finite value inf"),
    ("x\n", None, "column 'x' has no rows to infer its type from; declare "
     "it in a schema"),
    # Scott's width for these rows is far below the range's scale
    ("x\n0.0\n1e-160\n0.0\n",
     {"x": {"type": "continuous", "lo": 0.0, "hi": 1e300}},
     "a grid of inf cells is more than the 16777216 allowed"),
], ids=["nan-under-schema", "inf", "header-only-without-schema",
        "width-below-range-scale"])
def test_synth_unusable_values_exit_2_without_warnings(text, schema, message,
                                                       tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _synth_exit(tmp_path, text, schema, method="pert-hist")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: {message}"]


NOT_AN_OBJECT = "the schema must be a JSON object of column objects"


@pytest.mark.parametrize("schema, method, message", [
    ("[1, 2]", "md", NOT_AN_OBJECT),
    ('{"x": 5}', "md", NOT_AN_OBJECT),
    *[('{"x": {"type": "continuous", "lo": -Infinity, "hi": 1}}', method,
       "column 'x' needs finite bounds, got [-inf, 1.0]")
      for method in ("pert-hist", "smooth-hist", "modips-normal")],
    ('{"x": {"type": "continuous", "lo": null, "hi": 1}}', "pert-hist",
     "column 'x' needs numeric lo and hi, got None and 1"),
    ('{"x": {"type": "categorical", "levels": 1e400}}', "md",
     "column 'x' needs a positive integer levels, got inf"),
    ('{"x": {"type": "categorical", "levels": 2.7}}', "md",
     "column 'x' needs a positive integer levels, got 2.7"),
    ('{"x": {"type": "categorical", "levels": "2"}}', "md",
     "column 'x' needs a positive integer levels, got '2'"),
    ('{"x": {"type": "categorial", "levels": 2}}', "md",
     "column 'x' needs a type of categorical or continuous, got "
     "'categorial'"),
    ('{"x": {"type": "categorical", "levels": 2}, '
     '"yy": {"type": "continuous", "lo": 0, "hi": 1}}', "pert-hist",
     "schema key 'yy' names no CSV column"),
], ids=["list", "entry-not-object", "neg-inf-lo-pert-hist",
        "neg-inf-lo-smooth-hist", "neg-inf-lo-modips-normal", "null-lo",
        "levels-overflow", "fractional-levels", "string-levels",
        "misspelled-type", "key-names-no-column"])
def test_synth_bad_schema_exits_2_without_warnings(schema, method, message,
                                                   tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _synth_exit(tmp_path, "x\n0\n1\n1\n0\n", schema, method)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert err[0].endswith(message)


def test_load_csv_tests_a_huge_value_before_casting(tmp_path):
    # a cast of -1e19 to int64 is out of range and warns
    path = tmp_path / "big.csv"
    path.write_text("x,w\n-1e19,1\n0.5,0\n2,3\n")
    ds = _load_csv(str(path), None)
    assert isinstance(ds.columns[0], ContinuousColumn)
    assert ds.column("x").tolist() == [-1e19, 0.5, 2.0]
    assert ds.column("w").dtype == np.int64


def test_load_csv_reads_quoted_and_padded_numbers(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('w,"z"\n"1", 0.5\n 0 ,"-1.25 "\n2,3\n')
    ds = _load_csv(str(path), None)
    assert ds.column("w").tolist() == [1, 0, 2]
    assert ds.column("w").dtype == np.int64
    assert ds.column("z").tolist() == [0.5, -1.25, 3.0]


def test_synth_header_only_csv_with_schema(tmp_path):
    schema = {"x": {"type": "categorical", "levels": 2},
              "y": {"type": "continuous", "lo": 0.0, "hi": 1.0}}
    code = _synth_exit(tmp_path, "x,y\n", schema, method="pert-hist")
    assert code == EXIT_OK
    assert (tmp_path / "o" / "synth_1.csv").read_bytes() == b"x,y\r\n"


def test_synth_smooth_hist_header_only_csv_exits_2(tmp_path, capsys):
    schema = {"x": {"type": "categorical", "levels": 2},
              "y": {"type": "continuous", "lo": 0.0, "hi": 1.0}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _synth_exit(tmp_path, "x,y\n", schema, method="smooth-hist")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: the smoothed histogram needs at "
                   "least one row"]
    assert not (tmp_path / "o" / "ledger.json").exists()


@pytest.mark.parametrize("method", ["pert-hist", "smooth-hist", "md",
                                    "laplace"])
def test_synth_huge_level_count_exits_2(method, tmp_path, capsys):
    # the level set is a range: only the grid's cell count is refused
    schema = {"x": {"type": "categorical", "levels": 10 ** 12}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _synth_exit(tmp_path, "x\n0\n1\n1\n0\n", schema, method)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: a grid of {10 ** 12} cells is more "
                   "than the 16777216 allowed"]


@pytest.mark.parametrize("method", ["pert-hist", "smooth-hist"])
def test_synth_equal_rows_take_one_bin(method, tmp_path):
    # seven rows of 0.1 have a numpy sd of 1.5e-17, not 0: Scott's rule
    # must still give the column one bin, so x is uniform over [0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _synth_exit(tmp_path, "x\n" + "0.1\n" * 7, CONTINUOUS_X,
                           method)
    assert code == EXIT_OK
    header, rows = _read_csv(tmp_path / "o" / "synth_1.csv")
    x = np.array([float(r[0]) for r in rows])
    assert header == ["x"] and len(x) == 7
    assert np.all((x >= 0.0) & (x <= 1.0)) and len(set(x)) == 7
    data = TabularDataset(
        [ContinuousColumn("x", 0.0, 1.0)], {"x": np.full(2000, 0.1)})
    sets = SYNTHESIZERS[method](RngStream(4), data, 1.0, 1,
                                PrivacyLedger(PrivacyBudget(1.0)), "BIT")
    assert stats.kstest(sets[0].column("x"), "uniform").pvalue > 0.01


@pytest.mark.parametrize("n", [20, 24, 25])
def test_bench_sim3_too_few_rows_exits_2(n, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": n, "m": 2, "eps_grid": [1.0]}))
    code = main(["bench", "--study", "sim3", "--config", str(cfg),
                 "--reps", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: the mixture model needs at least 26 "
                   f"rows, 2 more than its 24 cells, got n = {n}"]


ONE_LEVEL_X = {"x": {"type": "categorical", "levels": 1}}


@pytest.mark.parametrize("text, schema", [
    ("x\n0\n1\n2\n1\n0\n", None),
    # a 1-level column must not receive the code 1 a Bernoulli draw yields
    ("x\n" + "0\n" * 50, ONE_LEVEL_X),
], ids=["code-above-1", "one-level-column"])
def test_synth_modips_bernoulli_needs_a_binary_column(text, schema, tmp_path,
                                                      capsys):
    code = _synth_exit(tmp_path, text, schema, method="modips-bernoulli")
    assert code == EXIT_CONFIG
    _one_config_error(capsys)
    assert not (tmp_path / "o" / "ledger.json").exists()


@pytest.fixture
def one_level_csv(tmp_path):
    path = tmp_path / "one_level.csv"
    path.write_text("x\n" + "0\n" * 50)
    schema = tmp_path / "one_level.json"
    schema.write_text(json.dumps(ONE_LEVEL_X))
    return path, schema


@pytest.mark.parametrize("fixture", ["binary_csv", "continuous_csv",
                                     "one_level_csv"])
@pytest.mark.parametrize("method", SYNTH_METHODS)
def test_synth_sets_conform_to_the_declared_schema(method, fixture, request):
    # several synthesizers build their sets unvalidated: rebuild each one
    # with validation on, so a value outside the declared schema fails here
    path = request.getfixturevalue(fixture)
    path, schema = path if isinstance(path, tuple) else (path, None)
    data = _load_csv(str(path), schema and str(schema))
    for eps in (1.0, 0.01):
        ledger = PrivacyLedger(PrivacyBudget(eps))
        try:
            sets = SYNTHESIZERS[method](RngStream(3), data, eps, 2, ledger,
                                        "BIT")
        except ValueError:
            # the method refuses this input, before spending any budget
            assert ledger.entries == []
            continue
        for s in sets:
            assert s.columns == data.columns
            TabularDataset(s.columns, s.data)
