import csv
import hashlib
import json

import numpy as np
import pytest

from dips.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, SYNTH_METHODS, main


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
}


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


def test_synth_budget_violation_exit_code(binary_csv, tmp_path, monkeypatch):
    # force an overcharge: patch the md synthesizer to bill double
    import dips.synthesizers as synth_mod
    from fractions import Fraction

    real = synth_mod.md_synthesizer

    def greedy(rng, counts, eps, m=1, ledger=None):
        rel = real(rng, counts, eps, m, ledger=None)
        if ledger is not None:
            for j in range(2 * m):
                ledger.charge(f"md-set-{j}", Fraction(eps) / m)
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
