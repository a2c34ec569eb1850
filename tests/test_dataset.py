import csv
import json
import multiprocessing
import os
import re
import tempfile
import warnings
from multiprocessing.process import BaseProcess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dips import dataset
from dips.cli import EXIT_CONFIG, main
from dips.dataset import (BLOCK_ROWS, CategoricalColumn, ContinuousColumn,
                          TabularDataset, category_codes, read_numeric_csv)
from dips.harness import simulate_truth_sim3
from dips.randvar import RngStream


def _read_back(path) -> dict[str, np.ndarray]:
    header, columns = read_numeric_csv(path)
    return dict(zip(header, columns))


def _toy():
    cols = [
        CategoricalColumn("color", ("red", "green", "blue")),
        ContinuousColumn("x", -2.0, 5.0),
    ]
    data = {
        "color": np.array([0, 2, 1, 1], dtype=np.int64),
        "x": np.array([0.1, -1.5, 4.999, 3.25]),
    }
    return TabularDataset(cols, data)


def test_basic_shape():
    ds = _toy()
    assert ds.n == 4
    assert ds.column("x")[2] == 4.999


def test_empty_schema_has_zero_rows():
    ds = TabularDataset([], {})
    assert ds.n == 0


def test_name_mismatch_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0)]
    with pytest.raises(ValueError, match="mismatch"):
        TabularDataset(cols, {"y": np.zeros(3)})


def test_ragged_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0), ContinuousColumn("y", 0.0, 1.0)]
    with pytest.raises(ValueError, match="ragged"):
        TabularDataset(cols, {"x": np.zeros(3), "y": np.zeros(2)})


def test_out_of_bounds_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0)]
    with pytest.raises(ValueError, match="out of bounds"):
        TabularDataset(cols, {"x": np.array([0.5, 1.5])})
    # but allowed when validation is off
    ds = TabularDataset(cols, {"x": np.array([0.5, 1.5])}, validate=False)
    assert ds.n == 2


def test_bad_codes_rejected():
    cols = [CategoricalColumn("c", ("a", "b"))]
    with pytest.raises(ValueError, match="codes"):
        TabularDataset(cols, {"c": np.array([0, 2])})
    with pytest.raises(ValueError, match="codes"):
        TabularDataset(cols, {"c": np.array([-1, 0])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
def test_float_categorical_codes_must_be_whole_and_finite(bad):
    # NaN passes both range comparisons, so only the whole-code rule of
    # category_codes catches it
    cols = [CategoricalColumn("c", range(3))]
    with pytest.raises(ValueError, match="'c' holds a non-integer code"):
        TabularDataset(cols, {"c": np.array([0.0, bad])})
    assert TabularDataset(cols, {"c": np.array([0.0, 2.0])}).n == 2


def test_degenerate_columns_rejected():
    with pytest.raises(ValueError):
        CategoricalColumn("c", ())
    with pytest.raises(ValueError):
        ContinuousColumn("x", 1.0, 1.0)
    with pytest.raises(ValueError):
        ContinuousColumn("x", 2.0, 1.0)
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite bounds"):
            ContinuousColumn("x", lo, hi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_continuous_value_rejected(bad):
    cols = [ContinuousColumn("x", 0.0, 1.0)]
    values = np.array([0.5, bad, 0.2])
    with pytest.raises(ValueError, match="non-finite value in 'x'"):
        TabularDataset(cols, {"x": values})
    assert TabularDataset(cols, {"x": values}, validate=False).n == 3


def test_csv_round_trip(tmp_path):
    ds = _toy()
    path = tmp_path / "toy.csv"
    ds.to_csv(path)
    back = _read_back(path)
    assert list(back) == ["color", "x"]
    np.testing.assert_array_equal(
        category_codes("color", back["color"], len(ds.columns[0].levels)),
        ds.column("color"))
    # floats are written with repr, so the round trip is exact
    np.testing.assert_array_equal(back["x"], ds.column("x"))


def test_csv_round_trip_preserves_awkward_floats(tmp_path):
    cols = [ContinuousColumn("x", -10.0, 10.0)]
    vals = np.array([0.1 + 0.2, 1 / 3, -9.999999999999998])
    ds = TabularDataset(cols, {"x": vals})
    path = tmp_path / "f.csv"
    ds.to_csv(path)
    np.testing.assert_array_equal(_read_back(path)["x"], vals)


def _reference_to_csv(ds, path):
    """The row-at-a-time writer that the block writer replaced: the bytes
    every written CSV must keep."""
    names = [c.name for c in ds.columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        arrays = [ds.data[name] for name in names]
        for row in zip(*arrays):
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _assert_same_bytes(ds, tmp_path):
    ds.to_csv(tmp_path / "block.csv")
    _reference_to_csv(ds, tmp_path / "reference.csv")
    assert ((tmp_path / "block.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


AWKWARD_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05,
                  0.1 + 0.2, 1 / 3, -2.5, 0.0, 123456789.125]


def _unchecked(**columns):
    cols = [ContinuousColumn(name, -1.0, 1.0) for name in columns]
    return TabularDataset(cols, columns, validate=False)


@pytest.mark.parametrize("values", [
    np.array(AWKWARD_FLOATS),
    np.array([3, -7, 0, 2 ** 40], dtype=np.int64),
    np.array([True, False, True]),
    np.array(AWKWARD_FLOATS, dtype=np.float32),
    np.array([1, 0, 2], dtype=object),
    np.array([1, 0.5, np.float64(-0.0), np.float32(0.1), True],
             dtype=object),
], ids=["float64", "int64", "bool", "float32", "object-ints",
        "object-mixed"])
def test_to_csv_bytes_match_row_writer(values, tmp_path):
    _assert_same_bytes(_unchecked(v=values, w=values[::-1].copy()), tmp_path)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                               BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 77])
def test_to_csv_bytes_match_row_writer_across_blocks(n, tmp_path):
    rng = np.random.default_rng(n)
    ds = _unchecked(a=rng.normal(size=n),
                    b=rng.integers(0, 5, size=n),
                    c=rng.random(n) < 0.5)
    _assert_same_bytes(ds, tmp_path)
    cols = [ContinuousColumn("a", -10.0, 10.0),
            CategoricalColumn("b", tuple(range(5)))]
    numeric = TabularDataset(cols, {"a": ds.column("a"), "b": ds.column("b")})
    numeric.to_csv(tmp_path / "numbers.csv")
    back = _read_back(tmp_path / "numbers.csv")
    assert [len(v) for v in back.values()] == [n, n]
    np.testing.assert_array_equal(back["a"], ds.column("a"))
    np.testing.assert_array_equal(category_codes("b", back["b"], 5),
                                  ds.column("b"))


def test_to_csv_quotes_header_names(tmp_path):
    ds = _unchecked(**{"a,b": np.array([0.5, -0.25]),
                       'say "hi"': np.array([1, 2])})
    _assert_same_bytes(ds, tmp_path)
    assert (tmp_path / "block.csv").read_bytes().startswith(
        b'"a,b","say ""hi"""\r\n')


def _record_forks(monkeypatch) -> list:
    """The writer and reader processes started, recorded as they start."""
    started = []
    start_child = dataset._start_child

    def recorded(*args):
        started.append(start_child(*args))
        return started[-1]
    monkeypatch.setattr(dataset, "_start_child", recorded)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 77,
                               5 * BLOCK_ROWS + 1])
def test_to_csv_bytes_match_row_writer_on_any_cpu_count(cpus, n, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: cpus)
    forks = _record_forks(monkeypatch)
    rng = np.random.default_rng(n)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    floats[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:n]
    mixed = np.array([int(v) if i % 3 else v
                      for i, v in enumerate(rng.normal(size=n).tolist())],
                     dtype=object)
    ds = _unchecked(f=floats, i=rng.integers(-2 ** 40, 2 ** 40, size=n),
                    b=rng.random(n) < 0.5, o=mixed)
    _assert_same_bytes(ds, tmp_path)
    blocks = -(-n // BLOCK_ROWS)
    runs = max(1, min(cpus, blocks)) if hasattr(os, "fork") else 1
    assert len(forks) == runs - 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["block.csv",
                                                         "reference.csv"]


def test_to_csv_checks_types_before_any_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    forks = _record_forks(monkeypatch)
    values = np.arange(2 * BLOCK_ROWS + 77).astype(object)
    values[-1] = "1,2"
    with pytest.raises(TypeError, match="'v' holds a non-numeric value"):
        _unchecked(v=values).to_csv(tmp_path / "s.csv")
    assert forks == []
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def run_1_fails(monkeypatch):
    """Two writers over three blocks; formatting any row of run 1 (blocks
    1 and 2, in the forked child) raises.  Returns the row count."""
    if not hasattr(os, "fork"):
        pytest.skip("this platform has no fork, so no writer child to fail")
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    block_text = dataset._block_text

    def failing(names, data, start):
        if start >= BLOCK_ROWS:
            raise RuntimeError("no room left")
        return block_text(names, data, start)
    monkeypatch.setattr(dataset, "_block_text", failing)
    return 2 * BLOCK_ROWS + 77


def test_to_csv_raises_oserror_when_a_writer_fails(run_1_fails, tmp_path):
    x = np.random.default_rng(0).random(run_1_fails)
    ds = TabularDataset([ContinuousColumn("x", 0.0, 1.0)], {"x": x})
    path = tmp_path / "s.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        ds.to_csv(path)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_to_csv_leaves_no_file_when_the_serial_write_fails(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 1)
    block_text = dataset._block_text

    def failing(names, data, start):
        if start >= BLOCK_ROWS:
            raise OSError("no room left")
        return block_text(names, data, start)
    monkeypatch.setattr(dataset, "_block_text", failing)
    x = np.random.default_rng(2).random(2 * BLOCK_ROWS + 77)
    ds = TabularDataset([ContinuousColumn("x", 0.0, 1.0)], {"x": x})
    with pytest.raises(OSError, match="no room left"):
        ds.to_csv(tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []


def test_synth_exits_2_when_a_writer_fails(run_1_fails, tmp_path, capfd):
    x = np.random.default_rng(1).random(run_1_fails)
    data = tmp_path / "in.csv"
    data.write_text("x\n" + "\n".join(map(repr, x.tolist())) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"x": {"type": "continuous", "lo": 0.0,
                                        "hi": 1.0}}))
    out = tmp_path / "out"
    code = main(["synth", "--input", str(data), "--schema", str(schema),
                 "--method", "smooth-hist", "--eps", "1.0", "--out",
                 str(out)])
    captured = capfd.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("configuration error: could not write "
                               f"{out / 'synth_1.csv'}")
    assert sorted(p.name for p in out.iterdir()) == ["ledger.json"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("values", [
    np.array(["1", "2"]),
    np.array([b"1", b"2"]),
    np.array([1.0, "1,2"], dtype=object),
])
def test_to_csv_rejects_non_numeric_columns(values, tmp_path):
    with pytest.raises(TypeError, match="'v'"):
        _unchecked(v=values).to_csv(tmp_path / "s.csv")


def test_category_codes_reject_non_integer_codes(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c\n1\n1.5\n")
    with pytest.raises(ValueError, match="'c' holds a non-integer code 1.5"):
        category_codes("c", _read_back(path)["c"], 2)
    path.write_text("c\n1.0\n0\n")
    codes = category_codes("c", _read_back(path)["c"], 2)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, [1, 0])


@pytest.mark.parametrize("bad", [2.0, -1.0, 1e308, -1e308, 2.0 ** 63])
def test_category_codes_refuse_out_of_range_codes_before_the_cast(bad):
    """A whole code outside [0, levels) is refused on the floats: one
    outside int64's range raises no cast warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^codes out of range in 'c'$"):
            category_codes("c", np.array([0.0, bad]), 2)
        with pytest.raises(ValueError, match="^codes out of range in 'c'$"):
            TabularDataset([CategoricalColumn("c", range(2))],
                           {"c": np.array([0.0, bad])})


def test_read_numeric_csv_parses_like_csv_reader(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('x,"y"\r\n"1"," 0.5 "\n-2,1e-3\n')
    header, columns = read_numeric_csv(path)
    assert header == ["x", "y"]
    np.testing.assert_array_equal(columns[0], [1.0, -2.0])
    np.testing.assert_array_equal(columns[1], [0.5, 1e-3])


def test_read_numeric_csv_rejects_duplicate_names_and_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y,x\n1,2,3\n")
    with pytest.raises(ValueError, match="duplicate CSV column name 'x'"):
        read_numeric_csv(path)
    path.write_text("x\n" + "1\n" * (BLOCK_ROWS + 5) + "1,2\n")
    with pytest.raises(ValueError, match=r"ragged CSV row: \['1', '2'\]"):
        read_numeric_csv(path)


def _no_start(process):
    raise AssertionError("a process was started")


def _outcome(path):
    """The header and the columns' bytes of a read, or its ValueError's
    message."""
    try:
        header, columns = read_numeric_csv(path)
    except ValueError as exc:
        return str(exc)
    return header, [c.tobytes() for c in columns]


def _record_numpy_path(mp) -> list:
    """The tables the numpy path returns (None where it declines),
    recorded as it returns them."""
    tables = []
    plain_table = dataset._plain_table

    def recorded(*args):
        tables.append(plain_table(*args))
        return tables[-1]
    mp.setattr(dataset, "_plain_table", recorded)
    return tables


def _read_both_paths(path, cpus: int = 2):
    """The outcome of read_numeric_csv on ``path``, whether it took the
    numpy path, and the outcome of the csv path alone, forced by a numpy
    path that returns None.  Both reads see ``cpus`` usable CPUs, and any
    process start fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_usable_cpus", lambda: cpus)
        mp.setattr(BaseProcess, "start", _no_start)
        tables = _record_numpy_path(mp)
        got = _outcome(path)
        mp.setattr(dataset, "_plain_table", lambda *args: None)
        oracle = _outcome(path)
    return got, any(t is not None for t in tables), oracle


def _values(n: int) -> list[list[float]]:
    return (np.random.default_rng(n).normal(size=(n, 3)) * 1e3).tolist()


def _awkward_rows(n: int) -> list[str]:
    """n rows of three numbers: plain, quoted and padded.  In every third
    row the quoted field holds three newlines, so half the newlines of
    the file do not end a record."""
    rows = []
    for i, (a, b, c) in enumerate(_values(n)):
        second = f'"\n\n\n{b!r}"' if i % 3 == 0 else f'"{b!r}"'
        rows.append(f"{a!r},{second}, {c!r} ")
    return rows


def _plain_rows(n: int) -> list[str]:
    """The numbers of ``_awkward_rows(n)``, unquoted and unpadded."""
    return [",".join(map(repr, row)) for row in _values(n)]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 77])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("last_eol", [True, False])
def test_read_on_k_cpus_equals_the_one_range_read(cpus, n, eol, last_eol,
                                                  tmp_path):
    """On 2 or 3 usable CPUs, quoted multi-line rows take the csv path;
    the same numbers as plain rows take the numpy path, and both give the
    csv path's bytes."""
    path = tmp_path / "in.csv"
    results = []
    for rows, numpy_path in ((_awkward_rows(n), False),
                             (_plain_rows(n), True)):
        text = eol.join(['a,"b\nc",ĉ€', *rows])
        path.write_bytes((text + eol * last_eol).encode("utf-8"))
        got, took_numpy, oracle = _read_both_paths(path, cpus)
        assert took_numpy == numpy_path
        assert got == oracle
        results.append(got)
    header, columns = results[0]
    assert header == ["a", "b\nc", "ĉ€"]
    assert [len(c) for c in columns] == [8 * n] * 3
    assert results[1] == results[0]


ERROR_ROWS = {
    "ragged": ("1,2,3,4", "ragged CSV row: ['1', '2', '3', '4']"),
    "blank": ("", "ragged CSV row: []"),
    "bad-cell": ('1,"\nx",3', "could not convert string to float: '\\nx'"),
    "long-field": ("1,2," + "9" * 200_000,
                   "field larger than field limit (131072)"),
}


@pytest.mark.parametrize("error", sorted(ERROR_ROWS))
@pytest.mark.parametrize("where", ["range-0", "later-range", "at-cut"])
def test_read_errors_have_the_same_message_on_any_cpu_count(
        error, where, tmp_path):
    """A bad row among plain rows, near the start, near the end or at the
    middle: the numpy path declines and the error is the csv path's."""
    n = 3 * BLOCK_ROWS + 77
    rows = _plain_rows(n)
    at = {"range-0": [10], "later-range": [n - 3],
          "at-cut": [n // 2 - 1, n // 2]}[where]
    row, message = ERROR_ROWS[error]
    for i in at:
        rows[i] = row
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    if error == "long-field":
        message = f"{path}: {message}"
    for cpus in (1, 2, 3):
        assert _read_both_paths(path, cpus) == (message, False, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_read_reports_the_serial_first_error_across_ranges(tmp_path):
    """A bad cell and a ragged row later in the same block: the block's
    ragged row wins."""
    n = 3 * BLOCK_ROWS + 77
    rows = ["1,2,3"] * n
    rows[2 * BLOCK_ROWS + 5] = "1,x,3"
    rows[2 * BLOCK_ROWS + 9] = "1,2"
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    message = "ragged CSV row: ['1', '2']"
    assert _read_both_paths(path) == (message, False, message)


def test_read_starts_no_process_and_leaves_no_file(tmp_path, monkeypatch):
    """With every process start made to fail, a plain read and a failed
    read both run, and leave no file behind.  The same patch stops a
    forked write, so it would stop a forked read."""
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(BaseProcess, "start", _no_start)
    before = set(os.listdir(tempfile.gettempdir()))
    path = tmp_path / "in.csv"
    n = 3 * BLOCK_ROWS
    path.write_text("x\n" + "1\n" * n)
    assert _outcome(path) == (["x"], [np.ones(n).tobytes()])
    path.write_text("x\n" + "1\n" * n + "1,2\n")
    assert _outcome(path) == "ragged CSV row: ['1', '2']"
    assert list(tmp_path.iterdir()) == [path]
    assert set(os.listdir(tempfile.gettempdir())) <= before
    if hasattr(os, "fork"):
        with pytest.raises(AssertionError, match="a process was started"):
            _unchecked(x=np.ones(n)).to_csv(tmp_path / "out.csv")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_piped_input_is_read_as_one_range(monkeypatch):
    """A pipe is not a regular file, so it takes the csv path."""
    tables = _record_numpy_path(monkeypatch)
    n = 3 * BLOCK_ROWS + 77
    text = "x\n" + "1\n0\n" * (n // 2) + "1\n"
    read_end, write_end = os.pipe()
    try:
        # fits in a pipe's buffer, so no thread is needed to write it
        os.write(write_end, text.encode())
        os.close(write_end)
        header, columns = read_numeric_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert (header, tables) == (["x"], [None])
    np.testing.assert_array_equal(columns[0], [1.0, 0.0] * (n // 2) + [1.0])


def test_to_csv_output_takes_the_numpy_path(tmp_path):
    """A file in the format ``dips synth`` reads: integer codes and
    floats with CRLF line ends, over more than one block."""
    ds = simulate_truth_sim3(RngStream(5), 2 * BLOCK_ROWS + 77)
    path = tmp_path / "in.csv"
    ds.to_csv(path)
    got, took_numpy, oracle = _read_both_paths(path)
    assert took_numpy and got == oracle
    names = [c.name for c in ds.columns]
    assert got == (names, [ds.column(name).astype(float).tobytes()
                           for name in names])


FIELD_LIMIT = csv.field_size_limit()
# over the longest plain row below, 14 characters, and under "9" * 20
SHORT_LIMIT = 16
# one text per way the numpy path and the csv path could disagree, and
# the csv field limit it is read under
DECLINED = {
    "quote": ('a\n"1"\n', FIELD_LIMIT),
    "lone-cr": ("a\n\r1\n", FIELD_LIMIT),
    "blank-line": ("a\n1\n\n2\n", FIELD_LIMIT),
    "whitespace-line": ("a\n1\n \n", FIELD_LIMIT),
    "blank-body": ("a\n\n", FIELD_LIMIT),
    "separator": ("a\n\x1c1\n", FIELD_LIMIT),
    "nul": ("a\n1\0\n", FIELD_LIMIT),
    "long-field": ("a\n" + "9" * 20 + "\n", SHORT_LIMIT),
}


def _read_under_limit(path, limit: int):
    """``_read_both_paths`` under the csv field limit ``limit``, and the
    warnings the reads emitted."""
    previous = csv.field_size_limit(limit)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return (*_read_both_paths(path), caught)
    finally:
        csv.field_size_limit(previous)


@pytest.mark.parametrize("case", sorted(DECLINED))
def test_numpy_path_declines_what_the_csv_module_reads_otherwise(case,
                                                                tmp_path):
    text, limit = DECLINED[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    got, took_numpy, oracle, caught = _read_under_limit(path, limit)
    assert (took_numpy, got, caught) == (False, oracle, [])


HEADER_NAMES = ["a", "b", '"c\nd"', '"e"', "f g", "ĉ€", '"h,i"', '"j\r\nk"',
                '"l""m"']
PLAIN_FIELDS = ["1", "-2.5", "3e2", "nan", " 4 ", "-0", "1e-3", "inf"]
ODD_FIELDS = ['"5"', '"6\n7"', 'a"b', '"', "\r", "\r1", "1\r", "\r\n", "\0",
              "", " ", "\t", "_", "1_0", "١", "\xa01", "1\xa0", "#", "#1",
              "9" * 20, "x", "1e400", "\x1c1", "1\x1f", "\x0b2", "　", "1,"]


def _plain_row(width: int):
    return st.lists(st.sampled_from(PLAIN_FIELDS), min_size=width,
                    max_size=width)


@st.composite
def _odd_row(draw, width: int) -> list[str]:
    """Plain numbers with one field made odd, or any fields."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(PLAIN_FIELDS + ODD_FIELDS),
                             max_size=width + 1))
    fields = draw(_plain_row(width))
    fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_FIELDS))
    return fields


@st.composite
def _csv_texts(draw):
    """A CSV text of plain rows with at most one odd row among them, and a
    csv field limit."""
    width = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=width,
                          max_size=width, unique=True))
    rows = draw(st.lists(_plain_row(width), max_size=5))
    if (odd := draw(st.none() | _odd_row(width))) is not None:
        rows.insert(draw(st.integers(0, len(rows))), odd)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names), *map(",".join, rows)]
    text = eol.join(lines) + eol * draw(st.booleans())
    return text, draw(st.sampled_from([SHORT_LIMIT, FIELD_LIMIT]))


@settings(max_examples=400, deadline=None)
@given(case=_csv_texts())
def test_read_equals_the_csv_path_on_any_text(case, tmp_path_factory):
    """The read's header, column bytes or error message are those of the
    csv path, and it emits no warning."""
    text, limit = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    got, _, oracle, caught = _read_under_limit(path, limit)
    assert (got, caught) == (oracle, [])
