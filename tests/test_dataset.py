import csv
import json
import multiprocessing
import os
import re
import tempfile

import numpy as np
import pytest

from dips import dataset
from dips.cli import EXIT_CONFIG, main
from dips.dataset import (BLOCK_ROWS, CategoricalColumn, ContinuousColumn,
                          TabularDataset, category_codes, read_numeric_csv)


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
    np.testing.assert_array_equal(category_codes("color", back["color"]),
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
    np.testing.assert_array_equal(category_codes("b", back["b"]),
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
        category_codes("c", _read_back(path)["c"])
    path.write_text("c\n1.0\n0\n")
    codes = category_codes("c", _read_back(path)["c"])
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, [1, 0])


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


def _read_with_cpus(path, cpus, monkeypatch):
    """read_numeric_csv with ``cpus`` usable CPUs: the header, the columns
    (or the ValueError's message), the forks it started and whether the
    ranges it parsed at the same time gave the result."""
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: cpus)
    forks = _record_forks(monkeypatch)
    parsed = []
    parse_ranges = dataset._parse_ranges

    def recorded(*args):
        columns = parse_ranges(*args)
        parsed.append(True)
        return columns
    monkeypatch.setattr(dataset, "_parse_ranges", recorded)
    try:
        header, columns = read_numeric_csv(path)
    except ValueError as exc:
        header, columns = None, str(exc)
    monkeypatch.undo()
    return header, columns, len(forks), bool(parsed)


def _expected_forks(cpus, records):
    return max(1, min(cpus, records // BLOCK_ROWS)) - 1 \
        if hasattr(os, "fork") else 0


def _awkward_rows(n: int) -> list[str]:
    """n rows of three numbers: plain, quoted and padded.  In every third
    row the quoted field holds three newlines, so half the newlines of
    the file do not end a record."""
    values = np.random.default_rng(n).normal(size=(n, 3)) * 1e3
    rows = []
    for i, (a, b, c) in enumerate(values.tolist()):
        second = f'"\n\n\n{b!r}"' if i % 3 == 0 else f'"{b!r}"'
        rows.append(f"{a!r},{second}, {c!r} ")
    return rows


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 77])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("last_eol", [True, False])
def test_read_on_k_cpus_equals_the_one_range_read(cpus, n, eol, last_eol,
                                                  tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    text = eol.join(['a,"b\nc",ĉ€', *_awkward_rows(n)])
    path.write_bytes((text + eol * last_eol).encode("utf-8"))
    header, columns, forks, parallel = _read_with_cpus(path, 1, monkeypatch)
    assert (forks, parallel) == (0, False)
    assert header == ["a", "b\nc", "ĉ€"]
    assert [len(c) for c in columns] == [n] * 3
    got_header, got, forks, parallel = _read_with_cpus(path, cpus,
                                                       monkeypatch)
    assert got_header == header
    assert [c.tobytes() for c in got] == [c.tobytes() for c in columns]
    assert forks == _expected_forks(cpus, n)
    assert parallel == (forks > 0)
    assert multiprocessing.active_children() == []


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
        error, where, tmp_path, monkeypatch):
    n = 3 * BLOCK_ROWS + 77
    rows = _awkward_rows(n)
    # at-cut: the rows on both sides of the cut before range 1 of two
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
        header, got, forks, parallel = _read_with_cpus(path, cpus,
                                                       monkeypatch)
        assert (header, got, parallel) == (None, message, False)
        assert forks == _expected_forks(cpus, n)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
    assert multiprocessing.active_children() == []


def test_read_reports_the_serial_first_error_across_ranges(tmp_path,
                                                          monkeypatch):
    """A bad cell in range 1 and a ragged row later in the same block:
    the block's ragged row wins, as in a one-process read."""
    n = 3 * BLOCK_ROWS + 77
    rows = ["1,2,3"] * n
    rows[2 * BLOCK_ROWS + 5] = "1,x,3"
    rows[2 * BLOCK_ROWS + 9] = "1,2"
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    for cpus in (1, 2, 3):
        assert _read_with_cpus(path, cpus, monkeypatch)[1] == \
            "ragged CSV row: ['1', '2']"


def test_failed_parallel_read_leaves_no_file(tmp_path, monkeypatch):
    before = set(os.listdir(tempfile.gettempdir()))
    path = tmp_path / "in.csv"
    path.write_text("x\n" + "1\n" * (3 * BLOCK_ROWS) + "1,2\n")
    _, message, forks, _ = _read_with_cpus(path, 2, monkeypatch)
    assert message == "ragged CSV row: ['1', '2']"
    assert forks == 1
    assert list(tmp_path.iterdir()) == [path]
    assert set(os.listdir(tempfile.gettempdir())) <= before


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_piped_input_is_read_as_one_range(monkeypatch):
    n = 3 * BLOCK_ROWS + 77
    text = "x\n" + "1\n0\n" * (n // 2) + "1\n"
    read_end, write_end = os.pipe()
    try:
        # fits in a pipe's buffer, so no thread is needed to write it
        os.write(write_end, text.encode())
        os.close(write_end)
        header, columns, forks, _ = _read_with_cpus(f"/dev/fd/{read_end}",
                                                    2, monkeypatch)
    finally:
        os.close(read_end)
    assert (header, forks) == (["x"], 0)
    np.testing.assert_array_equal(columns[0], [1.0, 0.0] * (n // 2) + [1.0])
