"""Tabular data with a declared mixed schema.

Categorical columns carry a finite level set (stored as integer codes into
that set); continuous columns carry declared bounds.  Synthesizers never
look at values outside the declared schema.

CSV text is written one block of ``BLOCK_ROWS`` rows at a time, one
column of the block per call, so a large table never exists as Python
strings all at once.  ``TabularDataset.to_csv`` forks writers that each
format one contiguous run of blocks, on every CPU the process may use,
and the file holds the same bytes as a serial write.
``read_numeric_csv`` reads in this process: a plain-text body in one
call to numpy's C reader, any other body with ``csv.reader``, one block
at a time; either way the columns and every error are the csv
module's."""

from __future__ import annotations

import csv
import math
import numbers
import os
import shutil
import stat
import sys
import warnings
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

__all__ = ["CategoricalColumn", "ContinuousColumn", "TabularDataset",
           "category_codes", "read_numeric_csv"]

BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CategoricalColumn:
    name: str
    levels: tuple | range

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError(f"column {self.name!r} needs at least one level")


@dataclass(frozen=True)
class ContinuousColumn:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"column {self.name!r} needs finite bounds, got "
                             f"[{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise ValueError(
                f"column {self.name!r} needs lo < hi, got [{self.lo}, {self.hi}]"
            )


Column = CategoricalColumn | ContinuousColumn


class TabularDataset:
    """n rows over a fixed schema of categorical and continuous columns.

    Categorical values are integer codes in [0, len(levels)), held as
    integers or as whole finite floats; continuous values must be finite
    and lie within the column's declared bounds.
    """

    def __init__(self, columns: list[Column], data: dict[str, np.ndarray],
                 validate: bool = True):
        self.columns = list(columns)
        names = [c.name for c in self.columns]
        if set(names) != set(data):
            raise ValueError(f"schema/data mismatch: {names} vs {sorted(data)}")
        lengths = {len(v) for v in data.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        self.data = {name: np.asarray(data[name]) for name in names}
        if validate:
            self._validate()

    def _validate(self):
        for col in self.columns:
            values = self.data[col.name]
            if isinstance(col, CategoricalColumn):
                if values.dtype.kind == "f":
                    category_codes(col.name, values, len(col.levels))
                elif values.size and (values.min() < 0
                                      or values.max() >= len(col.levels)):
                    raise ValueError(f"codes out of range in {col.name!r}")
            else:
                if not np.isfinite(values).all():
                    raise ValueError(f"non-finite value in {col.name!r}")
                if values.size and (values.min() < col.lo - 1e-9
                                    or values.max() > col.hi + 1e-9):
                    raise ValueError(f"values out of bounds in {col.name!r}")

    @property
    def n(self) -> int:
        if not self.columns:
            return 0
        return len(self.data[self.columns[0].name])

    def column(self, name: str) -> np.ndarray:
        return self.data[name]

    def to_csv(self, path: str | Path):
        """Write the header and rows as CSV with ``\\r\\n`` line ends.

        A float64 value is written as ``repr(float(v))``, so the text reads
        back to the same float; integer, bool and other float widths as
        ``str``.  No number's text needs CSV quoting, so only the header
        goes through ``csv.writer``.

        The blocks are cut into k contiguous runs, k the smaller of the
        CPUs this process may use and the number of blocks (1 where the
        platform has no ``fork``).  This process writes the header and
        run 0 to ``path`` while forked children format runs 1..k-1, each
        into a part file beside ``path``; the parts are then appended in
        order and deleted, so the bytes are those of a serial write.
        Every column's type is checked here, before any fork.  A failed
        child raises ``OSError`` naming ``path``.  A failed write leaves
        no file at ``path``, no part file and no child process."""
        path = Path(path)
        names = [c.name for c in self.columns]
        for name in names:
            _check_numeric(name, self.data[name])
        starts = range(0, self.n, BLOCK_ROWS)
        k = max(1, min(_usable_cpus(), len(starts))) \
            if hasattr(os, "fork") else 1
        cuts = [len(starts) * r // k for r in range(k + 1)]
        runs = [starts[a:b] for a, b in zip(cuts, cuts[1:])]
        parts = [path.with_name(f"{path.name}.part{r}") for r in range(1, k)]
        started = []
        partial = False  # path holds an unfinished write
        try:
            try:
                for part, run in zip(parts, runs[1:]):
                    started.append(_start_child(_write_part, part, names,
                                                self.data, run))
                with open(path, "w", newline="") as fh:
                    partial = True
                    csv.writer(fh).writerow(names)
                    _write_blocks(fh, names, self.data, runs[0])
            finally:
                for child in started:
                    child.join()
            for child in started:
                if child.exitcode:
                    raise OSError(f"could not write {path}: a writer "
                                  f"process exited with code "
                                  f"{child.exitcode}")
            with open(path, "ab") as out:
                for part in parts:
                    with open(part, "rb") as fh:
                        shutil.copyfileobj(fh, out)
            partial = False
        finally:
            for part in parts:
                part.unlink(missing_ok=True)
            if partial:
                path.unlink(missing_ok=True)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_child(target, *args):
    """A started fork of this process that runs ``target(*args)``.
    Forked, it reads the parent's arrays and open files without pickling
    them."""
    # imported here, not at the top: it adds about 10 ms to `import dips`
    import multiprocessing
    child = multiprocessing.get_context("fork").Process(target=target,
                                                        args=args)
    child.start()
    return child


def _write_part(part: Path, names: list[str], data: dict, run: range):
    """A forked writer: the rows of the blocks in ``run`` into ``part``.
    It formats text only.  Any error ends it with exit code 1 and no
    traceback, and the parent reports the failure."""
    try:
        with open(part, "w", newline="") as fh:
            _write_blocks(fh, names, data, run)
    except Exception:
        sys.exit(1)


def _write_blocks(fh, names: list[str], data: dict, run: range):
    for start in run:
        fh.write(_block_text(names, data, start))


def _block_text(names: list[str], data: dict, start: int) -> str:
    """The CSV lines of the block of rows that begins at ``start``."""
    cells = [_cell_text(data[name][start:start + BLOCK_ROWS])
             for name in names]
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def _check_numeric(name: str, values: np.ndarray):
    """A TypeError unless every value of the column is a number."""
    kind = values.dtype.kind
    if kind == "O":
        for v in values:
            if not isinstance(v, (numbers.Number, np.bool_)):
                raise TypeError(f"column {name!r} holds a non-numeric "
                                f"value {v!r}")
    elif kind not in "biuf":
        raise TypeError(f"column {name!r} has non-numeric dtype "
                        f"{values.dtype}")


def _cell_text(block: np.ndarray):
    """The CSV text of each value of one column block, whose type
    ``_check_numeric`` has passed."""
    kind = block.dtype.kind
    if kind in "biu" or block.dtype.type is np.float64:
        # tolist gives Python ints, bools and floats, whose repr is the
        # text, including -0.0, nan, inf and 1e-05
        return map(repr, block.tolist())
    if kind == "f":
        return map(str, block)
    return [repr(float(v)) if isinstance(v, float) else str(v)
            for v in block]


def read_numeric_csv(path: str | Path) -> tuple[list[str], list[np.ndarray]]:
    """The header and float64 columns of a CSV file of numbers.

    ``csv.reader`` semantics hold: quoting, padded whitespace and blank
    lines behave as in the csv module; each row must have the header's
    width and each header name must be unique.  An empty file has no
    columns.  A field longer than the csv module's limit is a
    ``ValueError`` naming the file.

    ``csv.reader`` parses the header.  A plain-text body is then read in
    one call to numpy's C reader, ``np.loadtxt``, which turns each field
    into a float by the routine ``float`` uses.  Plain text is the body
    of a regular file with no ``"``, NUL, lone CR or byte \\x1c-\\x1f and
    no line longer than the csv module's field limit, which
    ``np.loadtxt`` reads with no error or warning into one row per
    record.  Any other body, and every error, is parsed by ``csv.reader``
    one block of ``BLOCK_ROWS`` rows at a time."""
    try:
        with open(path, newline="") as fh:
            lines = []
            header = next(csv.reader(_recorded(fh, lines)), [])
            for name in header:
                if header.count(name) > 1:
                    raise ValueError(f"duplicate CSV column name {name!r}")
            table = _plain_table(path, fh, lines, len(header))
            if table is not None:
                return header, list(np.ascontiguousarray(table.T))
            return header, _parse_rows(fh, len(header))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _recorded(lines, into: list):
    """``lines``, each appended to ``into`` as it is taken."""
    for line in lines:
        into.append(line)
        yield line


def _plain_table(path, fh, header_lines: list[str], width: int):
    """The table ``np.loadtxt`` reads from ``fh``'s body, the text after
    its ``header_lines``, or None where it may differ from the csv
    module's columns.  Each check stands for one way the two parsers
    disagree: ``loadtxt`` keeps a ``"`` as text, skips blank and
    whitespace-only lines (so its table has fewer rows than the body has
    records) and parses a field longer than the csv module's limit; a NUL
    and a lone CR read differently, and ``loadtxt`` strips the
    separators \\x1c-\\x1f around a number as whitespace where ``float``
    refuses them."""
    st = os.fstat(fh.fileno())
    if not (width and stat.S_ISREG(st.st_mode)):
        return None
    # one read of the whole file: a short read (over 2 GB, or a file that
    # changed) fails the size check below
    data = os.pread(fh.fileno(), st.st_size, 0)
    start = len("".join(header_lines).encode(fh.encoding))
    if (len(data) != st.st_size or data.find(b'"', start) != -1
            or any(c in data for c in b"\0\x1c\x1d\x1e\x1f")):
        return None
    text = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(text == ord("\n"))
    # every CR must end a line: as many CRs as newlines that follow one
    crlf = np.count_nonzero(text[newlines[newlines > 0] - 1] == ord("\r"))
    if data.count(b"\r") != crlf:
        return None
    ends = newlines[newlines >= start] - start
    records = len(ends) + (len(data) > start and data[-1:] != b"\n")
    # each line's length plus one, a CR counted
    longest = np.diff(ends, prepend=-1, append=len(data) - start).max()
    del data, text, newlines  # the table alone is held while loadtxt runs
    if not records or longest > csv.field_size_limit() + 1:
        return None
    try:
        with warnings.catch_warnings():
            # a body of blank lines makes loadtxt warn
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                               skiprows=len(header_lines),
                               encoding=fh.encoding)
    except Exception:
        return None
    return table if table.shape == (records, width) else None


def _parse_rows(lines, width: int) -> list[np.ndarray]:
    """The float64 columns of the CSV records in ``lines``, each of
    ``width`` fields: ragged rows are checked per block before any cell
    of the block is converted, then the cells column by column."""
    reader = csv.reader(lines)
    blocks = [[] for _ in range(width)]
    while rows := list(islice(reader, BLOCK_ROWS)):
        if set(map(len, rows)) != {width}:
            row = next(r for r in rows if len(r) != width)
            raise ValueError(f"ragged CSV row: {row}")
        for j, parts in enumerate(blocks):
            parts.append(np.fromiter(map(float, map(itemgetter(j), rows)),
                                     float, count=len(rows)))
    return [np.concatenate(parts) if parts else np.empty(0)
            for parts in blocks]


def category_codes(name: str, values: np.ndarray,
                   levels: int) -> np.ndarray:
    """Categorical codes read as floats, as int64; a value that is not a
    finite integer is an error, never truncated, and so is a code outside
    [0, levels), tested on the floats before the cast."""
    whole = np.isfinite(values) & (np.floor(values) == values)
    if not whole.all():
        bad = float(values[~whole][0])
        raise ValueError(f"categorical column {name!r} holds a non-integer "
                         f"code {bad!r}")
    if values.size and (values.min() < 0 or values.max() >= levels):
        raise ValueError(f"codes out of range in {name!r}")
    return values.astype(np.int64)
