"""Tabular data with a declared mixed schema.

Categorical columns carry a finite level set (stored as integer codes into
that set); continuous columns carry declared bounds.  Synthesizers never
look at values outside the declared schema.

CSV text is read and written one block of ``BLOCK_ROWS`` rows at a time,
one column of the block per call, so a large table never exists as
Python strings all at once.  Both directions use every CPU the process
may use.  ``TabularDataset.to_csv`` forks writers that each format one
contiguous run of blocks, and the file holds the same bytes as a serial
write.  ``read_numeric_csv`` forks readers that each parse one byte range
of records and send their columns back through a pipe; the columns, and
any error with its message, are those of a one-process read, and a pipe
is read in one process.  There is no option to turn this off."""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import math
import numbers
import os
import shutil
import stat
import sys
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
                    category_codes(col.name, values)
                if values.size and (values.min() < 0
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
    if block.dtype.type is np.float64:
        # one C-level repr of the whole block: the same text as
        # repr(float(v)) per value, including -0.0, nan, inf and 1e-05
        return repr(block.tolist())[1:-1].split(", ")
    kind = block.dtype.kind
    if kind in "biu":
        return map(str, block.tolist())
    if kind == "f":
        return map(str, block)
    return [repr(float(v)) if isinstance(v, float) else str(v)
            for v in block]


def read_numeric_csv(path: str | Path) -> tuple[list[str], list[np.ndarray]]:
    """The header and float64 columns of a CSV file of numbers.

    ``csv.reader`` parses the text, so quoting, padded whitespace and
    blank lines behave as in the csv module; each row must have the
    header's width and each header name must be unique.  Rows are
    converted one block of ``BLOCK_ROWS`` at a time.  An empty file has
    no columns.  A field longer than the csv module's limit is a
    ``ValueError`` naming the file.

    The rows after the header are cut into k byte ranges of about equal
    record counts, k the smaller of the CPUs this process may use and
    the records over ``BLOCK_ROWS``.  k is 1 where the platform has no
    ``fork``, where the input is not a regular file (a pipe) and where
    ``open`` does not decode it as UTF-8.  Forked children parse ranges
    1..k-1 and send their columns back through pipes while this process
    parses range 0.  A cut
    follows a newline with an even number of ``"`` bytes before it in
    the body, so each range starts at a record.  If any range fails, the
    file is read again as one range, so an error is the one a serial
    read meets first, with the same message."""
    try:
        with open(path, newline="") as fh:
            lines = []
            header = next(csv.reader(_recorded(fh, lines)), [])
            for name in header:
                if header.count(name) > 1:
                    raise ValueError(f"duplicate CSV column name {name!r}")
            ranges = _body_ranges(fh, "".join(lines))
            if len(ranges) > 1:
                # on any failure, read again as one range: that raises the
                # error a serial read meets first
                with contextlib.suppress(Exception):
                    return header, _parse_ranges(fh.fileno(), len(header),
                                                 ranges)
            return header, _parse_rows(fh, len(header))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _recorded(lines, into: list):
    """``lines``, each appended to ``into`` as it is taken."""
    for line in lines:
        into.append(line)
        yield line


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


def _body_ranges(fh, header: str) -> list[tuple[int, int]]:
    """The byte ranges [start, stop) of ``fh``'s records after its
    ``header`` text; fewer than two where the body is read as one range.
    Counting the records takes one pass over the bytes; each cut reads
    one chunk more."""
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    fd = fh.fileno()
    if not (cpus > 1 and stat.S_ISREG(os.fstat(fd).st_mode)
            and codecs.lookup(fh.encoding).name == "utf-8"):
        return []
    start = pos = len(header.encode())
    chunks = []  # (offset, begins inside quotes, record ends)
    inside = False
    while chunk := os.pread(fd, shutil.COPY_BUFSIZE, pos):
        ends, after = _record_ends(chunk, inside)
        chunks.append((pos, inside, len(ends)))
        last, inside = chunk[-1:], after
        pos += len(chunk)
    records = sum(n for _, _, n in chunks) + (pos > start and last != b"\n")
    k = min(cpus, records // BLOCK_ROWS)
    # range r starts after the first records * r // k records
    targets = [records * r // k for r in range(1, k)]
    cuts = [start]
    seen = 0
    for offset, inside, n in chunks:
        if here := [j for j in targets if seen < j <= seen + n]:
            ends, _ = _record_ends(os.pread(fd, shutil.COPY_BUFSIZE, offset),
                                   inside)
            cuts += [offset + int(ends[j - seen - 1]) + 1 for j in here]
        seen += n
    return list(zip(cuts, cuts[1:] + [pos]))


def _record_ends(chunk: bytes, inside: bool) -> tuple[np.ndarray, bool]:
    """The offsets in ``chunk`` of its newlines that end a record, and
    whether it ends inside a quoted field; ``inside``: whether it begins
    inside one.  A quoted field's ``"`` bytes come in pairs, so a newline
    is inside quotes when an odd number of them come before it."""
    octets = np.frombuffer(chunk, np.uint8)
    quotes = np.flatnonzero(octets == ord('"'))
    newlines = np.flatnonzero(octets == ord("\n"))
    quoted = (np.searchsorted(quotes, newlines) + inside) % 2 == 1
    return newlines[~quoted], (len(quotes) + inside) % 2 == 1


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of an open file, read by ``os.pread``, which
    neither uses nor moves the file's offset."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self._fd, min(len(buffer), self._stop - self._pos),
                        self._pos)
        buffer[:len(data)] = data
        self._pos += len(data)
        return len(data)


def _parse_range(fd: int, start: int, stop: int, width: int):
    """``_parse_rows`` over bytes [start, stop) of the file, decoded as
    UTF-8 as they stream in."""
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, stop)),
                          encoding="utf-8", newline="") as lines:
        return _parse_rows(lines, width)


def _parse_ranges(fd: int, width: int, ranges: list) -> list[np.ndarray]:
    """The columns of the body, range 0 parsed here and each later range
    by a forked child that sends its columns back, one message per
    column.  A child that fails exits without sending them, and this
    raises ``EOFError``.  No child or pipe outlives the call."""
    import multiprocessing
    children, readers = [], []
    try:
        for start, stop in ranges[1:]:
            reader, writer = multiprocessing.Pipe(duplex=False)
            readers.append(reader)
            with writer:
                children.append(_start_child(_send_range, writer, fd, start,
                                             stop, width))
        columns = [[c] for c in _parse_range(fd, *ranges[0], width)]
        for reader in readers:
            for parts in columns:
                parts.append(np.frombuffer(reader.recv_bytes()))
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for reader in readers:
            reader.close()
    return [np.concatenate(parts) for parts in columns]


def _send_range(conn, fd: int, start: int, stop: int, width: int):
    """A forked reader: the columns of bytes [start, stop) into ``conn``.
    Any error ends it with exit code 1 and no traceback, and the parent
    reads the file again in one process."""
    try:
        for column in _parse_range(fd, start, stop, width):
            conn.send_bytes(column)
    except Exception:
        sys.exit(1)


def category_codes(name: str, values: np.ndarray) -> np.ndarray:
    """Categorical codes read as floats, as int64; a value that is not a
    finite integer is an error, never truncated."""
    whole = np.isfinite(values) & (np.floor(values) == values)
    if not whole.all():
        bad = float(values[~whole][0])
        raise ValueError(f"categorical column {name!r} holds a non-integer "
                         f"code {bad!r}")
    return values.astype(np.int64)
