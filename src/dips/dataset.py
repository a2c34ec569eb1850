"""Tabular data with a declared mixed schema.

Categorical columns carry a finite level set (stored as integer codes into
that set); continuous columns carry declared bounds.  Synthesizers never
look at values outside the declared schema.

CSV text is read and written one block of ``BLOCK_ROWS`` rows at a time,
one column of the block per call, so a large table never exists as
Python strings all at once."""

from __future__ import annotations

import csv
import math
import numbers
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

    Categorical values are integer codes in [0, len(levels)); continuous
    values must be finite and lie within the column's declared bounds.
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
        goes through ``csv.writer``."""
        names = [c.name for c in self.columns]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(names)
            for start in range(0, self.n, BLOCK_ROWS):
                cells = [_cell_text(name,
                                    self.data[name][start:start + BLOCK_ROWS])
                         for name in names]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cell_text(name: str, block: np.ndarray):
    """The CSV text of each value of one column block."""
    if block.dtype.type is np.float64:
        # one C-level repr of the whole block: the same text as
        # repr(float(v)) per value, including -0.0, nan, inf and 1e-05
        return repr(block.tolist())[1:-1].split(", ")
    kind = block.dtype.kind
    if kind in "biu":
        return map(str, block.tolist())
    if kind == "f":
        return map(str, block)
    if kind == "O":
        cells = []
        for v in block:
            if not isinstance(v, (numbers.Number, np.bool_)):
                raise TypeError(f"column {name!r} holds a non-numeric "
                                f"value {v!r}")
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        return cells
    raise TypeError(f"column {name!r} has non-numeric dtype {block.dtype}")


def read_numeric_csv(path: str | Path) -> tuple[list[str], list[np.ndarray]]:
    """The header and float64 columns of a CSV file of numbers.

    ``csv.reader`` parses the text, so quoting, padded whitespace and
    blank lines behave as in the csv module; each row must have the
    header's width and each header name must be unique.  Rows are
    converted one block of ``BLOCK_ROWS`` at a time.  An empty file has
    no columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in header:
            if header.count(name) > 1:
                raise ValueError(f"duplicate CSV column name {name!r}")
        width = len(header)
        blocks = [[] for _ in header]
        while rows := list(islice(reader, BLOCK_ROWS)):
            if set(map(len, rows)) != {width}:
                row = next(r for r in rows if len(r) != width)
                raise ValueError(f"ragged CSV row: {row}")
            for j, parts in enumerate(blocks):
                parts.append(np.fromiter(map(float, map(itemgetter(j), rows)),
                                         float, count=len(rows)))
    return header, [np.concatenate(parts) if parts else np.empty(0)
                    for parts in blocks]


def category_codes(name: str, values: np.ndarray) -> np.ndarray:
    """Categorical codes read as floats, as int64; a value that is not a
    finite integer is an error, never truncated."""
    whole = np.isfinite(values) & (np.floor(values) == values)
    if not whole.all():
        bad = float(values[~whole][0])
        raise ValueError(f"categorical column {name!r} holds a non-integer "
                         f"code {bad!r}")
    return values.astype(np.int64)
