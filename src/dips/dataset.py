"""Tabular data with a declared mixed schema.

Categorical columns carry a finite level set (stored as integer codes into
that set); continuous columns carry declared bounds.  Synthesizers never
look at values outside the declared schema."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["CategoricalColumn", "ContinuousColumn", "TabularDataset"]


@dataclass(frozen=True)
class CategoricalColumn:
    name: str
    levels: tuple

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError(f"column {self.name!r} needs at least one level")


@dataclass(frozen=True)
class ContinuousColumn:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(
                f"column {self.name!r} needs lo < hi, got [{self.lo}, {self.hi}]"
            )


Column = CategoricalColumn | ContinuousColumn


class TabularDataset:
    """n rows over a fixed schema of categorical and continuous columns.

    Categorical values are integer codes in [0, len(levels)); continuous
    values must lie within the column's declared bounds.
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
        names = [c.name for c in self.columns]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            arrays = [self.data[name] for name in names]
            for row in zip(*arrays):
                writer.writerow([repr(float(v)) if isinstance(v, float) else v
                                 for v in row])

    @classmethod
    def from_csv(cls, path: str | Path,
                 columns: list[Column]) -> "TabularDataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        by_name = {c.name: c for c in columns}
        data = {}
        for j, name in enumerate(header):
            col = by_name[name]
            raw = [row[j] for row in rows]
            if isinstance(col, CategoricalColumn):
                data[name] = np.array([int(v) for v in raw], dtype=np.int64)
            else:
                data[name] = np.array([float(v) for v in raw])
        return cls(columns, data)
