"""Semi-standard tableaux of straight and skew shapes, both conventions.

``ascending`` is the usual convention (rows weakly increase, columns
strictly increase); ``descending`` flips both.  The two are genuinely
different objects here because the two plane-partition halves biject to
different conventions, so the convention is stored, never normalized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import ShapeViolation
from .partitions import SkewShape

CONVENTIONS = ("ascending", "descending")


@dataclass(frozen=True)
class Tableau:
    shape: SkewShape
    rows: tuple  # rows[i] holds the filled cells of row i+1, left to right
    convention: str

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        outer, inner = self.shape.outer, self.shape.inner
        if len(self.rows) != outer.length():
            raise ShapeViolation("row count does not match shape")
        for i in range(1, outer.length() + 1):
            if len(self.rows[i - 1]) != outer.get(i) - inner.get(i):
                raise ShapeViolation(f"row {i} has wrong length")
        if not self._monotone():
            raise ShapeViolation("filling violates semi-standard conditions")

    def _monotone(self) -> bool:
        up = self.convention == "ascending"
        outer, inner = self.shape.outer, self.shape.inner
        for i in range(1, outer.length() + 1):
            row = self.rows[i - 1]
            for a, b in zip(row, row[1:]):
                if (a > b) if up else (a < b):
                    return False
            if i == 1:
                continue
            for j in range(inner.get(i) + 1, outer.get(i) + 1):
                if inner.get(i - 1) < j <= outer.get(i - 1):
                    above = self.rows[i - 2][j - 1 - inner.get(i - 1)]
                    here = row[j - 1 - inner.get(i)]
                    if (above >= here) if up else (above <= here):
                        return False
        return True

    def weight(self, n: int) -> tuple:
        """Multiplicity vector (t_1, .., t_n)."""
        t = [0] * n
        for row in self.rows:
            for v in row:
                t[v - 1] += 1
        return tuple(t)


def enumerate_tableaux(shape: SkewShape, n: int, convention: str) -> Iterator[Tableau]:
    """All fillings with entries in 1..n, exactly once each.

    Deterministic order: cells are visited row-major and candidate values
    tried in increasing order, so the stream is lexicographic in the
    row-major reading word.  The generator is restartable.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    outer, inner = shape.outer, shape.inner
    nrows = outer.length()
    cells = shape.cells()
    rows = [[0] * (outer.get(i) - inner.get(i)) for i in range(1, nrows + 1)]
    up = convention == "ascending"
    # the values a cell can take and still leave the strict run of its
    # column below it one letter each: a cell with d cells under it takes
    # at most n - d (ascending) or at least 1 + d (descending)
    depth = outer.conjugate()
    span = {
        (i, j): range(1, n - depth.get(j) + i + 1) if up else range(1 + depth.get(j) - i, n + 1)
        for i, j in cells
    }

    def ok(i, j, val):
        if j - 1 > inner.get(i):
            left = rows[i - 1][j - 2 - inner.get(i)]
            if (left > val) if up else (left < val):
                return False
        if i > 1 and inner.get(i - 1) < j <= outer.get(i - 1):
            above = rows[i - 2][j - 1 - inner.get(i - 1)]
            if (above >= val) if up else (above <= val):
                return False
        return True

    def rec(pos):
        if pos == len(cells):
            yield Tableau(shape, tuple(tuple(r) for r in rows), convention)
            return
        i, j = cells[pos]
        for val in span[i, j]:
            if ok(i, j, val):
                rows[i - 1][j - 1 - inner.get(i)] = val
                yield from rec(pos + 1)
                rows[i - 1][j - 1 - inner.get(i)] = 0

    yield from rec(0)
