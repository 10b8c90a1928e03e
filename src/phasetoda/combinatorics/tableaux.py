"""Semi-standard tableaux of straight and skew shapes, both conventions.

``ascending`` is the usual convention (rows weakly increase, columns
strictly increase); ``descending`` flips both.  The two are genuinely
different objects here because the two plane-partition halves biject to
different conventions, so the convention is stored, never normalized away.
One predicate, ``_cell_ok``, checks a cell against its neighbours: the
constructor runs it on every cell it is given, the enumerator on each
candidate as its cell is filled, and yields what it builds unchecked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..errors import ShapeViolation
from .partitions import SkewShape, _trusted, _walk

CONVENTIONS = ("ascending", "descending")


def _cell_ok(rows, outer: tuple, inner: tuple, r: int, j: int, val: int, up: bool) -> bool:
    """Whether ``val`` in row r (from 0), column j (from 1) keeps a filling
    semistandard against the filled cells left of it and above it;
    ``outer`` and ``inner`` are the shape's parts, padded to its rows."""
    if j - 1 > inner[r]:
        left = rows[r][j - 2 - inner[r]]
        if (left > val) if up else (left < val):
            return False
    if r and inner[r - 1] < j <= outer[r - 1]:
        above = rows[r - 1][j - 1 - inner[r - 1]]
        if (above >= val) if up else (above <= val):
            return False
    return True


@dataclass(frozen=True)
class Tableau:
    shape: SkewShape
    rows: tuple  # rows[i] holds the filled cells of row i+1, left to right
    convention: str

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        outer = self.shape.outer.parts
        inner = self.shape.inner.padded(len(outer))
        if len(self.rows) != len(outer):
            raise ShapeViolation("row count does not match shape")
        for i, (row, o, p) in enumerate(zip(self.rows, outer, inner), 1):
            if len(row) != o - p:
                raise ShapeViolation(f"row {i} has wrong length")
        up = self.convention == "ascending"
        if not all(
            _cell_ok(self.rows, outer, inner, r, j, val, up)
            for r, row in enumerate(self.rows) for j, val in enumerate(row, inner[r] + 1)
        ):
            raise ShapeViolation("filling violates semi-standard conditions")

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
    outer = shape.outer.parts
    inner = shape.inner.padded(len(outer))
    cells = [(i - 1, j) for i, j in shape.cells()]  # (row from 0, column from 1)
    rows = [[0] * (o - p) for o, p in zip(outer, inner)]
    cuts = list(itertools.accumulate(map(len, rows), initial=0))
    up = convention == "ascending"
    # the values a cell can take and still leave the strict run of its
    # column below it one letter each: a cell with d cells under it takes
    # at most n - d (ascending) or at least 1 + d (descending)
    depth = shape.outer.conjugate()
    span = [(1, n - depth.get(j) + r + 2) if up else (depth.get(j) - r, n + 1) for r, j in cells]

    def options(word):
        # the word's last letter goes into its cell before the next cell,
        # which reads the cells left of it and above it, is tried; its
        # range starts past the cell above it, so a tall column tries no
        # value that its strict run refuses
        pos = len(word)
        if pos:
            r, j = cells[pos - 1]
            rows[r][j - 1 - inner[r]] = word[-1]
        r, j = cells[pos]
        lo, hi = span[pos]
        if r and inner[r - 1] < j <= outer[r - 1]:
            above = rows[r - 1][j - 1 - inner[r - 1]]
            lo, hi = (max(lo, above + 1), hi) if up else (lo, min(hi, above))
        return [val for val in range(lo, hi) if _cell_ok(rows, outer, inner, r, j, val, up)]

    for word in _walk(len(cells), options):
        filled = tuple(word[a:b] for a, b in zip(cuts, cuts[1:]))
        yield _trusted(Tableau, shape=shape, rows=filled, convention=convention)
