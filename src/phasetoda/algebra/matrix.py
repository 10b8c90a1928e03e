"""Dense matrices over the Laurent polynomial ring or its fractions, with
exact determinants.

Entries are MultiPolys or RatioPolys; the tau minors and the scalar product
use polynomial entries, the 2-Toda wave and Lax matrices rational ones, and
a product may mix the two.  Determinants (polynomial entries) use minor
expansion with memoization on column subsets up to 4x4 and fraction-free
Bareiss elimination (exact divisions) from 5x5 on.  ``det_cofactor`` is a
deliberately naive first-row expansion kept as an independent oracle for
tests.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import NonSquare
from .multipoly import MultiPoly, as_poly
from .ratio import RatioPoly


class RingMatrix:
    """Row-major dense matrix of MultiPoly or RatioPoly entries; any other
    value goes through ``as_poly``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0 or rows * cols != len(entries):
            raise ValueError("rows*cols must equal the entry count")
        self.rows = rows
        self.cols = cols
        self.entries = [e if isinstance(e, RatioPoly) else as_poly(e) for e in entries]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RingMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        return cls(n, n, [MultiPoly.const(1 if i == j else 0) for i in range(n) for j in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RingMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RingMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    b = other[k, j]
                    if b.is_zero():
                        continue
                    acc = a * b if acc is None else acc + a * b
                out.append(MultiPoly.zero() if acc is None else acc)
        return RingMatrix(self.rows, other.cols, out)

    def commutator(self, other: "RingMatrix") -> "RingMatrix":
        return (self @ other) - (other @ self)

    def diff(self, name: str) -> "RingMatrix":
        return RingMatrix(self.rows, self.cols, [e.diff(name) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def project(self, part: str) -> "RingMatrix":
        """Triangular projection: 'plus' keeps the diagonal and what lies
        above it, 'minus' only what lies strictly below it."""
        if part not in ("plus", "minus"):
            raise ValueError(part)
        plus = part == "plus"
        zero = MultiPoly.zero()
        return RingMatrix(self.rows, self.cols, [
            self[i, j] if (j >= i) == plus else zero
            for i in range(self.rows) for j in range(self.cols)
        ])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RingMatrix":
        ents = [self[i, j] for i in row_idx for j in col_idx]
        return RingMatrix(len(row_idx), len(col_idx), ents)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"RingMatrix({self.rows}x{self.cols}: {body})"


def det_exact(m: RingMatrix) -> MultiPoly:
    """Exact determinant; the empty 0x0 matrix yields 1."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return MultiPoly.const(1)
    if n == 1:
        return m[0, 0]
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if n <= 4:
        return _det_minor_dp(m)
    return _det_bareiss(m)


def _det_minor_dp(m: RingMatrix) -> MultiPoly:
    """Expansion along rows with memoization on the active column subset."""
    n = m.rows
    # memo maps a frozenset of column indices (size k) to the determinant of
    # the top-k rows restricted to those columns
    memo = {frozenset(): MultiPoly.const(1)}
    for k in range(1, n + 1):
        new = {}
        from itertools import combinations

        for cols in combinations(range(n), k):
            acc = MultiPoly.zero()
            # expanding along the last row of the k x k block: cofactor sign
            # is (-1)^((k-1)+pos) for the entry at column position pos
            sign = 1 if (k - 1) % 2 == 0 else -1
            for pos, j in enumerate(cols):
                entry = m[k - 1, j]
                if not entry.is_zero():
                    sub = memo[frozenset(cols[:pos] + cols[pos + 1 :])]
                    term = entry * sub
                    acc = acc + term if sign > 0 else acc - term
                sign = -sign
            new[frozenset(cols)] = acc
        memo = new
    return memo[frozenset(range(n))]


def _det_bareiss(m: RingMatrix) -> MultiPoly:
    """Fraction-free elimination; all divisions are exact in the ring."""
    n = m.rows
    a = [[m[i, j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        pivot_row = k
        while pivot_row < n and a[pivot_row][k].is_zero():
            pivot_row += 1
        if pivot_row == n:
            return MultiPoly.zero()
        if pivot_row != k:
            a[pivot_row], a[k] = a[k], a[pivot_row]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.divide_exact(prev)
            a[i][k] = MultiPoly.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


def det_cofactor(m: RingMatrix) -> MultiPoly:
    """First-row cofactor expansion (test oracle, exponential)."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return MultiPoly.const(1)
    if n == 1:
        return m[0, 0]
    acc = MultiPoly.zero()
    for j in range(n):
        entry = m[0, j]
        if entry.is_zero():
            continue
        cols = [c for c in range(n) if c != j]
        sub = det_cofactor(m.submatrix(range(1, n), cols))
        term = entry * sub
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
