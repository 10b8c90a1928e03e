"""Dense matrices over the Laurent polynomial ring or its fractions, with
exact determinants.

Entries are MultiPolys or RatioPolys; the tau minors and the scalar product
use polynomial entries, the 2-Toda wave and Lax matrices rational ones, and
a product may mix the two.  ``det_exact`` (polynomial entries) takes one
route per size:

  * n <= 2: directly, ``a*d - b*c`` at n = 2;
  * n >= 3 with every entry a constant, or n > DP_MAX_N: ``_det_bareiss``,
    fraction-free elimination (O(n^3) ring operations) with exact
    divisions, on the rows' integer numerators when every entry is a
    constant and on the polynomials otherwise; above DP_MAX_N the subset
    expansion's exponential count of products and minors would dominate;
  * otherwise, 3 <= n <= DP_MAX_N: ``_det_minor_dp``, a division-free
    expansion along rows, memoized on column subsets, on one packing of the
    whole matrix (n 2^(n-1) entry-times-minor products).

The packing invariant of the expansion: row i is scaled to integer
numerators over the lcm d_i of its denominators, variable v gets the field
width sum_i span_i(v) + 1 (span_i(v) the range of v's exponents over row
i), and each entry is keyed on its exponents minus row i's low corner.  A
product of one entry from each of the top k rows then has the sum of their
keys as its key and no field can carry, so every minor is a dict from int
key to int numerator and only the determinant, over the product of the
d_i, is unpacked.  ``det_cofactor``, a deliberately naive first-row
expansion, is a test oracle the program never calls; in the tests
``_det_bareiss`` and ``_det_minor_dp`` are also oracles for each other, on
constant and on polynomial entries.
"""

from __future__ import annotations

from math import lcm
from operator import add, floordiv, sub
from typing import Sequence

from ..errors import NonSquare
from .multipoly import MultiPoly, _packing, _unpack, as_poly, var_key
from .ratio import RatioPoly

# the largest size the subset expansion takes; only polynomial entries reach
# it, since constant ones always go to elimination.  On them it beats
# elimination, whose exact divisions swell (8x8, two-term Laurent entries in
# three variables: 0.17 s against 96 s), while its own cost about quadruples
# with every row (0.74 s at 9x9, 3.0 s at 10x10); the largest polynomial
# determinant of `suite all` and of `compute tau` at its cap is 6x6
DP_MAX_N = 8


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

    def _entrywise(self, other: "RingMatrix", op) -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RingMatrix(self.rows, self.cols, list(map(op, self.entries, other.entries)))

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, sub)

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
    if n > DP_MAX_N or _constant(m):
        return _det_bareiss(m)
    return _det_minor_dp(m)


def _constant(m: RingMatrix) -> bool:
    return all(isinstance(e, MultiPoly) and not e.vars for e in m.entries)


def _det_minor_dp(m: RingMatrix) -> MultiPoly:
    """Division-free expansion along rows, memoized on column subsets, on one
    packing of the whole matrix, each row one group of ``_packing`` (the
    invariant is in the module docstring).

    The minor of the top k rows on a column subset is a dict from packed key
    to numerator, keyed by the subset's bitmask; row k adds
    ``sign * entry * minor`` straight into the dict of the subset one column
    larger, and only the full determinant is unpacked.
    """
    n = m.rows
    allvars = tuple(sorted({v for e in m.entries for v in e.vars}, key=var_key))
    packed, den, fields = _packing(allvars, [m.row(i) for i in range(n)])
    memo = {0: {0: 1}}
    for k, row in enumerate(packed):
        new: dict = {}
        for cols, minor in memo.items():
            # a numerator that cancelled to 0 drops out here, and with all
            # of them a vanished minor
            minor = [t for t in minor.items() if t[1]]
            if not minor:
                continue
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                # the cofactor sign (-1)^(k + pos), pos = the position of
                # column j among the columns of the k + 1 rows' minor
                neg = (k + (cols & (bit - 1)).bit_count()) & 1
                acc = new.setdefault(cols | bit, {})
                get = acc.get
                outer, inner = (entry, minor) if len(entry) <= len(minor) else (minor, entry)
                for ko, co in outer:
                    if neg:
                        co = -co
                    for ki, ci in inner:
                        key = ko + ki
                        acc[key] = get(key, 0) + co * ci
        memo = new
    return MultiPoly._make(allvars, _unpack(fields, memo.get((1 << n) - 1, {})), den)


def _det_bareiss(m: RingMatrix) -> MultiPoly:
    """Fraction-free elimination (Bareiss).

    After step k every entry below row k is a (k + 1)-minor, so each
    division by the previous pivot is exact; a zero pivot swaps in a lower
    row and flips the sign.  A matrix of constants runs on integers: row i
    is scaled by the lcm d_i of its denominators, the determinant is that
    of the integer matrix over the product of the d_i, and each division is
    ``//``.  Any other matrix runs on its entries with ``divide_exact``.
    """
    n = m.rows
    if _constant(m):
        a = []
        scale = 1
        for i in range(n):
            row = m.row(i)
            d = lcm(*[e.den for e in row])
            scale *= d
            a.append([e.nums[()] * (d // e.den) if e.nums else 0 for e in row])
        divide = floordiv
    else:
        a = [m.row(i) for i in range(n)]
        scale = None
        divide = MultiPoly.divide_exact
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return MultiPoly.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = divide(pivot * row[j] - lead * top[j], prev)
        prev = pivot
    det = a[-1][-1] if sign > 0 else -a[-1][-1]
    if scale is None:
        return det
    return MultiPoly._make((), {(): det} if det else {}, scale)


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
