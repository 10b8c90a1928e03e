"""Boxed plane partitions, their diagonal halves, and the tableau bijections.

An N x N array with entries in [0, M], weakly decreasing along rows and
columns, is a plane partition in the N x N x M box.  Reading the k-th
diagonal above (below) the main one as a partition slices the array into an
upper and a lower half; each half with fixed main diagonal lambda bijects
with a semi-standard tableau of shape lambda (descending convention for the
upper half, ascending for the lower).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from ..errors import ShapeViolation
from .partitions import Partition, SkewShape
from .tableaux import Tableau


@dataclass(frozen=True)
class PlanePartitionBox:
    n: int
    m: int
    array: tuple  # N rows of N entries

    def __post_init__(self):
        a = self.array
        if len(a) != self.n or any(len(row) != self.n for row in a):
            raise ShapeViolation("array is not N x N")
        for i in range(self.n):
            for j in range(self.n):
                v = a[i][j]
                if not (0 <= v <= self.m):
                    raise ShapeViolation(f"entry {v} outside [0, {self.m}]")
                if j + 1 < self.n and v < a[i][j + 1]:
                    raise ShapeViolation("rows must weakly decrease")
                if i + 1 < self.n and v < a[i + 1][j]:
                    raise ShapeViolation("columns must weakly decrease")

    def diagonal(self) -> Partition:
        return Partition(tuple(self.array[i][i] for i in range(self.n)))

    def upper_half(self) -> "HalfPlanePartition":
        rows = tuple(tuple(self.array[i][i:]) for i in range(self.n))
        return HalfPlanePartition(self.n, self.m, "upper", rows)

    def lower_half(self) -> "HalfPlanePartition":
        rows = tuple(tuple(self.array[i][: i + 1]) for i in range(self.n))
        return HalfPlanePartition(self.n, self.m, "lower", rows)


@dataclass(frozen=True)
class HalfPlanePartition:
    """One diagonal half of a boxed plane partition, diagonal included.

    For the upper half, rows[i] = (pi_{i+1,i+1}, .., pi_{i+1,N}); for the
    lower half, rows[i] = (pi_{i+1,1}, .., pi_{i+1,i+1}).
    """

    n: int
    m: int
    side: str
    rows: tuple

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise ValueError(self.side)
        if len(self.rows) != self.n:
            raise ShapeViolation("wrong number of rows")
        for i, row in enumerate(self.rows):
            want = self.n - i if self.side == "upper" else i + 1
            if len(row) != want:
                raise ShapeViolation("ragged half")
            if any(not (0 <= v <= self.m) for v in row):
                raise ShapeViolation("entry outside box")
        for i in range(1, self.n + 1):
            for j in self._cols(i):
                v = self.entry(i, j)
                if j + 1 <= self.n and self._in_half(i, j + 1) and v < self.entry(i, j + 1):
                    raise ShapeViolation("rows must weakly decrease")
                if i + 1 <= self.n and self._in_half(i + 1, j) and v < self.entry(i + 1, j):
                    raise ShapeViolation("columns must weakly decrease")

    def _in_half(self, i, j):
        return j >= i if self.side == "upper" else j <= i

    def _cols(self, i):
        return range(i, self.n + 1) if self.side == "upper" else range(1, i + 1)

    def entry(self, i: int, j: int) -> int:
        if self.side == "upper":
            return self.rows[i - 1][j - i]
        return self.rows[i - 1][j - 1]

    def diagonal(self) -> Partition:
        return Partition(tuple(self.entry(i, i) for i in range(1, self.n + 1)))

    def diagonal_sums(self) -> list:
        """Sums over the k-th diagonal of this half, k = 0..N-1."""
        out = []
        for k in range(self.n):
            if self.side == "upper":
                out.append(sum(self.entry(i, i + k) for i in range(1, self.n - k + 1)))
            else:
                out.append(sum(self.entry(i + k, i) for i in range(1, self.n - k + 1)))
        return out

    def diagonal_partition(self, k: int) -> Partition:
        """The k-th off-diagonal of the half, as a partition."""
        if self.side == "upper":
            vals = [self.entry(i, i + k) for i in range(1, self.n - k + 1)]
        else:
            vals = [self.entry(i + k, i) for i in range(1, self.n - k + 1)]
        return Partition(vals)


def macmahon_count(n: int, m: int) -> int:
    """Number of plane partitions in the n x n x m box (exact product)."""
    total = Fraction(1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, m + 1):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
    assert total.denominator == 1
    return total.numerator


def enumerate_plane_partitions(n: int, m: int) -> Iterator[PlanePartitionBox]:
    """All plane partitions in the box, row-major entries descending from
    their upper bound; restartable generator."""
    if n < 0 or m < 0:
        raise ShapeViolation("box dimensions must be non-negative")
    if n == 0:
        yield PlanePartitionBox(0, m, ())
        return
    grid = [[0] * n for _ in range(n)]

    def rec(pos):
        if pos == n * n:
            yield PlanePartitionBox(n, m, tuple(tuple(r) for r in grid))
            return
        i, j = divmod(pos, n)
        hi = m
        if i > 0:
            hi = min(hi, grid[i - 1][j])
        if j > 0:
            hi = min(hi, grid[i][j - 1])
        for v in range(hi, -1, -1):
            grid[i][j] = v
            yield from rec(pos + 1)
        grid[i][j] = 0

    yield from rec(0)


def _enumerate_half(lam: Partition, n: int, m: int, side: str) -> Iterator[HalfPlanePartition]:
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")
    diag = lam.padded(n)
    # fill off-diagonals k = 1..n-1; entry (i, i+k) for upper
    cells = [(i, k) for k in range(1, n) for i in range(1, n - k + 1)]
    values = {}

    def get(i, k):
        # value on diagonal k at row index i (1-based along the diagonal)
        if k == 0:
            return diag[i - 1]
        return values[(i, k)]

    def rec(pos):
        if pos == len(cells):
            if side == "upper":
                rows = tuple(
                    tuple(get(i, j - i) for j in range(i, n + 1)) for i in range(1, n + 1)
                )
            else:
                rows = tuple(
                    tuple(get(j, i - j) for j in range(1, i + 1)) for i in range(1, n + 1)
                )
            yield HalfPlanePartition(n, m, side, rows)
            return
        i, k = cells[pos]
        # constraints against the previous diagonal (k-1) and within this one
        hi = min(get(i, k - 1), m)
        lo = 0
        if i + 1 <= n - (k - 1):
            lo = get(i + 1, k - 1)
        for v in range(hi, lo - 1, -1):
            values[(i, k)] = v
            yield from rec(pos + 1)
        values.pop((i, k), None)
        return

    yield from rec(0)


def upper_diagonal(lam: Partition, n: int, m: int) -> Iterator[HalfPlanePartition]:
    """Upper halves with main diagonal lam."""
    return _enumerate_half(lam, n, m, "upper")


def lower_diagonal(lam: Partition, n: int, m: int) -> Iterator[HalfPlanePartition]:
    """Lower halves with main diagonal lam."""
    return _enumerate_half(lam, n, m, "lower")


def combine_halves(upper: HalfPlanePartition, lower: HalfPlanePartition) -> PlanePartitionBox:
    if upper.side != "upper" or lower.side != "lower":
        raise ShapeViolation("need one upper and one lower half")
    if (upper.n, upper.m) != (lower.n, lower.m):
        raise ShapeViolation("half sizes differ")
    if upper.diagonal() != lower.diagonal():
        raise ShapeViolation("diagonals differ")
    n = upper.n
    arr = tuple(
        tuple(
            upper.entry(i, j) if j >= i else lower.entry(i, j) for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return PlanePartitionBox(n, upper.m, arr)


def constant_half(lam: Partition, n: int, m: int, side: str) -> HalfPlanePartition:
    """Canonical half with diagonal lam: every off-diagonal repeats lam.

    Used to complete a half into a full box when only the other half's
    statistics matter.
    """
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")
    diag = lam.padded(n)
    if side == "upper":
        rows = tuple(tuple(diag[i - 1] for _ in range(i, n + 1)) for i in range(1, n + 1))
    else:
        rows = tuple(tuple(diag[j - 1] for j in range(1, i + 1)) for i in range(1, n + 1))
    return HalfPlanePartition(n, m, side, rows)


# -- tableau bijections ----------------------------------------------------


def pp_half_to_tableau(half: HalfPlanePartition) -> Tableau:
    """Layer the half's diagonals into a tableau of shape = main diagonal.

    Upper halves produce descending tableaux (letter k fills the skew strip
    between diagonals k-1 and k); lower halves produce ascending tableaux
    (letter N+1-k fills that strip).
    """
    n = half.n
    lam = half.diagonal()
    deltas = [half.diagonal_partition(k) for k in range(n)] + [Partition(())]
    rows = []
    for i in range(1, lam.length() + 1):
        row = []
        for j in range(1, lam.get(i) + 1):
            k = next(k for k in range(1, n + 1) if deltas[k].get(i) < j)
            letter = k if half.side == "upper" else n + 1 - k
            row.append(letter)
        rows.append(tuple(row))
    convention = "descending" if half.side == "upper" else "ascending"
    return Tableau(SkewShape(lam, Partition(())), tuple(rows), convention)


def tableau_to_pp_half(tab: Tableau, n: int, m: int) -> HalfPlanePartition:
    """Inverse of pp_half_to_tableau."""
    if tab.shape.inner.parts:
        raise ShapeViolation("only straight shapes correspond to halves")
    lam = tab.shape.outer
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")
    side = "upper" if tab.convention == "descending" else "lower"
    # delta_k row i = number of cells in row i with layer index > k
    deltas = []
    for k in range(n):
        vals = []
        for i in range(1, n + 1):
            if i <= lam.length():
                row = tab.rows[i - 1]
                if side == "upper":
                    cnt = sum(1 for v in row if v > k)
                else:
                    cnt = sum(1 for v in row if n + 1 - v > k)
            else:
                cnt = 0
            vals.append(cnt)
        deltas.append(vals)
    if side == "upper":
        rows = tuple(
            tuple(deltas[j - i][i - 1] for j in range(i, n + 1)) for i in range(1, n + 1)
        )
    else:
        rows = tuple(
            tuple(deltas[i - j][j - 1] for j in range(1, i + 1)) for i in range(1, n + 1)
        )
    return HalfPlanePartition(n, m, side, rows)
