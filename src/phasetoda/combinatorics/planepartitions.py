"""Boxed plane partitions, their diagonal halves, and the tableau bijections.

An N x N array with entries in [0, M], weakly decreasing along rows and
columns, is a plane partition in the N x N x M box.  Cutting it along the
main diagonal gives an upper and a lower half, diagonal included.  A half
is stored as its interlacing diagonals: diagonal k holds the N-k entries k
steps off the main one, read from the top, and each diagonal interlaces the
one before it (a Gelfand-Tsetlin pattern).  A half with main diagonal
lambda bijects with a semi-standard tableau of shape lambda whose letter k
fills the strip between diagonals k-1 and k (descending convention for the
upper half, ascending with letter N+1-k for the lower).

A box is a chain of N rows (Stanley, EC2 7.20), each one of the C(N+M, N)
weakly decreasing N-tuples over [0, M] (the box's partitions, read in
reverse) and componentwise >= the next; it is enumerated by
``_row_chains``, N rows deep, as are the lattice paths.  The row chains,
the halves' diagonals and the tableaux' cells are all grown by one search,
``partitions._walk``, on an explicit stack, so no size is too deep.

Each invariant has one predicate: ``_is_row`` (a row falls inside [0, M]),
``_dominates`` (a row is >= the next entry by entry: a box's columns, the
paths' non-crossing) and ``_interlaces`` (a half's diagonals).  The public
constructors run them on every object they are given.  The enumerators run
them once where they make a part: each of the C(N+M, N) rows before any
chain is grown (the ``below`` table of ``_row_chains`` is then the only
dominance test) and each diagonal of a half at the node of the search that
makes it.  What an enumerator yields is built by ``partitions._trusted``,
which skips the constructor's checks; so are the tableaux.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Iterator

from ..errors import ShapeViolation
from .partitions import Partition, SkewShape, _trusted, _walk
from .tableaux import Tableau


def _is_row(row: tuple, m: int) -> bool:
    """Whether row weakly decreases with its entries in [0, m]."""
    return all(map(operator.ge, row, row[1:])) and (not row or (0 <= row[-1] and row[0] <= m))


def _dominates(row: tuple, below: tuple) -> bool:
    """Whether row is >= below entry by entry."""
    return all(map(operator.ge, row, below))


def _interlaces(prev: tuple, cur: tuple) -> bool:
    """Whether cur[i] lies in [prev[i + 1], prev[i]] for every i."""
    return all(map(operator.le, cur, prev)) and all(map(operator.ge, cur, prev[1:]))


def _check_rows(rows, belows, m: int) -> None:
    """Raise unless each row falls inside [0, m] and dominates its row of
    ``belows``; the first faulty cell of the first faulty row, tried for
    range, then against the cell after it, then the cell below it, names
    the fault."""
    for row, below in zip(rows, belows):
        if _is_row(row, m) and _dominates(row, below):
            continue
        for j, v in enumerate(row):
            if not (0 <= v <= m):
                raise ShapeViolation(f"entry {v} outside [0, {m}]")
            if j + 1 < len(row) and v < row[j + 1]:
                raise ShapeViolation("rows must weakly decrease")
            if v < below[j]:
                raise ShapeViolation("columns must weakly decrease")


def _diagonals(array, n: int) -> tuple:
    """The diagonals on and above the main one: array[i][i + k], k = 0..n-1."""
    return tuple(tuple(array[i][i + k] for i in range(n - k)) for k in range(n))


@dataclass(frozen=True)
class PlanePartitionBox:
    n: int
    m: int
    array: tuple  # N rows of N entries

    def __post_init__(self):
        a = self.array
        if [*map(len, a)] != [self.n] * self.n:
            raise ShapeViolation("array is not N x N")
        # the last row, with no row below it, is held against itself
        _check_rows(a, a[1:] + a[-1:], self.m)

    def diagonal(self) -> Partition:
        return Partition(tuple(self.array[i][i] for i in range(self.n)))

    def upper_half(self) -> "HalfPlanePartition":
        return HalfPlanePartition(self.n, self.m, "upper", _diagonals(self.array, self.n))

    def lower_half(self) -> "HalfPlanePartition":
        transposed = tuple(zip(*self.array))
        return HalfPlanePartition(self.n, self.m, "lower", _diagonals(transposed, self.n))


@dataclass(frozen=True)
class HalfPlanePartition:
    """One diagonal half of a boxed plane partition, diagonal included.

    diagonals[k] = (pi_{1,1+k}, .., pi_{N-k,N}) for the upper half and
    (pi_{1+k,1}, .., pi_{N,N-k}) for the lower half.  ``side`` only picks
    the tableau convention and which half ``combine_halves`` takes it as.
    """

    n: int
    m: int
    side: str
    diagonals: tuple

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise ValueError(self.side)
        d = self.diagonals
        if [*map(len, d)] != [*range(self.n, 0, -1)]:
            raise ShapeViolation("ragged half")
        if d and not (0 <= min(map(min, d)) and max(map(max, d)) <= self.m):
            raise ShapeViolation("entry outside box")
        # interlacing is row and column monotonicity on either side
        if not all(map(_interlaces, d, d[1:])):
            raise ShapeViolation("diagonals must interlace")

    def entry(self, i: int, j: int) -> int:
        return self.diagonals[abs(j - i)][min(i, j) - 1]

    def diagonal(self) -> Partition:
        return Partition(self.diagonals[0] if self.n else ())

    def diagonal_sums(self) -> list:
        """Sums over the k-th diagonal of this half, k = 0..N-1."""
        return [sum(d) for d in self.diagonals]


def macmahon_count(n: int, m: int, stop: int | None = None) -> int:
    """Number of plane partitions in the n x n x m box (Stanley, EC2 7.20).

    MacMahon's product over the base cells (i, j) of a box of a rows by b
    columns and height c is (i + j + c - 1) / (i + j - 1), and its row i
    multiplies to C(i + b + c - 1, b) / C(i + b - 1, b).  The box's sides
    may be taken in any order, so it is taken min(n, m) rows by n columns,
    max(n, m) high: after each row the product counts a box of fewer rows,
    an integer no larger than the whole count.  With ``stop`` the product
    ends at the first of these counts above it, a lower bound past ``stop``.
    """
    rows, height = sorted((n, m))
    count = 1
    for i in range(1, rows + 1):
        count = count * comb(i + n + height - 1, n) // comb(i + n - 1, n)
        if stop is not None and count > stop:
            break
    return count


def _row_chains(rows: list, depth: int, keep=None) -> Iterator[tuple]:
    """Chains of depth rows, each componentwise >= the next, in the order of
    ``rows`` at every level; ``keep(p, row)`` prunes the rows of level p.
    A row's rows below are listed once, when a chain first reaches it."""
    below: dict = {}

    def options(chain):
        candidates = rows
        if chain:
            row = chain[-1]
            if row not in below:
                below[row] = [b for b in rows if _dominates(row, b)]
            candidates = below[row]
        if keep is None:
            return candidates
        return [row for row in candidates if keep(len(chain), row)]

    return _walk(depth, options)


def enumerate_plane_partitions(n: int, m: int) -> Iterator[PlanePartitionBox]:
    """All plane partitions in the box, row-major entries descending from
    their upper bound; restartable generator."""
    if n < 0 or m < 0:
        raise ShapeViolation("box dimensions must be non-negative")
    # weakly decreasing rows, lexicographically descending, each its own
    # row below: the chains test dominance
    rows = list(itertools.combinations_with_replacement(range(m, -1, -1), n))
    _check_rows(rows, rows, m)
    for chain in _row_chains(rows, n):
        yield _trusted(PlanePartitionBox, n=n, m=m, array=chain)


def _enumerate_half(lam: Partition, n: int, m: int, side: str) -> Iterator[HalfPlanePartition]:
    """Halves with main diagonal lam: each diagonal ranges over the entries
    that interlace the one before it, largest entries first, and is tested
    against it where it is made."""
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")

    def options(diagonals):
        if not diagonals:
            yield lam.padded(n)
            return
        prev = diagonals[-1]
        ranges = [range(prev[i], prev[i + 1] - 1, -1) for i in range(len(prev) - 1)]
        for cur in itertools.product(*ranges):
            if not _interlaces(prev, cur):
                raise ShapeViolation("diagonals must interlace")
            yield cur

    for diagonals in _walk(n, options):
        yield _trusted(HalfPlanePartition, n=n, m=m, side=side, diagonals=diagonals)


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
        tuple((upper if j >= i else lower).entry(i, j) for j in range(1, n + 1))
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
    return HalfPlanePartition(n, m, side, tuple(diag[: n - k] for k in range(n)))


# -- tableau bijections ----------------------------------------------------


def pp_half_to_tableau(half: HalfPlanePartition) -> Tableau:
    """Layer the half's diagonals into a tableau of shape = main diagonal.

    Layer k, the strip between diagonals k-1 and k, holds letter k in the
    descending tableau of an upper half and letter N+1-k in the ascending
    tableau of a lower half; a row reads its layers from N down to 1.
    """
    n = half.n
    lam = half.diagonal()
    length = lam.length()
    # each diagonal lies inside the one before it, so its entries past the
    # main diagonal's last part are zeros: cut or pad each to that length
    zeros = (0,) * length
    deltas = [(d + zeros)[:length] for d in half.diagonals] + [zeros]
    upper = half.side == "upper"
    rows = tuple(
        tuple(
            k if upper else n + 1 - k
            for k in range(n, 0, -1)
            for _ in range(deltas[k - 1][i] - deltas[k][i])
        )
        for i in range(length)
    )
    convention = "descending" if upper else "ascending"
    return Tableau(SkewShape(lam, Partition(())), rows, convention)


def tableau_to_pp_half(tab: Tableau, n: int, m: int) -> HalfPlanePartition:
    """Inverse of pp_half_to_tableau: entry i of diagonal k counts the
    cells of row i whose layer lies above k."""
    if tab.shape.inner.parts:
        raise ShapeViolation("only straight shapes correspond to halves")
    lam = tab.shape.outer
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")
    side = "upper" if tab.convention == "descending" else "lower"
    rows = tab.rows + ((),) * (n - len(tab.rows))
    layers = [[v if side == "upper" else n + 1 - v for v in row] for row in rows]
    diagonals = tuple(
        tuple(sum(1 for layer in layers[i] if layer > k) for i in range(n - k))
        for k in range(n)
    )
    return HalfPlanePartition(n, m, side, diagonals)
