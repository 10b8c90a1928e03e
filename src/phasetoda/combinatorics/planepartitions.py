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
weakly decreasing N-tuples over [0, M] and componentwise >= the next; it is
enumerated by ``_row_chains``, N rows deep, as are the lattice paths.

Each invariant has one predicate: ``_is_row`` (a row falls inside [0, M]),
``_dominates`` (a row is >= the next entry by entry: a box's columns, the
paths' non-crossing) and ``_interlaces`` (a half's diagonals).  The public
constructors run them on every object they are given.  The enumerators run
them once where they make a part: each of the C(N+M, N) rows before any
chain is grown (the ``below`` table of ``_row_chains`` is then the only
dominance test) and each diagonal of a half at the node of the search tree
that makes it.  What an enumerator yields is built by ``_trusted``, which
skips the constructor's checks.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from ..errors import ShapeViolation
from .partitions import Partition, SkewShape
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


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, its
    checks skipped: for the objects whose invariants an enumerator has
    tested as it made them.  It is equal and hash-equal to ``cls(**fields)``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


def macmahon_count(n: int, m: int) -> int:
    """Number of plane partitions in the n x n x m box: MacMahon's product
    over the base cells (i, j) of (i + j + m - 1) / (i + j - 1)."""
    num = den = 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            num *= i + j + m - 1
            den *= i + j - 1
    assert num % den == 0
    return num // den


def _row_chains(rows: list, depth: int, keep=None) -> Iterator[tuple]:
    """Chains of depth rows, each componentwise >= the next, in the order of
    ``rows`` at every level; ``keep(p, row)`` prunes the rows of level p.
    A row's rows below are listed once, when a chain first reaches it."""
    below: dict = {}

    def grow(chain, candidates):
        p = len(chain)
        if keep is not None:
            candidates = [row for row in candidates if keep(p, row)]
        if p + 1 == depth:
            for row in candidates:
                yield chain + (row,)
            return
        for row in candidates:
            if row not in below:
                below[row] = [b for b in rows if _dominates(row, b)]
            yield from grow(chain + (row,), below[row])

    if depth == 0:
        yield ()
        return
    yield from grow((), rows)


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

    def grow(diagonals):
        if len(diagonals) >= n:
            yield _trusted(HalfPlanePartition, n=n, m=m, side=side, diagonals=diagonals[:n])
            return
        prev = diagonals[-1]
        ranges = [range(prev[i], prev[i + 1] - 1, -1) for i in range(len(prev) - 1)]
        for cur in itertools.product(*ranges):
            if not _interlaces(prev, cur):
                raise ShapeViolation("diagonals must interlace")
            yield from grow(diagonals + (cur,))

    yield from grow((lam.padded(n),))


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
