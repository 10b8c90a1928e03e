"""Partitions, skew shapes, and occupation sequences."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ShapeViolation


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of non-negative ints, trailing zeros stripped."""

    parts: tuple

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(int, parts))
        if not all(map(operator.ge, parts, parts[1:])):
            raise ShapeViolation(f"not weakly decreasing: {parts}")
        # decreasing: the last part is the least, and the zeros trail
        if parts and parts[-1] < 0:
            raise ShapeViolation(f"negative part: {parts}")
        object.__setattr__(self, "parts", parts[: len(parts) - parts.count(0)])

    def get(self, i: int) -> int:
        """1-based part access, 0 beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def length(self) -> int:
        return len(self.parts)

    def contains(self, other: "Partition") -> bool:
        return all(self.get(i) >= other.get(i) for i in range(1, other.length() + 1))

    def fits_in_box(self, rows: int, max_part: int) -> bool:
        return self.length() <= rows and (not self.parts or self.parts[0] <= max_part)

    def conjugate(self) -> "Partition":
        return Partition(sum(1 for p in self.parts if p > j) for j in range(self.get(1)))

    def padded(self, n: int) -> tuple:
        if len(self.parts) > n:
            raise ShapeViolation(f"{self} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def hook(k: int) -> Partition:
    """Single-row partition (k); (0) normalizes to the empty partition."""
    return Partition((k,)) if k > 0 else Partition(())


def column(k: int) -> Partition:
    """Single-column partition (1^k)."""
    return Partition((1,) * k)


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise ShapeViolation(f"{self.inner} not contained in {self.outer}")

    def cells(self) -> list:
        return [(i, j) for i in range(1, self.outer.length() + 1)
                for j in range(self.inner.get(i) + 1, self.outer.get(i) + 1)]

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, its
    checks skipped: for the objects whose invariants an enumerator has
    tested as it made them.  It is equal and hash-equal to ``cls(**fields)``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _walk(depth: int, options) -> Iterator[tuple]:
    """Each chain (c_0, .., c_{depth-1}) with c_p taken, in order, from
    ``options(chain)``, depth first; no option may be None.  ``options`` is
    called once per node, as the walk steps down to it, with the chain that
    leads there: a list the walk reuses, to be read and not kept.  The walk
    keeps its own stack of iterators, so no depth needs recursion."""
    if depth == 0:
        yield ()
        return
    chain: list = []
    stack = [iter(options(chain))]
    while stack:
        if len(stack) == depth:
            for c in stack[-1]:
                yield (*chain, c)
        elif (c := next(stack[-1], None)) is not None:
            chain.append(c)
            stack.append(iter(options(chain)))
            continue
        stack.pop()
        if chain:
            chain.pop()


def partitions_in_box(n_rows: int, max_part: int) -> list:
    """All partitions with at most n_rows parts, each at most max_part.

    Deterministic order: increasing lexicographic on the padded part tuple,
    so the empty partition comes first and the full box last: the
    C(n_rows + max_part, n_rows) rows of a plane partition's box, reversed.
    """
    if n_rows < 0 or max_part < 0:
        raise ShapeViolation("box dimensions must be non-negative")
    rows = itertools.combinations_with_replacement(range(max_part, -1, -1), n_rows)
    return [Partition(row) for row in rows][::-1]


@dataclass(frozen=True)
class OccupationSequence:
    """Site occupations n_0..n_M with total N."""

    counts: tuple

    def __init__(self, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ShapeViolation(f"negative occupation: {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def site_bound(self) -> int:
        return len(self.counts) - 1


def occupation_to_partition(occ: OccupationSequence) -> Partition:
    """lambda = (M^{n_M}, ..., 1^{n_1}, 0^{n_0})."""
    parts = []
    for site in range(occ.site_bound, -1, -1):
        parts.extend([site] * occ.counts[site])
    return Partition(parts)


def partition_to_occupation(lam: Partition, total: int, site_bound: int) -> OccupationSequence:
    """Inverse of occupation_to_partition given (N, M)."""
    if not lam.fits_in_box(total, site_bound):
        raise ShapeViolation(f"{lam} does not fit in ({site_bound})^{total}")
    counts = [0] * (site_bound + 1)
    for p in lam.padded(total):
        counts[p] += 1
    return OccupationSequence(counts)
