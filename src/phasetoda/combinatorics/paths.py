"""Non-crossing column-strict lattice path configurations.

N paths live on a lattice with M+1 rows of vertices and 2N vertex lines at
x in {-N..-1, 1..N}.  Path p enters from below the bottom row at line
p-N-1, exits above the top row at line p, and in between takes N horizontal
unit runs at weakly increasing rows; run rows are stored per path
("turning rows"), bottom to top.  Column j of the associated plane
partition read bottom to top is exactly path j's run-row list, so the
bijection to boxed plane partitions is a transposition of storage.

Multiple paths may share a horizontal edge (that is how site occupations
above one arise); vertical edges are never shared (column strictness),
which is equivalent to the plane-partition inequalities.

Non-crossing puts each path's turn row componentwise below the row of the
path before it, so the configurations are enumerated as chains of weakly
increasing rows by the plane partitions' ``_row_chains``.  A path's run
rows, read backwards, are a plane-partition row, and non-crossing is the
plane partitions' dominance, so both invariants share their predicates
with ``planepartitions``: the constructor tests every configuration it is
given, while the enumerator tests each of its C(N+M, N) rows once before
chaining them and builds what it yields unchecked.

Each vertex line carries one spectral variable.  At a vertex the pair
(vertical edge below occupied?, above occupied?) selects one of four
letters: (0,0) d, (1,1) a, (0,1) b, (1,0) c, and the weight exponent of the
line's variable is #d - #a.  Lines x = +l carry the l-th creation variable;
lines x = -(N+1-l) carry the l-th annihilation variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import ShapeViolation
from .partitions import OccupationSequence, Partition, _trusted, occupation_to_partition
from .planepartitions import PlanePartitionBox, _dominates, _is_row, _row_chains

# the vertex letter of (vertical edge below occupied?, edge above occupied?)
_LETTERS = {(False, False): "d", (True, True): "a", (False, True): "b", (True, False): "c"}


def _check_runs(rows, m: int) -> None:
    """Raise on the first row of runs that leaves [0, m] or falls."""
    for row in rows:
        if not _is_row(row[::-1], m):
            if 0 <= min(row) and max(row) <= m:
                raise ShapeViolation("run rows must weakly increase")
            raise ShapeViolation("run row outside [0, M]")


@dataclass(frozen=True)
class LatticePathConfig:
    n: int
    m: int
    turns: tuple  # turns[p][i]: row of path p+1's (i+1)-th horizontal run

    def __post_init__(self):
        t = self.turns
        if [*map(len, t)] != [self.n] * self.n:
            raise ShapeViolation("need N paths with N runs each")
        _check_runs(t, self.m)
        if not all(map(_dominates, t, t[1:])):
            raise ShapeViolation("paths cross")

    def diagonal(self) -> Partition:
        return Partition(tuple(self.turns[p][self.n - 1 - p] for p in range(self.n)))

    # -- geometry ----------------------------------------------------------

    def climb_edges(self, x: int) -> set:
        """Occupied vertical edges on line x.

        Edge r (0 <= r <= M+1) sits below vertex row r; r = 0 is the bottom
        entry stub, r = M+1 the top exit stub.
        """
        n, m = self.n, self.m
        edges = set()
        if x < 0:
            plist = [(p, x + n + 1 - p) for p in range(1, min(n, x + n + 1) + 1)]
        else:
            plist = [(p, x + n - p) for p in range(max(1, x), n + 1)]
        for p, i in plist:
            t = self.turns[p - 1]
            if i == 0:
                edges.update(range(0, t[0] + 1))
            elif i < n:
                edges.update(range(t[i - 1] + 1, t[i] + 1))
            else:
                edges.update(range(t[n - 1] + 1, m + 2))
        return edges

    def letters(self, x: int) -> list:
        """Vertex letters on line x, rows 0..M."""
        edges = self.climb_edges(x)
        return [_LETTERS[r in edges, r + 1 in edges] for r in range(self.m + 1)]

    def exponent(self, x: int) -> int:
        """#d - #a on line x (the weight exponent of that line's variable)."""
        letters = self.letters(x)
        return letters.count("d") - letters.count("a")

    def creation_exponent(self, l: int) -> int:
        """Exponent of the l-th creation (u) variable."""
        return self.exponent(l)

    def annihilation_exponent(self, l: int) -> int:
        """Exponent of the l-th annihilation (v) variable."""
        return self.exponent(-(self.n + 1 - l))


def path_to_pp(config: LatticePathConfig) -> PlanePartitionBox:
    """Column j of the array, read bottom to top, is path j's run-row list:
    the array is the turn rows transposed, its rows taken bottom up."""
    return PlanePartitionBox(config.n, config.m, tuple(zip(*config.turns))[::-1])


def pp_to_path(pp: PlanePartitionBox) -> LatticePathConfig:
    return LatticePathConfig(pp.n, pp.m, tuple(zip(*pp.array[::-1])))


def enumerate_path_configs(
    n: int, m: int, occupation: Optional[OccupationSequence] = None
) -> Iterator[LatticePathConfig]:
    """All configurations, optionally constrained to a start/end pattern.

    The constraint fixes the occupation sequence, i.e. the partition read
    off the middle crossings: path p takes only turn rows whose entry N-1-p
    is the partition's part p.  Deterministic order: paths are filled in
    order with run rows chosen largest first.
    """
    keep = None
    if occupation is not None:
        if occupation.total != n or occupation.site_bound != m:
            raise ShapeViolation("occupation pattern does not match (N, M)")
        diag = occupation_to_partition(occupation).padded(n)

        def keep(p, row):
            return row[n - 1 - p] == diag[p]

    # weakly increasing turn rows, lexicographically descending
    rows = list(itertools.combinations_with_replacement(range(m + 1), n))[::-1]
    _check_runs(rows, m)
    for chain in _row_chains(rows, n, keep):
        yield _trusted(LatticePathConfig, n=n, m=m, turns=chain)
