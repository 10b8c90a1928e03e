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

Each vertex line carries one spectral variable.  At a vertex the pair
(vertical edge below occupied?, above occupied?) selects one of four
letters: (0,0) d, (1,1) a, (0,1) b, (1,0) c, and the weight exponent of the
line's variable is #d - #a.  Lines x = +l carry the l-th creation variable;
lines x = -(N+1-l) carry the l-th annihilation variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import ShapeViolation
from .partitions import OccupationSequence, Partition, occupation_to_partition
from .planepartitions import PlanePartitionBox


@dataclass(frozen=True)
class LatticePathConfig:
    n: int
    m: int
    turns: tuple  # turns[p][i]: row of path p+1's (i+1)-th horizontal run

    def __post_init__(self):
        t = self.turns
        if len(t) != self.n or any(len(row) != self.n for row in t):
            raise ShapeViolation("need N paths with N runs each")
        for row in t:
            if any(not (0 <= r <= self.m) for r in row):
                raise ShapeViolation("run row outside [0, M]")
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                raise ShapeViolation("run rows must weakly increase")
        for p in range(self.n - 1):
            if any(t[p][i] < t[p + 1][i] for i in range(self.n)):
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
        out = []
        for r in range(self.m + 1):
            below = r in edges
            above = (r + 1) in edges
            out.append({(False, False): "d", (True, True): "a",
                        (False, True): "b", (True, False): "c"}[(below, above)])
        return out

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
    """Column j of the array, read bottom to top, is path j's run-row list."""
    n = config.n
    arr = tuple(
        tuple(config.turns[j][n - 1 - i] for j in range(n)) for i in range(n)
    )
    return PlanePartitionBox(n, config.m, arr)


def pp_to_path(pp: PlanePartitionBox) -> LatticePathConfig:
    n = pp.n
    turns = tuple(
        tuple(pp.array[n - 1 - i][j] for i in range(n)) for j in range(n)
    )
    return LatticePathConfig(n, pp.m, turns)


def enumerate_path_configs(
    n: int, m: int, occupation: Optional[OccupationSequence] = None
) -> Iterator[LatticePathConfig]:
    """All configurations, optionally constrained to a start/end pattern.

    The constraint fixes the occupation sequence, i.e. the partition read
    off the middle crossings.  Deterministic order: paths are filled in
    order with run rows chosen largest first.
    """
    diag = None
    if occupation is not None:
        if occupation.total != n or occupation.site_bound != m:
            raise ShapeViolation("occupation pattern does not match (N, M)")
        diag = occupation_to_partition(occupation).padded(n)
    turns: list = []

    def rec(p):
        if p == n:
            yield LatticePathConfig(n, m, tuple(tuple(r) for r in turns))
            return
        upper = turns[p - 1] if p else None

        def fill(row, i):
            if i == n:
                turns.append(tuple(row))
                yield from rec(p + 1)
                turns.pop()
                return
            hi = m if upper is None else upper[i]
            lo = row[-1] if row else 0
            if diag is not None and i == n - 1 - p:
                v = diag[p]
                if lo <= v <= hi:
                    row.append(v)
                    yield from fill(row, i + 1)
                    row.pop()
                return
            for v in range(hi, lo - 1, -1):
                row.append(v)
                yield from fill(row, i + 1)
                row.pop()

        yield from fill([], 0)

    yield from rec(0)
