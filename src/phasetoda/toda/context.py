"""Finite hierarchy data: shift exponentials, the dressed matrix, tau-functions.

A context holds the interval [m, n), a constant matrix A indexed by
m..n-1, and two time vectors of length n-m-1.  The dressed matrix is
exp(sum x_k shift^k) A exp(-sum y_k shift_T^k); tau at site s is its
leading principal minor of size s-m.  Because the shift matrices are
nilpotent, every exponential is the finite triangular Toeplitz matrix of
one-row character polynomials and everything stays polynomial.  Dressed
entries are built on demand and kept in the context, so a minor pays only
for the rows and columns it reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, det_exact
from ..combinatorics.partitions import partitions_in_box
from ..errors import RangeViolation
from ..symfunc import char_poly, negate_times, zeta_all


def shift_exp(direction: str, times: Sequence[MultiPoly], m: int, n: int) -> RingMatrix:
    """exp of sum_k times[k-1] * shift^k as a Toeplitz matrix of zetas.

    'raise' gives entries zeta_{j-i}(times), 'lower' gives zeta_{i-j}(times).
    Callers negate the time vector where their formulas carry a minus sign.
    """
    size = n - m
    zs = zeta_all(size - 1, list(times))

    def z(k):
        return zs[k] if 0 <= k < size else MultiPoly.zero()

    ents = []
    for i in range(size):
        for j in range(size):
            ents.append(z(j - i) if direction == "raise" else z(i - j))
    return RingMatrix(size, size, ents)


@dataclass
class TauContext:
    m: int
    n: int
    a: RingMatrix
    x: tuple
    y: tuple
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n <= self.m:
            raise RangeViolation("need n > m")
        size = self.n - self.m
        if self.a.rows != size or self.a.cols != size:
            raise ValueError("constant matrix has wrong size")
        horizon = size - 1
        if len(self.x) != horizon or len(self.y) != horizon:
            raise ValueError(f"time vectors must have length {horizon}")
        self.x = tuple(self.x)
        self.y = tuple(self.y)

    @property
    def horizon(self) -> int:
        return self.n - self.m - 1

    @classmethod
    def symbolic(cls, m: int, n: int, a: RingMatrix) -> "TauContext":
        h = n - m - 1
        x = tuple(MultiPoly.var(f"x{k}") for k in range(1, h + 1))
        y = tuple(MultiPoly.var(f"y{k}") for k in range(1, h + 1))
        return cls(m, n, a, x, y)

    @classmethod
    def generic(cls, m: int, n: int, seed: int) -> "TauContext":
        """Symbolic times over a seeded random integer matrix whose leading
        principal minors are all nonzero."""
        a = generic_constant_matrix(n - m, seed)
        return cls.symbolic(m, n, a)

    @classmethod
    def identity(cls, m: int, n: int) -> "TauContext":
        return cls.symbolic(m, n, RingMatrix.identity(n - m))

    def at_point(self, x_values: Sequence, y_values: Sequence) -> "TauContext":
        """Numeric context with the same constant matrix."""
        xv = tuple(MultiPoly.const(Fraction(v)) for v in x_values)
        yv = tuple(MultiPoly.const(Fraction(v)) for v in y_values)
        return TauContext(self.m, self.n, self.a, xv, yv)

    # -- core objects -------------------------------------------------------

    def dressed(self) -> RingMatrix:
        """The whole dressed matrix, assembled from its entries."""
        if "dressed" not in self._cache:
            idx = range(self.m, self.n)
            ents = [self.entry(i, j) for i in idx for j in idx]
            self._cache["dressed"] = RingMatrix(len(idx), len(idx), ents)
        return self._cache["dressed"]

    def entry(self, i: int, j: int) -> MultiPoly:
        """Dressed entry indexed by absolute indices in m..n-1, built on first
        use: row i of exp(x.raise) A times column j of exp(-y.lower), whose
        entries are zeta_{l-j}(-y) for l >= j."""
        key = ("entry", i, j)
        cache = self._cache
        if key not in cache:
            if "xa" not in cache:
                cache["xa"] = shift_exp("raise", self.x, self.m, self.n) @ self.a
                cache["zy"] = zeta_all(self.horizon, negate_times(self.y))
            row = cache["xa"].row(i - self.m)
            zy = cache["zy"]
            c = j - self.m
            acc = MultiPoly.zero()
            for l in range(c, len(row)):
                a, b = row[l], zy[l - c]
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            cache[key] = acc
        return cache[key]

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> MultiPoly:
        """Minor of the dressed matrix in absolute indices; builds only the
        entries it reads."""
        key = ("minor", tuple(rows), tuple(cols))
        if key not in self._cache:
            ents = [self.entry(i, j) for i in rows for j in cols]
            self._cache[key] = det_exact(RingMatrix(len(rows), len(cols), ents))
        return self._cache[key]


def generic_constant_matrix(size: int, seed: int) -> RingMatrix:
    """Seeded random integer matrix with entries in [-5, 5], redrawn until
    every leading principal minor is nonzero (the nondegeneracy hypothesis
    for wave entries)."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        mat = RingMatrix.from_rows(rows)
        ok = True
        for s in range(1, size + 1):
            lead = mat.submatrix(range(s), range(s))
            if det_exact(lead).is_zero():
                ok = False
                break
        if ok:
            return mat


def tau(ctx: TauContext, s: int) -> MultiPoly:
    """Leading principal minor of the dressed matrix (1 for s = m)."""
    if not (ctx.m <= s <= ctx.n):
        raise RangeViolation(f"site {s} outside [{ctx.m}, {ctx.n}]")
    idx = range(ctx.m, s)
    return ctx.minor(idx, idx)


def tau_schur_expand(ctx: TauContext, s: int) -> MultiPoly:
    """Tau as a double character-polynomial sum over boxed partition pairs.

    The coefficient of a pair (lam, mu) is the minor of the constant matrix
    with rows lam_{r+1-i} + i + m - 1 and columns mu_{r+1-j} + j + m - 1,
    r = s - m.
    """
    if not (ctx.m <= s <= ctx.n):
        raise RangeViolation(f"site {s} outside [{ctx.m}, {ctx.n}]")
    r = s - ctx.m
    width = ctx.n - s
    lams = partitions_in_box(r, width)
    neg_y = negate_times(ctx.y)
    chi_x = {lam: char_poly(lam, ctx.x, r) for lam in lams}
    chi_y = {lam: char_poly(lam, neg_y, r) for lam in lams}
    total = MultiPoly.zero()
    for lam in lams:
        lrows = [lam.get(r + 1 - i) + i + ctx.m - 1 for i in range(1, r + 1)]
        for mu in lams:
            mcols = [mu.get(r + 1 - j) + j + ctx.m - 1 for j in range(1, r + 1)]
            sub = ctx.a.submatrix([i - ctx.m for i in lrows], [j - ctx.m for j in mcols])
            coeff = det_exact(sub)
            if coeff.is_zero():
                continue
            total = total + coeff * chi_x[lam] * chi_y[mu]
    return total
