"""Finite hierarchy data: shift exponentials, the dressed matrix, tau-functions.

A context holds the interval [m, n), a constant matrix A indexed by
m..n-1, and two time vectors of length n-m-1.  The dressed matrix is
D = exp(sum x_k shift^k) A exp(-sum y_k shift_T^k); tau at site s is its
leading principal minor of size s-m.  Because the shift matrices are
nilpotent, every exponential is the finite triangular Toeplitz matrix of
one-row character polynomials and everything stays polynomial.

A minor has two routes.  The direct one expands the minor of D itself.
The dual one reads it off the inverse D^-1 = exp(sum y_k shift_T^k) A^-1
exp(-sum x_k shift^k) by Jacobi's complementary-minor identity, in
absolute indices

    det D[I, J] = (-1)^(sum I + sum J) * det A * det D^-1[J^c, I^c],

whose entry (i, j) is sum_{l <= i, k <= j} zeta_{i-l}(y) A^-1[l, k]
zeta_{j-k}(-x).  On a power-sum restricted context the factors zeta(-x)
and zeta(y) are elementary symmetric polynomials, which vanish past the
alphabet's length, so D^-1 is banded and its entries are small while D's
are complete symmetric sums of every degree.

The route is decided once per context, from what its times cost:

  * direct for every minor when all times are constants (the numeric
    contexts of ``at_point``) or when det A = 0;
  * dual for every nonempty minor when zeta(-x) and zeta(y) both vanish
    at the horizon (the banded case: a restricted context with M >= 2,
    whose horizon N + M - 1 passes both alphabets);
  * otherwise dual only for a minor whose complement is smaller.

A minor whose rows or columns do not strictly increase inside m..n-1, or
that is not square, goes direct.  Dressed entries, dual entries, A^-1 and
det A (by exact Fraction elimination), both zeta lists, the route and every
minor are built on first use and kept in the context, as are the linear
problem's matrices.  The cache belongs to the context and nothing else:
every run and every ``at_point`` builds a fresh one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, det_exact, poly_sum
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

    def kept(self, key, build):
        """The value kept in this context under ``key``, made by ``build()``
        on first use; every caller gets the same object, so none may
        mutate it."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def dressed(self) -> RingMatrix:
        """The whole dressed matrix, assembled from its entries."""
        idx = range(self.m, self.n)
        return self.kept("dressed", lambda: RingMatrix(
            len(idx), len(idx), [self.entry(i, j) for i in idx for j in idx]))

    def entry(self, i: int, j: int) -> MultiPoly:
        """Dressed entry indexed by absolute indices in m..n-1, built on first
        use: row i of exp(x.raise) A times column j of exp(-y.lower), whose
        entries are zeta_{l-j}(-y) for l >= j."""
        def build():
            xa, zy = self.kept("xa_zy", lambda: (
                shift_exp("raise", self.x, self.m, self.n) @ self.a,
                zeta_all(self.horizon, negate_times(self.y)),
            ))
            row = xa.row(i - self.m)
            c = j - self.m
            return poly_sum(row[l] * zy[l - c] for l in range(c, len(row))
                            if row[l].nums and zy[l - c].nums)

        return self.kept(("entry", i, j), build)

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> MultiPoly:
        """Minor of the dressed matrix in absolute indices, by the route the
        context chose (module docstring); builds only the entries it reads."""
        rows, cols = tuple(rows), tuple(cols)

        def build():
            if (len(rows) == len(cols) >= self.kept("dual_from", self._dual_from)
                    and _increasing(rows, self.m, self.n) and _increasing(cols, self.m, self.n)):
                return self._dual_minor(rows, cols)
            return self._direct_minor(rows, cols)

        return self.kept(("minor", rows, cols), build)

    def _direct_minor(self, rows: Sequence[int], cols: Sequence[int]) -> MultiPoly:
        return det_exact(RingMatrix(len(rows), len(cols),
                                    [self.entry(i, j) for i in rows for j in cols]))

    def _dual_minor(self, rows: Sequence[int], cols: Sequence[int]) -> MultiPoly:
        """Jacobi's identity: the minor of D^-1 on the complements, rows
        J^c and columns I^c, times (-1)^(sum I + sum J) det A; rows and cols
        strictly increase inside m..n-1 and have one length."""
        rest_rows = [j for j in range(self.m, self.n) if j not in cols]
        rest_cols = [i for i in range(self.m, self.n) if i not in rows]
        sub = det_exact(RingMatrix(len(rest_rows), len(rest_cols),
                                   [self._dual_entry(i, j) for i in rest_rows for j in rest_cols]))
        sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
        return sub * (sign * self._inverse()[1])

    def _dual_entry(self, i: int, j: int) -> MultiPoly:
        """Entry of D^-1 in absolute indices, built on first use: row i of
        exp(y.lower) A^-1 times column j of exp(-x.raise), whose entries are
        zeta_{j-k}(-x) for k <= j."""
        def build():
            row, zx = self._dual_row(i), self._dual_zetas()[0]
            c = j - self.m
            return poly_sum(row[k] * zx[c - k] for k in range(c + 1)
                            if row[k].nums and zx[c - k].nums)

        return self.kept(("dual_entry", i, j), build)

    def _dual_row(self, i: int) -> list:
        """Row i of exp(y.lower) A^-1, whose entry k is the sum over l <= i
        of zeta_{i-l}(y) A^-1[l, k]; kept."""
        def build():
            zy, inverse, r = self._dual_zetas()[1], self._inverse()[0], i - self.m
            return [poly_sum(zy[r - l] * inverse[l][k] for l in range(r + 1)
                             if zy[r - l].nums and inverse[l][k])
                    for k in range(self.n - self.m)]

        return self.kept(("dual_row", i), build)

    def _inverse(self) -> tuple:
        """(A^-1 as rows of Fractions, det A), or (None, 0) when A is
        singular; kept."""
        return self.kept("inverse", lambda: _inverse_and_det(self.a))

    def _dual_zetas(self) -> tuple:
        """(zeta(-x), zeta(y)) up to the horizon; kept."""
        return self.kept("dual_zetas", lambda: (
            zeta_all(self.horizon, negate_times(self.x)), zeta_all(self.horizon, self.y)))

    def _dual_from(self) -> int:
        """The fewest rows of a minor that takes the dual route (module
        docstring), decided from the dual route's own zeta lists, so that it
        builds nothing only the direct route reads."""
        size = self.n - self.m
        if not any(t.vars for t in self.x + self.y) or not self._inverse()[1]:
            return size + 1
        zx, zy = self._dual_zetas()
        return 1 if not zx[-1] and not zy[-1] else size // 2 + 1


def _increasing(idx: tuple, m: int, n: int) -> bool:
    """Whether idx strictly increases inside m..n-1."""
    return all(a < b for a, b in zip((m - 1,) + idx, idx + (n,)))


def _inverse_and_det(a: RingMatrix) -> tuple:
    """(A^-1 as rows of Fractions, det A) of a constant matrix by exact
    Gauss-Jordan elimination, or (None, 0) when A is singular."""
    size = a.rows
    rows = [[a[i, j].constant_value() for j in range(size)]
            + [Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for k in range(size):
        p = next((i for i in range(k, size) if rows[i][k]), None)
        if p is None:
            return None, Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        top = rows[k] = [v / pivot for v in rows[k]]
        for i in range(size):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [v - f * t for v, t in zip(rows[i], top)]
    return [r[size:] for r in rows], det


def generic_constant_matrix(size: int, seed: int) -> RingMatrix:
    """Seeded random integer matrix with entries in [-5, 5], redrawn until
    every leading principal minor is nonzero (the nondegeneracy hypothesis
    for wave entries)."""
    rng = random.Random(seed)
    while True:
        mat = RingMatrix.from_rows([[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)])
        if vanishing_leading_minor(mat) is None:
            return mat


def vanishing_leading_minor(mat: RingMatrix) -> int | None:
    """The size of the smallest leading principal minor of ``mat`` that
    vanishes, or None when none does."""
    return next((s for s in range(1, mat.rows + 1)
                 if det_exact(mat.submatrix(range(s), range(s))).is_zero()), None)


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
    terms = []
    for lam in lams:
        lrows = [lam.get(r + 1 - i) + i + ctx.m - 1 for i in range(1, r + 1)]
        for mu in lams:
            mcols = [mu.get(r + 1 - j) + j + ctx.m - 1 for j in range(1, r + 1)]
            sub = ctx.a.submatrix([i - ctx.m for i in lrows], [j - ctx.m for j in mcols])
            coeff = det_exact(sub)
            if not coeff.is_zero():
                terms.append(coeff * chi_x[lam] * chi_y[mu])
    return poly_sum(terms)
