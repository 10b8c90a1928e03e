"""Finite hierarchy data: shift exponentials, the dressed matrix, tau-functions.

A context holds the interval [m, n), a constant matrix A indexed by
m..n-1, and two time vectors of length n-m-1.  The dressed matrix is
D = exp(sum x_k shift^k) A exp(-sum y_k shift_T^k); tau at site s is its
leading principal minor of size s-m.  Because the shift matrices are
nilpotent, every exponential is the finite triangular Toeplitz matrix of
one-row character polynomials and everything stays polynomial.

A minor has two routes.  The direct one expands the minor of D itself.
The dual one reads it off D^-1 by Jacobi's complementary-minor identity,
in absolute indices

    det D[I, J] = (-1)^(sum I + sum J) * det A * det D^-1[J^c, I^c].

The index reversal J, i -> m + n - 1 - i, turns shift_T into shift, so
J D^-1 J = exp(sum y_k shift^k) (J A^-1 J) exp(-sum x_k shift_T^k) is the
dressed matrix of the dual context (constant matrix J A^-1 J, times
swapped): the dual route is its direct route at the reversed indices of
the complements, and ``entry`` alone builds dressed entries.  On a
power-sum restricted context the dual context's zeta(y) and zeta(-x) are
elementary symmetric polynomials, which vanish past the alphabet's length,
so its dressed matrix is banded and its entries are small while D's are
complete symmetric sums of every degree.

The route is decided once per context, from what its times cost:

  * direct for every minor when all times are constants (the numeric
    contexts of ``at_point``) or when det A = 0;
  * dual for every nonempty minor when zeta(-x) and zeta(y) both vanish
    at the horizon (the banded case: a restricted context with M >= 2,
    whose horizon N + M - 1 passes both alphabets);
  * otherwise dual only for a minor whose complement is smaller.

A minor whose rows or columns do not strictly increase inside m..n-1, or
that is not square, goes direct.  The zeta pair (zeta(x), zeta(-y)), the
rows of exp(x.raise) A, the dressed entries, A^-1 and det A (by exact
Fraction elimination), the dual context, the route and every minor are
built on first use and kept in the context, as are the linear problem's
matrices; the dual context keeps its own pair, rows and entries.  A
context at a rational point (``at_point``) is the exception: it is
dressed whole when it is made, in one pass on integer numerators, and
starts with its zeta pair, every entry and the dressed matrix kept; a
context built directly from the same constant times builds the same
entries on demand and is that pass's test oracle.  The cache belongs to
the context and nothing else: every run and every ``at_point`` builds a
fresh one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, constant_over, constants_over_lcm, det_exact, poly_sum
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

    def at_point(self, x_values: Sequence, y_values: Sequence) -> "TauContext":
        """Numeric context with the same constant matrix, dressed in one
        integer pass and kept.  With zeta(x), A and zeta(-y) as integer
        numerators xs, ns and ys over their lcms dx, da and dy, row i of
        exp(x.raise) A has sum_t xs[t] col[i + t] over dx da in the place of
        each column col of ns, entry (i, j) of the dressed matrix is
        sum_t rows[i][j + t] ys[t] over dx da dy, and ``constant_over``
        reduces each entry."""
        xv = tuple(MultiPoly.const(Fraction(v)) for v in x_values)
        yv = tuple(MultiPoly.const(Fraction(v)) for v in y_values)
        ctx = TauContext(self.m, self.n, self.a, xv, yv)
        (xs, dx), (ys, dy) = map(constants_over_lcm, ctx._zetas())
        size = self.n - self.m
        ns, da = constants_over_lcm(self.a.entries)
        cols = [ns[k::size] for k in range(size)]
        rows = [[sum(map(mul, xs, col[i:])) for col in cols] for i in range(size)]
        den = dx * da * dy
        ents = [constant_over(sum(map(mul, ys, row[j:])), den) for row in rows for j in range(size)]
        cache, m = ctx._cache, self.m
        for k, e in enumerate(ents):
            cache[("entry", m + k // size, m + k % size)] = e
        cache["dressed"] = RingMatrix(size, size, ents)
        return ctx

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
        use (a context at a point has all of them from ``at_point``): row i
        of exp(x.raise) A times column j of exp(-y.lower), whose entries
        are zeta_{l-j}(-y) for l >= j."""
        def build():
            row, zy, c = self._row(i), self._zetas()[1], j - self.m
            return poly_sum(row[l] * zy[l - c] for l in range(c, len(row))
                            if row[l] and zy[l - c])

        return self.kept(("entry", i, j), build)

    def _row(self, i: int) -> list:
        """Row i of exp(x.raise) A, whose entry k is the sum over l >= i of
        zeta_{l-i}(x) A[l, k]; kept, and built only when an entry reads it."""
        def build():
            zx, a, r = self._zetas()[0], self.a, i - self.m
            band = [(zx[l - r], a.row(l)) for l in range(r, a.rows) if zx[l - r]]
            return [poly_sum(z * row[k] for z, row in band if row[k]) for k in range(a.cols)]

        return self.kept(("row", i), build)

    def _zetas(self) -> tuple:
        """(zeta(x), zeta(-y)) up to the horizon; kept."""
        return self.kept("zetas", lambda: (
            zeta_all(self.horizon, self.x), zeta_all(self.horizon, negate_times(self.y))))

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
        """Jacobi's identity: (-1)^(sum I + sum J) det A det D^-1[J^c, I^c],
        read off the dual context at the reversed indices in the order of J^c
        and I^c, which sets the subset expansion's cost on a banded matrix;
        rows and cols strictly increase inside m..n-1 and have one length."""
        m, n = self.m, self.n
        rest_rows = [m + n - 1 - j for j in range(m, n) if j not in cols]
        rest_cols = [m + n - 1 - i for i in range(m, n) if i not in rows]
        sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
        return self._dual()._direct_minor(rest_rows, rest_cols) * (sign * self._inverse()[1])

    def _dual(self) -> "TauContext":
        """The context of J A^-1 J with the times swapped, whose dressed
        matrix is J D^-1 J (module docstring); kept, and built only when
        det A != 0."""
        def build():
            inverse, size, zero = self._inverse()[0], self.n - self.m, MultiPoly.zero()
            a = RingMatrix(size, size, [MultiPoly.const(v) if v else zero
                                        for row in reversed(inverse) for v in reversed(row)])
            return TauContext(self.m, self.n, a, self.y, self.x)

        return self.kept("dual", build)

    def _inverse(self) -> tuple:
        """(A^-1 as rows of Fractions, det A), or (None, 0) when A is
        singular; kept."""
        return self.kept("inverse", lambda: _inverse_and_det(self.a))

    def _dual_from(self) -> int:
        """The fewest rows of a minor that takes the dual route (module
        docstring), decided from the dual context's zeta lists zeta(y) and
        zeta(-x), so that it builds nothing only the direct route reads."""
        size = self.n - self.m
        if not any(t.vars for t in self.x + self.y) or not self._inverse()[1]:
            return size + 1
        return 1 if not any(z[-1] for z in self._dual()._zetas()) else size // 2 + 1


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
