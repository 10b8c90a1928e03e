"""Local L-operators, the monodromy matrix, and Bethe-type state vectors.

The local operator at site j is the 2x2 matrix [[1/u, create_j], [destroy_j,
u]].  The monodromy matrix is the ordered product over sites M, M-1, .., 0;
its corners act on kets (A preserves, B raises, C lowers, D preserves the
total occupation).  On bras the same corners act from the right, which
swaps the roles of the creation and annihilation entries.

Every state vector is a basis vector grown by one corner per spectral
value, and a corner is never taken from the whole 2x2 operator product: on
a ket it needs only its column of the product, on a bra only its row, and
one transfer loop carries that pair of vectors across the sites.  The pair
is two plain dicts from occupation to coefficient; at each site the first
is scaled by a and the second by d, then the first gains the second's terms
with a quantum created at the site and the second gains the first's with
one destroyed there, each shifted term scaled by b.

A grown state picks its coefficients once, from its values, and keeps them
through every corner.  When every value is a nonzero constant u = p/q, the
coefficients are integer numerators over one denominator: each corner runs
the loop with (a, b, d) = (q^2, pq, p^2), pq times the site weights
(1/u, 1, u), puts the sign of (pq)^(M+1) in the numerators and multiplies
the denominator by |pq|^(M+1), and the constants are built once, after the
last corner.  Otherwise the coefficients are MultiPolys from the first
corner on, with (a, b, d) = (1/u, 1, u), and b multiplies nothing.  Kets and
bras differ only in the site order; ``apply_local_L`` keeps the one-entry
local step for the full-product oracle of the tests.

The intertwining check multiplies the 4x4 R-matrix (rational entries
f = u^2/(u^2-v^2), g = uv/(u^2-v^2)) against tensor products of monodromy
corners on a total-occupation-truncated domain, all four corners of a
factor coming from its two columns; images are compared exactly, without
truncating the codomain, as integer term dicts: R's entries are
numerators over their lcm and each corner carries its integer weights, so
both sides, whose products each hold one T(u) and one T(v) corner, share
one scale and nothing is divided.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from ..algebra import MultiPoly, as_poly, constant_over
from ..combinatorics.partitions import partition_to_occupation, partitions_in_box
from ..errors import NotDivisible, PoleViolation, RangeViolation
from .fock import StateVector, _add_into

Spectral = Union[MultiPoly, Fraction, int]

_ENTRIES = ("a", "b", "c", "d")
_CORNERS = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def _shift_site(occ, j, delta):
    lst = list(occ)
    lst[j] += delta
    return tuple(lst)


def apply_local_L(j: int, entry: str, u: Spectral, sv: StateVector) -> StateVector:
    """Apply one entry of the local L-matrix at site j.

    Kets: 'a' scales by 1/u, 'b' creates at j, 'c' destroys at j (vacuum
    states at j are annihilated), 'd' scales by u.  Bras receive the right
    action, so 'b' destroys and 'c' creates.
    """
    if entry not in _ENTRIES:
        raise ValueError(f"entry must be one of {_ENTRIES}")
    if not (0 <= j <= sv.m):
        raise ValueError(f"site {j} outside 0..{sv.m}")
    u = as_poly(u)
    if entry == "a":
        return sv.scale(u.monomial_inverse())
    if entry == "d":
        return sv.scale(u)
    # a shift at one site is injective, so no two images collide
    creating = (entry == "b") != sv.dual
    delta = 1 if creating else -1
    return sv.copy_with({_shift_site(occ, j, delta): coeff
                         for occ, coeff in sv.terms.items() if creating or occ[j]})


def _integer_weights(u: MultiPoly) -> Optional[tuple]:
    """(q^2, pq, p^2), the site weights (1/u, 1, u) times pq, for a nonzero
    constant u = p/q; None for any other u."""
    if u.vars or not u.nums:
        return None
    p, q = u.nums[()], u.den
    return q * q, p * q, p * p


def _transfer(start: int, weights: tuple, terms: dict, m: int, dual: bool) -> tuple:
    """Column ``start`` of the monodromy matrix applied to a ket, or row
    ``start`` of it applied to a bra, as a pair of term dicts indexed by the
    other corner index; ``terms`` is not modified.

    ``weights`` is (a, b, d): a scales the first vector and d the second at
    each site, and b each shifted term; a b of None stands for 1 and
    multiplies nothing.  A ket pair is carried through sites 0..M:
    (L_j .. L_0)[i][start] sv.  A bra pair is carried through sites M..0:
    sv (L_M .. L_j)[start][i]; a row is a column of the transposed product,
    where 'b' and 'c' trade places, and on a bra 'b' destroys and 'c'
    creates, so both take the same steps.
    """
    a, b, d = weights
    first, second = (terms, {}) if start == 0 else ({}, terms)
    for j in range(m, -1, -1) if dual else range(m + 1):
        first, second = (
            _add_into({occ: a * c for occ, c in first.items()},
                      ((occ[:j] + (occ[j] + 1,) + occ[j + 1:], c if b is None else b * c)
                       for occ, c in second.items())),
            _add_into({occ: d * c for occ, c in second.items()},
                      ((occ[:j] + (occ[j] - 1,) + occ[j + 1:], c if b is None else b * c)
                       for occ, c in first.items() if occ[j])),
        )
    return first, second


def grow_state(
    entry: str, values: Sequence[Spectral], m: int, sites: Sequence[int] = (), dual: bool = False
) -> StateVector:
    """The basis vector with one quantum at each of ``sites`` (the vacuum when
    there are none), hit by corner ``entry`` once per value, the last value
    first; on integer numerators when every value is a nonzero constant, on
    MultiPolys otherwise."""
    if entry not in _CORNERS:
        raise ValueError("entry must be A, B, C or D")
    x, y = _CORNERS[entry]
    start, end = (x, y) if dual else (y, x)
    occ = [0] * (m + 1)
    for r in sites:
        if not (0 <= r <= m):
            raise RangeViolation(f"site {r} outside 0..{m}")
        occ[r] += 1
    values = [as_poly(u) for u in reversed(list(values))]
    weights = [_integer_weights(u) for u in values]
    if None not in weights:
        terms, den = {tuple(occ): 1}, 1
        for w in weights:
            terms = _transfer(start, w, terms, m, dual)[end]
            scale = w[1] ** (m + 1)
            if scale < 0:
                terms = {occ: -c for occ, c in terms.items()}
            den *= abs(scale)
        terms = {occ: constant_over(c, den) for occ, c in terms.items()}
    else:
        terms = {tuple(occ): MultiPoly.const(1)}
        for u in values:
            # 1/u is taken only if some site scales a first vector, which a
            # one-site sweep from the second does not (elsewhere u = 0
            # raises NotDivisible)
            inverse = u.monomial_inverse() if start == 0 or m else None
            terms = _transfer(start, (inverse, None, u), terms, m, dual)[end]
    return StateVector(m, {}, dual).copy_with(terms)


def build_state(u_values: Sequence[Spectral], m: int) -> StateVector:
    """N-particle ket: creation corners applied with the last value first."""
    return grow_state("B", u_values, m)


def build_conj_state(v_values: Sequence[Spectral], m: int) -> StateVector:
    """N-particle bra: annihilation corners applied with the last value first."""
    return grow_state("C", v_values, m, dual=True)


def r_matrix(u: Fraction, v: Fraction) -> list:
    """The 4x4 intertwiner in the tensor basis (11, 12, 21, 22)."""
    u, v = Fraction(u), Fraction(v)
    denom = u * u - v * v
    if denom == 0:
        raise PoleViolation("u^2 == v^2")
    f = u * u / denom
    g = u * v / denom
    one = Fraction(1)
    zero = Fraction(0)
    return [
        [f, zero, zero, zero],
        [zero, g, one, zero],
        [zero, zero, g, zero],
        [zero, zero, zero, f],
    ]


def _combination(pairs) -> dict:
    """The sum of r * terms over the (integer, term dict) ``pairs``, as a
    term dict; a zero r is skipped."""
    out: dict = {}
    for r, terms in pairs:
        if r:
            _add_into(out, ((occ, r * c) for occ, c in terms.items()))
    return out


def verify_rtt(u: Fraction, v: Fraction, m: int, n_cap: int) -> bool:
    """Exact intertwining of the monodromy matrix on a truncated domain.

    Both sides of R (T(u) tensor T(v)) = (T(v) tensor T(u)) R are applied to
    every basis ket with total occupation <= n_cap; the images (which may
    leave the truncation) are compared exactly, as integer term dicts.
    """
    rm = r_matrix(u, v)
    scale = lcm(*[r.denominator for row in rm for r in row])
    rm = [[(r * scale).numerator for r in row] for row in rm]
    wu, wv = _integer_weights(as_poly(Fraction(u))), _integer_weights(as_poly(Fraction(v)))
    if wu is None or wv is None:
        raise NotDivisible("1/u at u = 0")
    basis = [partition_to_occupation(lam, t, m).counts
             for t in range(n_cap + 1) for lam in partitions_in_box(t, m)]
    aux = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for occ in basis:
        ket = {occ: 1}
        # (X tensor Y)[(ac),(bd)] = X(u)_{ab} Y(v)_{cd}; apply Y first.  All
        # four corners of a factor come from its two columns: T(w)_xy applied
        # to a ket is _transfer(y, weights of w, ket, m, False)[x], times
        # (pq)^(M+1) at w = p/q.  Every product below holds one T(u) and one
        # T(v) corner, so both sides carry the same factor.
        prod_uv = {}
        prod_vu = {}
        for outer, inner, prod in ((wu, wv, prod_uv), (wv, wu, prod_vu)):
            inner_cols = [_transfer(y, inner, ket, m, False) for y in (0, 1)]
            for (c, d) in aux:
                outer_cols = [_transfer(y, outer, inner_cols[d][c], m, False) for y in (0, 1)]
                for (a, b) in aux:
                    prod[((a, c), (b, d))] = outer_cols[b][a]
        for i, ri in enumerate(aux):
            for j, cj in enumerate(aux):
                lhs = _combination((rm[i][k], prod_uv[(mid, cj)]) for k, mid in enumerate(aux))
                rhs = _combination((rm[k][j], prod_vu[(ri, mid)]) for k, mid in enumerate(aux))
                if lhs != rhs:
                    return False
    return True
