"""Local L-operators, the monodromy matrix, and Bethe-type state vectors.

The local operator at site j is the 2x2 matrix [[1/u, create_j], [destroy_j,
u]].  The monodromy matrix is the ordered product over sites M, M-1, .., 0;
its corners act on kets (A preserves, B raises, C lowers, D preserves the
total occupation).  On bras the same corners act from the right, which
swaps the roles of the creation and annihilation entries.

A corner is never taken from the whole 2x2 operator product: on a ket it
needs only its column of the product, on a bra only its row, and one
transfer routine carries that pair of vectors across the sites.  Every
state vector is a basis vector grown by one corner per spectral value.

The intertwining check multiplies the 4x4 R-matrix (rational entries
f = u^2/(u^2-v^2), g = uv/(u^2-v^2)) against tensor products of monodromy
corners on a total-occupation-truncated domain, all four corners of a
factor coming from its two columns; images are compared exactly, without
truncating the codomain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ..algebra import MultiPoly, as_poly
from ..errors import PoleViolation, RangeViolation
from .fock import StateVector, all_occupations

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
    creating = (entry == "b") != sv.dual
    terms = {}
    for occ, coeff in sv.terms.items():
        if creating:
            new = _shift_site(occ, j, +1)
        else:
            if occ[j] == 0:
                continue
            new = _shift_site(occ, j, -1)
        prev = terms.get(new)
        terms[new] = coeff if prev is None else prev + coeff
    return sv.copy_with(terms)


def _transfer(start: int, u: MultiPoly, sv: StateVector) -> list:
    """Column ``start`` of the monodromy matrix applied to a ket, or row
    ``start`` of it applied to a bra, as a pair indexed by the other corner
    index.

    A ket pair is carried through sites 0..M: (L_j .. L_0)[i][start] sv.  A
    bra pair is carried through sites M..0: sv (L_M .. L_j)[start][i], a row
    being the column of the transposed product, so 'b' and 'c' trade places.
    """
    # the local entry that takes vecs[k] to vecs[i] is name[i][k]
    name = (("a", "c"), ("b", "d")) if sv.dual else (("a", "b"), ("c", "d"))
    first, *rest = range(sv.m, -1, -1) if sv.dual else range(sv.m + 1)
    vecs = [apply_local_L(first, name[i][start], u, sv) for i in (0, 1)]
    for j in rest:
        vecs = [
            apply_local_L(j, name[i][0], u, vecs[0]) + apply_local_L(j, name[i][1], u, vecs[1])
            for i in (0, 1)
        ]
    return vecs


def monodromy_apply(entry: str, u: Spectral, sv: StateVector) -> StateVector:
    """Apply one corner (A, B, C or D) of the monodromy matrix.

    Only the column of the corner is carried across the sites for a ket, and
    only its row for a bra.
    """
    if entry not in _CORNERS:
        raise ValueError("entry must be A, B, C or D")
    x, y = _CORNERS[entry]
    start, end = (x, y) if sv.dual else (y, x)
    return _transfer(start, as_poly(u), sv)[end]


def grow_state(
    entry: str, values: Sequence[Spectral], m: int, sites: Sequence[int] = (), dual: bool = False
) -> StateVector:
    """The basis vector with one quantum at each of ``sites`` (the vacuum when
    there are none), hit by corner ``entry`` once per value, the last value
    first."""
    occ = [0] * (m + 1)
    for r in sites:
        if not (0 <= r <= m):
            raise RangeViolation(f"site {r} outside 0..{m}")
        occ[r] += 1
    sv = StateVector(m, {tuple(occ): MultiPoly.const(1)}, dual)
    for u in reversed(list(values)):
        sv = monodromy_apply(entry, u, sv)
    return sv


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


def verify_rtt(u: Fraction, v: Fraction, m: int, n_cap: int) -> bool:
    """Exact intertwining of the monodromy matrix on a truncated domain.

    Both sides of R (T(u) tensor T(v)) = (T(v) tensor T(u)) R are applied to
    every basis ket with total occupation <= n_cap; the images (which may
    leave the truncation) are compared exactly.
    """
    rm = r_matrix(u, v)
    u, v = as_poly(u), as_poly(v)
    basis = [occ for t in range(n_cap + 1) for occ in all_occupations(t, m)]
    aux = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for occ in basis:
        ket = StateVector(m, {occ: MultiPoly.const(1)})
        # (X tensor Y)[(ac),(bd)] = X(u)_{ab} Y(v)_{cd}; apply Y first.  All
        # four corners of a factor come from its two columns: T(w)_xy applied
        # to a ket is _transfer(y, w, ket)[x].
        prod_uv = {}
        prod_vu = {}
        for outer, inner, prod in ((u, v, prod_uv), (v, u, prod_vu)):
            inner_cols = [_transfer(y, inner, ket) for y in (0, 1)]
            for (c, d) in aux:
                outer_cols = [_transfer(y, outer, inner_cols[d][c]) for y in (0, 1)]
                for (a, b) in aux:
                    prod[((a, c), (b, d))] = outer_cols[b][a]
        for i, ri in enumerate(aux):
            for j, cj in enumerate(aux):
                lhs = StateVector(m, {})
                rhs = StateVector(m, {})
                for k, mid in enumerate(aux):
                    if rm[i][k] != 0:
                        lhs = lhs + prod_uv[(mid, cj)].scale(rm[i][k])
                    if rm[k][j] != 0:
                        rhs = rhs + prod_vu[(ri, mid)].scale(rm[k][j])
                if lhs != rhs:
                    return False
    return True
