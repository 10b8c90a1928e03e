"""Local L-operators, the monodromy matrix, and Bethe-type state vectors.

The local operator at site j is the 2x2 matrix [[1/u, create_j], [destroy_j,
u]].  The monodromy matrix is the ordered product over sites M, M-1, .., 0;
its corners act on kets (A preserves, B raises, C lowers, D preserves the
total occupation).  On bras the same corners act from the right, which
swaps the roles of the creation and annihilation entries.

The intertwining check multiplies the 4x4 R-matrix (rational entries
f = u^2/(u^2-v^2), g = uv/(u^2-v^2)) against tensor products of monodromy
corners on a total-occupation-truncated domain; images are compared
exactly, without truncating the codomain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ..algebra import MultiPoly, as_poly
from ..errors import PoleViolation
from .fock import StateVector, all_occupations, vacuum

Spectral = Union[MultiPoly, Fraction, int]

_ENTRIES = ("a", "b", "c", "d")


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
        return sv.scale(u.monomial_inverse() if not u.is_constant() else MultiPoly.const(Fraction(1) / u.constant_value()))
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


def monodromy_apply(entry: str, u: Spectral, sv: StateVector) -> StateVector:
    """Apply one corner (A, B, C or D) of the monodromy matrix.

    Computed by running the 2x2 operator-matrix product across all sites:
    right-to-left over sites 0..M for kets, left-to-right for bras.
    """
    if entry not in ("A", "B", "C", "D"):
        raise ValueError("entry must be A, B, C or D")
    u = as_poly(u)
    if not sv.dual:
        # mat[x][y] = (L_j .. L_0)[x][y] applied to sv, built up over j
        mat = None
        for j in range(0, sv.m + 1):
            if mat is None:
                mat = [
                    [apply_local_L(j, "a", u, sv), apply_local_L(j, "b", u, sv)],
                    [apply_local_L(j, "c", u, sv), apply_local_L(j, "d", u, sv)],
                ]
                continue
            new = [[None, None], [None, None]]
            for x in (0, 1):
                top = "a" if x == 0 else "c"
                bot = "b" if x == 0 else "d"
                for y in (0, 1):
                    first = apply_local_L(j, top, u, mat[0][y])
                    second = apply_local_L(j, bot, u, mat[1][y])
                    new[x][y] = first + second
            mat = new
    else:
        # mat[x][y] = sv . (L_M .. L_j)[x][y], built downward over j
        mat = None
        for j in range(sv.m, -1, -1):
            if mat is None:
                mat = [
                    [apply_local_L(j, "a", u, sv), apply_local_L(j, "b", u, sv)],
                    [apply_local_L(j, "c", u, sv), apply_local_L(j, "d", u, sv)],
                ]
                continue
            new = [[None, None], [None, None]]
            for x in (0, 1):
                for y in (0, 1):
                    left = "a" if y == 0 else "b"
                    right = "c" if y == 0 else "d"
                    new[x][y] = apply_local_L(j, left, u, mat[x][0]) + apply_local_L(
                        j, right, u, mat[x][1]
                    )
            mat = new
    index = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}[entry]
    return mat[index[0]][index[1]]


def build_state(u_values: Sequence[Spectral], m: int) -> StateVector:
    """N-particle ket: creation corners applied with the last value first."""
    sv = vacuum(m)
    for u in reversed(list(u_values)):
        sv = monodromy_apply("B", u, sv)
    return sv


def build_conj_state(v_values: Sequence[Spectral], m: int) -> StateVector:
    """N-particle bra: annihilation corners applied with the last value first."""
    sv = vacuum(m, dual=True)
    for v in reversed(list(v_values)):
        sv = monodromy_apply("C", v, sv)
    return sv


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
    basis = [occ for t in range(n_cap + 1) for occ in all_occupations(t, m)]
    corners = ("A", "B", "C", "D")
    aux = [(0, 0), (0, 1), (1, 0), (1, 1)]
    corner_of = {(0, 0): "A", (0, 1): "B", (1, 0): "C", (1, 1): "D"}
    for occ in basis:
        ket = StateVector(m, {occ: MultiPoly.const(1)})
        tu = {c: monodromy_apply(c, u, ket) for c in corners}
        tv = {c: monodromy_apply(c, v, ket) for c in corners}
        # (X tensor Y)[(ac),(bd)] = X(u)_{ab} Y(v)_{cd}; apply Y first
        prod_uv = {}
        prod_vu = {}
        for (a, c) in aux:
            for (b, d) in aux:
                inner_uv = tv[corner_of[(c, d)]]
                prod_uv[((a, c), (b, d))] = monodromy_apply(
                    corner_of[(a, b)], u, inner_uv
                )
                inner_vu = tu[corner_of[(c, d)]]
                prod_vu[((a, c), (b, d))] = monodromy_apply(
                    corner_of[(a, b)], v, inner_vu
                )
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
