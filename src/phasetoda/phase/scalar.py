"""The N-particle scalar product in its three equivalent forms.

fock_pairing builds both state vectors by monodromy corners and contracts
them; schur_sum is the boundary monomial (prod v / prod u)^M times the
diagonal pair sum of S_lam(u^2) S_lam(v^-2) over the (M^N) box, the one
pair sum of ``symfunc`` that the correlators use too; determinant evaluates
the single-determinant form whose entries are two-letter complete
homogeneous polynomials, dividing out the Vandermonde factors exactly.  All
three agree as Laurent polynomials.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, as_poly, det_exact
from ..combinatorics.partitions import partitions_in_box
from ..errors import DegenerateVandermonde
from ..symfunc import hk, pair_sum
from .fock import pair
from .monodromy import build_conj_state, build_state

METHODS = ("fock_pairing", "schur_sum", "determinant")


def scalar_product(
    n: int,
    m: int,
    u_values: Sequence,
    v_values: Sequence,
    method: str = "fock_pairing",
) -> MultiPoly:
    """<conjugate N-particle state | N-particle state> on M+1 sites.

    u_values / v_values may be variable names, MultiPoly symbols, or
    rationals; they must have length n.
    """
    us, vs = letters(n, u_values, v_values)
    if method == "fock_pairing":
        return pair(build_conj_state(vs, m), build_state(us, m))
    if method == "schur_sum":
        box = partitions_in_box(n, m)
        u2, vm2 = [u * u for u in us], [v ** (-2) for v in vs]
        return boundary_monomial(vs, us, m) * pair_sum(zip(box, box), u2, vm2)
    if method == "determinant":
        return _determinant_form(n, m, us, vs)
    raise ValueError(f"unknown method {method!r}")


def letters(n: int, u_values: Sequence, v_values: Sequence) -> tuple:
    """(us, vs): the creation and annihilation values as polynomials; a
    ValueError unless there are N of each."""
    us = list(map(as_poly, u_values))
    vs = list(map(as_poly, v_values))
    if len(us) != n or len(vs) != n:
        raise ValueError("need N creation and N annihilation values")
    return us, vs


def boundary_monomial(top: Sequence, bottom: Sequence, m: int) -> MultiPoly:
    """(prod top / prod bottom)^m: the monomial in front of every Schur and
    determinant form.  Entries are names, symbols or nonzero rationals; an
    empty product is 1."""
    out = MultiPoly.const(1)
    for t in top:
        out = out * as_poly(t)
    below = MultiPoly.const(1)
    for b in bottom:
        below = below * as_poly(b)
    return (out * below.monomial_inverse()) ** m


def vandermonde_divide(
    poly: MultiPoly, squares: Sequence[MultiPoly], descending: bool = False
) -> MultiPoly:
    """Divide by prod_{j<k} (s_j - s_k), or (s_k - s_j) when descending."""
    out = poly
    for j in range(len(squares)):
        for k in range(j + 1, len(squares)):
            diff = squares[k] - squares[j] if descending else squares[j] - squares[k]
            if diff.is_zero():
                raise DegenerateVandermonde("coincident squared values")
            out = out.divide_exact(diff)
    return out


def _determinant_form(n: int, m: int, us, vs) -> MultiPoly:
    """Single-determinant value of the scalar product.

    Orientation note: with both Vandermonde products taken in ascending
    index order the value comes out scaled by (-1)^(N(N-1)/2); the pairing
    oracle pins the creation-side product to descending order (s_k - s_j),
    which is what is implemented.
    """
    u2 = [u * u for u in us]
    v2 = [v * v for v in vs]
    rows = [[hk(m + n - 1, [u2[r], v2[c]]) for c in range(n)] for r in range(n)]
    det = det_exact(RingMatrix.from_rows(rows))
    det = vandermonde_divide(det, u2, descending=True)
    det = vandermonde_divide(det, v2)
    return boundary_monomial((), us + vs, m) * det
