"""The N-particle scalar product in its three equivalent forms.

fock_pairing builds both state vectors by monodromy corners and contracts
them; schur_sum evaluates the diagonal Schur pair sum with its monomial
prefactor; determinant evaluates the single-determinant form whose entries
are two-letter complete homogeneous polynomials, dividing out the
Vandermonde prefactors exactly.  All three agree as Laurent polynomials.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, as_poly, det_exact
from ..combinatorics.partitions import partitions_in_box
from ..errors import DegenerateVandermonde
from ..symfunc import h_row, hk, jacobi_trudi
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
    us = list(map(as_poly, u_values))
    vs = list(map(as_poly, v_values))
    if len(us) != n or len(vs) != n:
        raise ValueError("need N creation and N annihilation values")
    if method == "fock_pairing":
        return pair(build_conj_state(vs, m), build_state(us, m))
    if method == "schur_sum":
        return _schur_sum(n, m, us, vs)
    if method == "determinant":
        return _determinant_form(n, m, us, vs)
    raise ValueError(f"unknown method {method!r}")


def prefactor(values: Sequence[MultiPoly]) -> MultiPoly:
    """Product of the values, 1 for none: the monomial prefactors such as
    u_1 .. u_N."""
    out = MultiPoly.const(1)
    for v in values:
        out = out * v
    return out


def _schur_sum(n: int, m: int, us, vs) -> MultiPoly:
    # every Jacobi-Trudi index of a shape in the (M^N) box is below M + N
    hu = h_row(m + n - 1, [u * u for u in us])
    hv = h_row(m + n - 1, [v ** (-2) for v in vs])
    total = MultiPoly.zero()
    for lam in partitions_in_box(n, m):
        total = total + jacobi_trudi(lam, hu) * jacobi_trudi(lam, hv)
    if n == 0:
        return total
    pref = prefactor(vs) * prefactor(us).monomial_inverse()
    return (pref ** m) * total


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
    det = det_exact(RingMatrix.from_rows(rows)) if n else MultiPoly.const(1)
    det = vandermonde_divide(det, u2, descending=True)
    det = vandermonde_divide(det, v2)
    if n == 0:
        return MultiPoly.const(1)
    inv_uv = (prefactor(us) * prefactor(vs)).monomial_inverse()
    return (inv_uv ** m) * det
