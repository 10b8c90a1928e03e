"""The N-particle scalar product in its three equivalent forms.

fock_pairing builds both state vectors by monodromy corners and contracts
them; schur_sum is the boundary monomial (prod v / prod u)^M times the
diagonal pair sum of S_lam(u^2) S_lam(v^-2) over the (M^N) box, the one
pair sum of ``symfunc`` that the correlators use too; determinant is the
single determinant of divided-difference entries that the boundary
correlators of ``determinants`` share, which divides by nothing.  All three
agree as Laurent polynomials.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, as_poly, det_exact
from ..combinatorics.partitions import partitions_in_box
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
        return _divided_difference_det(m, us, vs)
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


def _divided_difference_det(
    m: int, us: Sequence[MultiPoly], vs: Sequence[MultiPoly], hole: int | None = None,
    seeds: Sequence[int] = (),
) -> MultiPoly:
    """The single determinant of the scalar product and the correlators.

    With N = len(us) + len(seeds) columns, row j (0-based) of the
    annihilation letters reads h_{M+N-1-k-j}(u_1^2..u_{k+1}^2, v_1^2..v_{j+1}^2)
    for k < len(us), then h_{d-j}(u_1^2..u_{len(us)}^2, v_1^2..v_{j+1}^2) for
    each seed degree d; a hole row q on top reads
    h_{q-k}(u_1^2..u_{k+1}^2, {v^2}).  Column k is the divided difference
    over u_1^2..u_{k+1}^2 and row j the one over v_1^2..v_{j+1}^2 of the
    two-letter form h_{M+N-1}(u_{k+1}^2, v_{j+1}^2) (Macdonald, ch. I: the
    divided difference of h_r(X, y) over y_1..y_i is h_{r-i+1}(X, y_1..y_i)),
    so both Vandermondes are absorbed and nothing divides: no two squares
    need differ.  The row operations take out prod_{i<l} (v_l^2 - v_i^2), the
    reverse of the form's prod_{i<l} (v_i^2 - v_l^2), hence the sign
    (-1)^{n(n-1)/2} with n = len(vs).  The result carries
    boundary_monomial((), us + vs, M).
    """
    u2 = [u * u for u in us]
    v2 = [v * v for v in vs]
    degree = m + len(us) + len(seeds) - 1
    rows = [] if hole is None else [[hk(hole - k, u2[: k + 1] + v2) for k in range(len(us))]]
    for j in range(len(v2)):
        ys = v2[: j + 1]
        rows.append([hk(degree - k - j, u2[: k + 1] + ys) for k in range(len(us))]
                    + [hk(d - j, u2 + ys) for d in seeds])
    det = det_exact(RingMatrix.from_rows(rows))
    return (-1) ** (len(vs) * (len(vs) - 1) // 2) * boundary_monomial((), [*us, *vs], m) * det
