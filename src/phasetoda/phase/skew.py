"""Skew state vectors and boundary correlation functions.

A one-hole conjugate vector starts from the dual vacuum hit by a single
site annihilator phi_k and is grown by N-1 annihilation corners; a k-fold
seeded vector starts from k quanta at site 1 and is grown by N-k creation
corners.  Their coefficient supports and values match the constrained
weighted sums of the combinatorics layer, and their pairings against the
full N-particle states are the boundary correlators.

Their Schur forms have the shape of the scalar product's: a boundary
monomial (prod v / prod u)^M over the surviving letters times one pair sum
of ``symfunc`` over the support, with the hook (one hole) or the column
(seeded) removed from one side of each pair.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly
from ..combinatorics.partitions import SkewShape, column, hook
from ..combinatorics.weights import psi1_support, psi2_support
from ..errors import RangeViolation
from ..symfunc import pair_sum
from .fock import StateVector, pair
from .monodromy import build_conj_state, build_state, grow_state
from .scalar import boundary_monomial, letters


def skew_conj_state(k: int, v_tail: Sequence, m: int) -> StateVector:
    """Dual vector <0| phi_k C(v_2) .. C(v_N); v_tail lists v_2..v_N."""
    if not (0 <= k <= m):
        raise RangeViolation(f"hole row {k} outside 0..{m}")
    # right action of phi_k on a bra adds one quantum at site k
    return grow_state("C", v_tail, m, (k,), dual=True)


def skew_state(k: int, u_head: Sequence, m: int) -> StateVector:
    """Ket B(u_1) .. B(u_{N-k}) (create_1)^k |0>; u_head lists u_1..u_{N-k}."""
    if k < 0:
        raise RangeViolation("seed multiplicity must be >= 0")
    return npoint_state((1,) * k, u_head, m)


def npoint_state(rs: Sequence[int], u_head: Sequence, m: int) -> StateVector:
    """Ket B(u_1) .. B(u_{N-n}) create_{r_1} .. create_{r_n} |0>."""
    return grow_state("B", u_head, m, rs)


def validate_npoint_indices(rs: Sequence[int], n: int, m: int) -> None:
    """The printed constraint list: r_1 in 0..M, the rest in {0,1}, weakly
    decreasing, 1 <= len <= N."""
    if not (1 <= len(rs) <= n):
        raise RangeViolation("need 1 <= n-point order <= N")
    if not (0 <= rs[0] <= m):
        raise RangeViolation("leading index outside 0..M")
    if any(r not in (0, 1) for r in rs[1:]):
        raise RangeViolation("trailing indices must be 0 or 1")
    if any(rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
        raise RangeViolation("indices must weakly decrease")


def correlator_one_hole(
    k: int, n: int, m: int, u_values: Sequence, v_values: Sequence, method: str = "pairing"
) -> MultiPoly:
    """<one-hole conjugate | full state>: v_values supplies v_1..v_N, of
    which v_1 is absent from the result."""
    if n < 1:
        raise RangeViolation(f"one-hole correlator needs N >= 1, got {n}")
    us, vs = letters(n, u_values, v_values)
    if not (0 <= k <= m):
        raise RangeViolation(f"hole row {k} outside 0..{m}")
    if method == "pairing":
        return pair(skew_conj_state(k, vs[1:], m), build_state(us, m))
    if method == "schur_sum":
        pairs = ((lam, SkewShape(lam, hook(k))) for lam in psi1_support(k, n, m))
        total = pair_sum(pairs, [u * u for u in us], [v ** (-2) for v in vs[1:]])
        return boundary_monomial(vs[1:], us, m) * total
    raise ValueError(f"unknown method {method!r}")


def correlator_seeded(
    k: int, n: int, m: int, u_values: Sequence, v_values: Sequence, method: str = "pairing"
) -> MultiPoly:
    """<full conjugate | k-fold seeded state>: u_values supplies u_1..u_N, of
    which the last k are absent from the result."""
    us, vs = letters(n, u_values, v_values)
    if not (0 <= k <= n):
        raise RangeViolation(f"seed multiplicity {k} outside 0..{n}")
    if method == "pairing":
        return pair(build_conj_state(vs, m), skew_state(k, us[: n - k], m))
    if method == "schur_sum":
        pairs = ((SkewShape(lam, column(k)), lam) for lam in psi2_support(k, n, m))
        total = pair_sum(pairs, [u * u for u in us[: n - k]], [v ** (-2) for v in vs])
        return boundary_monomial(vs, us[: n - k], m) * total
    raise ValueError(f"unknown method {method!r}")


def correlator_npoint(
    rs: Sequence[int], n: int, m: int, u_values: Sequence, v_values: Sequence
) -> MultiPoly:
    """<full conjugate | n-point seeded state> by pairing."""
    validate_npoint_indices(rs, n, m)
    us, vs = letters(n, u_values, v_values)
    return pair(build_conj_state(vs, m), npoint_state(rs, us[: n - len(rs)], m))


def boundary_correlator(
    kind: str,
    n: int,
    m: int,
    u_values: Sequence,
    v_values: Sequence,
    k: int = 0,
    rs: Sequence[int] = (),
) -> MultiPoly:
    """Dispatch over the three correlator families ('one_hole', 'seeded',
    'n_point'), each by pairing."""
    if kind == "one_hole":
        return correlator_one_hole(k, n, m, u_values, v_values)
    if kind == "seeded":
        return correlator_seeded(k, n, m, u_values, v_values)
    if kind == "n_point":
        return correlator_npoint(rs, n, m, u_values, v_values)
    raise ValueError(f"unknown correlator kind {kind!r}")
