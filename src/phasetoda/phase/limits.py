"""Wave-function / boundary-correlator correspondences via algebraic limits.

Both limits relate a denominator-cleared wave entry of the power-sum
restricted hierarchy to a boundary correlator:

  * hole kind: at site m+N-1 the upper wave entries, with the first
    annihilation variable sent to infinity, give the one-hole correlators.
  * seed kind: at site m+N the lower wave entries, with the trailing k
    creation variables sent to zero, give (-1)^k times the k-fold seeded
    correlators.

The times are x_k = p_k(u^2)/k and y_k = -p_k(v^-2)/k over the identity
matrix, so v_1^-2 -> 0 or u_tail^2 -> 0 only drops those letters from the
power sums.  Both limits are ring homomorphisms that commute with the
dressing and the determinant, so each is taken on the alphabet before the
minor: the wave entry is computed in the context of the surviving letters,
over the box of the full alphabet.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly, as_poly
from ..errors import RangeViolation
from ..toda import restricted_context, wave_numerator
from .scalar import prefactor
from .skew import correlator_one_hole, correlator_seeded

LIMIT_KINDS = ("v1_to_infinity", "u_tail_to_zero")


def limit_sides(
    kind: str, k: int, n: int, m: int, u_names: Sequence[str], v_names: Sequence[str]
) -> tuple:
    """(limit of the cleared wave entry, prefactor times correlator) of one
    limit identity; names must be symbolic."""
    if len(u_names) != n or len(v_names) != n:
        raise ValueError("need N creation and N annihilation names")
    us = list(map(as_poly, u_names))
    vs = list(map(as_poly, v_names))
    if kind == "v1_to_infinity":
        if not (0 <= k <= m):
            raise RangeViolation(f"k={k} outside 0..{m}")
        ctx = restricted_context(u_names, v_names[1:], m)
        limit = wave_numerator(ctx, ctx.m + n - 1, "w_zero", k)
        pref = prefactor(us) * prefactor(vs[1:]).monomial_inverse()
        rhs = (pref ** m) * correlator_one_hole(k, n, m, us, vs, "pairing")
        return limit, rhs
    if kind == "u_tail_to_zero":
        if not (0 <= k <= min(n, m)):
            raise RangeViolation(f"k={k} outside 0..min(N, M)")
        if m < 1:
            raise RangeViolation("seed limit needs M >= 1")
        ctx = restricted_context(u_names[: n - k], v_names, m)
        limit = wave_numerator(ctx, ctx.m + n, "w_inf", k)
        sign = MultiPoly.const((-1) ** k)
        pref = prefactor(us[: n - k]) * prefactor(vs).monomial_inverse()
        rhs = sign * (pref ** m) * correlator_seeded(k, n, m, us, vs, "pairing")
        return limit, rhs
    raise ValueError(f"unknown limit kind {kind!r}")


def limit_correspondence(
    kind: str, k: int, n: int, m: int, u_names: Sequence[str], v_names: Sequence[str]
) -> bool:
    """Exact check of one limit identity; names must be symbolic."""
    limit, rhs = limit_sides(kind, k, n, m, u_names, v_names)
    return limit == rhs
