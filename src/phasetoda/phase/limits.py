"""Wave-function / boundary-correlator correspondences via algebraic limits.

Both limits relate a denominator-cleared wave entry of the power-sum
restricted hierarchy to a boundary correlator:

  * hole kind: at site m+N-1 the upper wave entries, with the first
    annihilation variable sent to infinity (extraction of its degree-zero
    coefficient, since the restricted entries carry only non-positive
    powers of it), give the one-hole correlators.
  * seed kind: at site m+N the lower wave entries, with the trailing k
    creation variables substituted by zero, give (-1)^k times the k-fold
    seeded correlators.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra import MultiPoly, as_poly
from ..errors import RangeViolation
from .scalar import prefactor
from .skew import correlator_one_hole, correlator_seeded

LIMIT_KINDS = ("v1_to_infinity", "u_tail_to_zero")

_CTX_MEMO: dict = {}


def _memo_context(u_names, v_names, m):
    from ..toda.restrict import restricted_context

    key = (tuple(u_names), tuple(v_names), m)
    if key not in _CTX_MEMO:
        _CTX_MEMO[key] = restricted_context(u_names, v_names, m)
    return _CTX_MEMO[key]


def limit_correspondence(
    kind: str, k: int, n: int, m: int, u_names: Sequence[str], v_names: Sequence[str]
) -> bool:
    """Exact check of one limit identity; names must be symbolic."""
    from ..toda.waves import wave_numerator

    if len(u_names) != n or len(v_names) != n:
        raise ValueError("need N creation and N annihilation names")
    ctx = _memo_context(u_names, v_names, m)
    us = list(map(as_poly, u_names))
    vs = list(map(as_poly, v_names))
    if kind == "v1_to_infinity":
        if not (0 <= k <= m):
            raise RangeViolation(f"k={k} outside 0..{m}")
        s = ctx.m + n - 1
        cleared = wave_numerator(ctx, s, "w_zero", k)
        # the restricted entries carry powers v_1^0, v_1^-2, ..; the limit
        # keeps the degree-zero coefficient
        limit = cleared.coeff_of(v_names[0], 0)
        pref = prefactor(us) * prefactor(vs[1:]).monomial_inverse()
        rhs = (pref ** m) * correlator_one_hole(k, n, m, us, vs, "pairing")
        return limit == rhs
    if kind == "u_tail_to_zero":
        if not (0 <= k <= min(n, m)):
            raise RangeViolation(f"k={k} outside 0..min(N, M)")
        s = ctx.m + n
        if not (ctx.m < s <= ctx.n - 1):
            raise RangeViolation("seed limit needs M >= 1")
        cleared = wave_numerator(ctx, s, "w_inf", k)
        limit = cleared.subs({name: 0 for name in u_names[n - k :]})
        sign = MultiPoly.const((-1) ** k)
        pref = prefactor(us[: n - k]) * prefactor(vs).monomial_inverse()
        rhs = sign * (pref ** m) * correlator_seeded(k, n, m, us, vs, "pairing")
        return limit == rhs
    raise ValueError(f"unknown limit kind {kind!r}")
