"""Power-sum restriction of the tau-function and the scalar-product bridge."""

from __future__ import annotations

from typing import Iterator, Sequence

from ..algebra import MultiPoly, RingMatrix
from ..combinatorics.partitions import partitions_in_box
from ..errors import ShapeViolation
from ..symfunc import alphabet, miwa_map, pair_sum, pk
from .context import TauContext, tau


def restricted_context(
    u_names: Sequence[str], v_names: Sequence[str], site_bound: int
) -> TauContext:
    """Identity constant matrix with times restricted to power sums.

    The box is taken from N = max(len(u_names), len(v_names)): the interval
    is [0, N+site_bound), so the box at site s = N is (site_bound)^N.
    A shorter alphabet stands for N letters of which the missing ones sit at
    their limit, u = 0 or v = infinity, where they drop out of every power
    sum of u^2 or v^-2.
    """
    n = max(len(u_names), len(v_names)) + site_bound
    x, y = miwa_map(u_names, v_names, n - 1)
    return TauContext(0, n, RingMatrix.identity(n), tuple(x), tuple(y))


def restrict_tau(
    u_names: Sequence[str], v_names: Sequence[str], site_bound: int
) -> MultiPoly:
    """Restricted tau at site N; equals the diagonal Schur pair sum."""
    if len(v_names) != len(u_names):
        raise ShapeViolation("need equally many creation and annihilation variables")
    if len(u_names) + site_bound == 0:
        return MultiPoly.const(1)
    ctx = restricted_context(u_names, v_names, site_bound)
    return tau(ctx, len(u_names))


def schur_pair_sum(
    u_names: Sequence[str], v_names: Sequence[str], site_bound: int
) -> MultiPoly:
    """sum over boxed partitions of S_lam(u^2) * S_lam(v^-2)."""
    box = partitions_in_box(len(u_names), site_bound)
    return pair_sum(
        zip(box, box), alphabet(u_names, "squared"), alphabet(v_names, "inverse-squared")
    )


def power_sum_sides(mu_names: Sequence[str], zeros: int, horizon: int) -> Iterator[tuple]:
    """(f"k={k}", p_k of the alphabet with ``zeros`` zero letters appended,
    p_k of the alphabet) for k = 1..horizon, over the squared letters."""
    if zeros < 0 or horizon < 1:
        raise ValueError("need zeros >= 0 and horizon >= 1")
    base = alphabet(mu_names, "squared")
    extra_names = [f"_zero{i}" for i in range(1, zeros + 1)]
    extended = base + alphabet(extra_names, "squared")
    assignment = {name: 0 for name in extra_names}
    for k in range(1, horizon + 1):
        yield f"k={k}", pk(k, extended).subs(assignment), pk(k, base)
