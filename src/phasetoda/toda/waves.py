"""Wave-matrix entries, their derivative identities, and the bilinear relation.

All four entry families are signed ratios of minors of the dressed matrix
over a tau denominator.  The derivative identities say the numerators equal
one-row character operators applied to tau, so every check here is an exact
polynomial equality (numerators share the printed denominators).

The tau shifted along the spectral direction is the leading minor of the
dressed matrix with each entry replaced by a lam-weighted sum along one
index: (1 - lam*shift) takes one step with coefficient -lam, its nilpotent
inverse takes every step k with lam^k.  Its lam coefficients reproduce the
wave entries, which is both a theorem verified in the tests and the engine
behind the bilinear residue check, a coefficient of 1/lam taken on the
polynomial kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, det_exact
from ..errors import DegenerateDenominator, RangeViolation
from ..symfunc import zeta_all, zeta_diff_apply
from .context import TauContext, tau

WAVE_KINDS = ("w_inf", "w_zero", "w_star_inf", "w_star_zero")


def wave_numerator(ctx: TauContext, s: int, kind: str, k: int) -> MultiPoly:
    """Signed minor of the dressed matrix for one wave entry.

    Bounds: k in [0, s-m] for w_inf / w_star_zero, [0, n-s-1] for the other
    two; sites s in (m, n-1] (the formulas extend naturally to s = m, which
    the wave-matrix assembly uses)."""
    m, n = ctx.m, ctx.n
    if not (m <= s <= n - 1):
        raise RangeViolation(f"site {s} outside ({m}, {n-1}]")
    if kind not in WAVE_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if k < 0:
        # entries below the band are zero by definition
        return MultiPoly.zero()
    if kind in ("w_inf", "w_star_zero"):
        if k > s - m:
            raise RangeViolation(f"k={k} outside [0, {s-m}]")
    else:
        if k > n - s - 1:
            raise RangeViolation(f"k={k} outside [0, {n-s-1}]")
    sign = MultiPoly.const((-1) ** k)
    if kind == "w_inf":
        rows = [i for i in range(m, s + 1) if i != s - k]
        cols = list(range(m, s))
        return sign * ctx.minor(rows, cols)
    if kind == "w_zero":
        rows = list(range(m, s + 1))
        cols = list(range(m, s)) + [s + k]
        return ctx.minor(rows, cols)
    if kind == "w_star_zero":
        rows = list(range(m, s))
        cols = [j for j in range(m, s + 1) if j != s - k]
        return sign * ctx.minor(rows, cols)
    rows = list(range(m, s)) + [s + k]
    cols = list(range(m, s + 1))
    return ctx.minor(rows, cols)


def prop1_sides(ctx: TauContext, s: int, kind: str, k: int) -> tuple:
    """Both numerators of one derivative identity (they share a denominator).

    w_inf:       (-1)^k minor == zeta_k(-grad_x) tau(s)
    w_zero:      minor        == zeta_k(-grad_y) tau(s+1)
    w_star_inf:  minor        == zeta_k(+grad_x) tau(s+1)
    w_star_zero: (-1)^k minor == zeta_k(+grad_y) tau(s)
    """
    xnames = [f"x{i}" for i in range(1, ctx.horizon + 1)]
    ynames = [f"y{i}" for i in range(1, ctx.horizon + 1)]
    lhs = wave_numerator(ctx, s, kind, k)
    if kind == "w_inf":
        rhs = zeta_diff_apply(k, tau(ctx, s), xnames, -1)
    elif kind == "w_zero":
        rhs = zeta_diff_apply(k, tau(ctx, s + 1), ynames, -1)
    elif kind == "w_star_inf":
        rhs = zeta_diff_apply(k, tau(ctx, s + 1), xnames, +1)
    else:
        rhs = zeta_diff_apply(k, tau(ctx, s), ynames, +1)
    return lhs, rhs


def verify_prop1(ctx: TauContext, s: int, k: int, kind: str) -> bool:
    """Exact check of one derivative identity (symbolic times required)."""
    lhs, rhs = prop1_sides(ctx, s, kind, k)
    return lhs == rhs


SHIFT_KINDS = ("x_minus", "x_plus", "y_minus", "y_plus")


def shifted_tau(ctx: TauContext, s: int, which: str) -> MultiPoly:
    """Tau with one time family shifted along the spectral direction.

    x_minus: det[(1 - lam*raise)   D]   x_plus: det[(1 - lam*raise)^-1 D]
    y_minus: det[D (1 - lam*lowerT)^-1] y_plus: det[D (1 - lam*lowerT)]
    each restricted to the leading block of size s - m, whose entry (i, j)
    is sum_k c_k lam^k D[i+k, j] (x) or sum_k c_k lam^k D[i, j+k] (y).
    """
    if which not in SHIFT_KINDS:
        raise ValueError(f"unknown shift {which!r}")
    if not (ctx.m <= s <= ctx.n):
        raise RangeViolation(f"site {s} outside [{ctx.m}, {ctx.n}]")
    size = ctx.n - ctx.m
    d = ctx.dressed()
    lam = MultiPoly.var("lam")
    if which in ("x_minus", "y_plus"):
        steps = [MultiPoly.const(1), -lam]
    else:
        steps = [lam**k for k in range(size)]
    along_rows = which.startswith("x")
    r = s - ctx.m
    ents = []
    for i in range(r):
        for j in range(r):
            entry = MultiPoly.zero()
            for k, c in enumerate(steps[: size - (i if along_rows else j)]):
                entry = entry + c * (d[i + k, j] if along_rows else d[i, j + k])
            ents.append(entry)
    return det_exact(RingMatrix(r, r, ents))


def h20_expected_coefficients(ctx: TauContext, s: int, which: str) -> list:
    """The wave numerators that the shifted tau must expand into."""
    m, n = ctx.m, ctx.n
    if which == "x_minus":
        return [wave_numerator(ctx, s, "w_inf", k) for k in range(0, s - m + 1)]
    if which == "y_minus":
        return [wave_numerator(ctx, s - 1, "w_zero", k) for k in range(0, n - s + 1)]
    if which == "x_plus":
        return [wave_numerator(ctx, s - 1, "w_star_inf", k) for k in range(0, n - s + 1)]
    if which == "y_plus":
        return [wave_numerator(ctx, s, "w_star_zero", k) for k in range(0, s - m + 1)]
    raise ValueError(which)


def bilinear_check(
    ctx: TauContext,
    s: int,
    s_prime: int,
    x: Sequence,
    x_prime: Sequence,
    y: Sequence,
    y_prime: Sequence,
) -> bool:
    """Exact residue identity between two sites at rational time points.

    Both sides are Laurent polynomials in the spectral variable after the
    1/lam substitution; the contour integral is the coefficient of 1/lam.
    Denominators tau(s), tau(s') are cleared (DegenerateDenominator if one
    vanishes at its point).
    """
    m, n = ctx.m, ctx.n
    if not (m <= s <= n - 1 and m + 1 <= s_prime <= n):
        raise RangeViolation("need m <= s <= n-1 and m+1 <= s' <= n")
    left = ctx.at_point(x, y)
    right = ctx.at_point(x_prime, y_prime)
    tau_s = tau(left, s).constant_value()
    tau_sp = tau(right, s_prime).constant_value()
    if tau_s == 0 or tau_sp == 0:
        raise DegenerateDenominator("tau vanishes at the evaluation point")

    def residue(ctx_a, sa, which_a, ctx_b, sb, which_b, power, weights):
        # [1/lam] of tau_a(1/lam) tau_b(1/lam) lam^power exp(sum_l w_l lam^l)
        prod = shifted_tau(ctx_a, sa, which_a) * shifted_tau(ctx_b, sb, which_b)
        laurent = prod.subs({"lam": MultiPoly.var("lam", -1)}) * MultiPoly.var("lam", power)
        kmax = max(-1 - laurent.low_degree_in("lam"), 0)
        times = [MultiPoly.monomial(w, {"lam": l}) for l, w in enumerate(weights, 1)]
        series = sum(zeta_all(kmax, times), MultiPoly.zero())
        return (laurent * series).coeff_of("lam", -1)

    wy = [Fraction(a) - Fraction(b) for a, b in zip(y, y_prime)]
    wx = [Fraction(a) - Fraction(b) for a, b in zip(x, x_prime)]
    lhs = residue(left, s + 1, "y_minus", right, s_prime - 1, "y_plus", s_prime - s - 2, wy)
    rhs = residue(left, s, "x_minus", right, s_prime, "x_plus", s - s_prime, wx)
    return lhs == rhs
