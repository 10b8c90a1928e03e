"""Wave-matrix entries, their derivative identities, and the bilinear relation.

All four entry families are signed ratios of minors of the dressed matrix
over a tau denominator.  Each starred kind is the transpose of an unstarred
one (w_star_zero of w_inf, w_star_inf of w_zero), so its k range, its minor
and its derivative identity are read off its base kind and the transpose.
The derivative identities say the numerators equal one-row character
operators applied to tau, so every check here is an exact polynomial
equality (numerators share the printed denominators).

The tau shifted along the spectral direction is the leading minor of the
dressed matrix with each entry replaced by a lam-weighted sum along one
index: (1 - lam*shift) takes one step with coefficient -lam, its nilpotent
inverse takes every step k with lam^k; each such entry is one
``MultiPoly.series`` in lam.  Its lam coefficients reproduce the wave
entries, which is both a theorem verified in the tests and the engine
behind the bilinear residue check, sum_k zeta_k(w) [lam^(p+1+k)](tau_a tau_b).
That check runs on two contexts at rational points, each dressed in one
integer pass (``TauContext.at_point``), and takes the weights zeta_k(w)
from the integer branch of ``zeta_all``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..algebra import MultiPoly, RingMatrix, det_exact, poly_sum
from ..errors import DegenerateDenominator, RangeViolation
from ..symfunc import zeta_all, zeta_diff_apply
from .context import TauContext, tau

WAVE_KINDS = ("w_inf", "w_zero", "w_star_inf", "w_star_zero")
# each starred kind is the transpose of an unstarred one: (base, transposed)
_BASE = {"w_inf": ("w_inf", False), "w_zero": ("w_zero", False),
         "w_star_zero": ("w_inf", True), "w_star_inf": ("w_zero", True)}


def wave_k_max(ctx: TauContext, s: int, kind: str) -> int:
    """The largest k of a wave entry at site s in (m, n-1] (the formulas
    extend naturally to s = m, which the wave-matrix assembly uses): s - m
    for w_inf / w_star_zero, n - s - 1 for the other two."""
    m, n = ctx.m, ctx.n
    if not (m <= s <= n - 1):
        raise RangeViolation(f"site {s} outside ({m}, {n-1}]")
    if kind not in _BASE:
        raise ValueError(f"unknown kind {kind!r}")
    return s - m if _BASE[kind][0] == "w_inf" else n - s - 1


def wave_minor(ctx: TauContext, s: int, kind: str, k: int) -> tuple | None:
    """(rows, columns) of the dressed-matrix minor of one wave entry, or
    None for k < 0, where the entry is zero by definition; k is at most
    wave_k_max, and a starred kind takes the rows and columns of its base
    kind swapped."""
    top = wave_k_max(ctx, s, kind)
    if k < 0:
        return None
    if k > top:
        raise RangeViolation(f"k={k} outside [0, {top}]")
    m = ctx.m
    base, transposed = _BASE[kind]
    if base == "w_inf":
        rows, cols = [i for i in range(m, s + 1) if i != s - k], list(range(m, s))
    else:
        rows, cols = list(range(m, s + 1)), list(range(m, s)) + [s + k]
    return (cols, rows) if transposed else (rows, cols)


def wave_numerator(ctx: TauContext, s: int, kind: str, k: int) -> MultiPoly:
    """Signed minor of the dressed matrix for one wave entry (``wave_minor``);
    zero below the band."""
    indices = wave_minor(ctx, s, kind, k)
    if indices is None:
        return MultiPoly.zero()
    minor = ctx.minor(*indices)
    return -minor if _BASE[kind][0] == "w_inf" and k % 2 else minor


def prop1_sides(ctx: TauContext, s: int, kind: str, k: int) -> tuple:
    """Both numerators of one derivative identity (they share a denominator).

    w_inf:       (-1)^k minor == zeta_k(-grad_x) tau(s)
    w_zero:      minor        == zeta_k(-grad_y) tau(s+1)
    w_star_inf:  minor        == zeta_k(+grad_x) tau(s+1)
    w_star_zero: (-1)^k minor == zeta_k(+grad_y) tau(s)

    The base kind gives the tau site; the transpose flips sign and family.
    """
    lhs = wave_numerator(ctx, s, kind, k)
    base, transposed = _BASE[kind]
    family = "x" if (base == "w_inf") != transposed else "y"
    names = [f"{family}{i}" for i in range(1, ctx.horizon + 1)]
    site = s + 1 if base == "w_zero" else s
    return lhs, zeta_diff_apply(k, tau(ctx, site), names, 1 if transposed else -1)


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
    is sum_k c_k lam^k D[i+k, j] (x) or sum_k c_k lam^k D[i, j+k] (y), with
    c = (1, -1) for the one step and c_k = 1 for every step of the inverse;
    each entry is one ``MultiPoly.series`` in lam.
    """
    if which not in SHIFT_KINDS:
        raise ValueError(f"unknown shift {which!r}")
    if not (ctx.m <= s <= ctx.n):
        raise RangeViolation(f"site {s} outside [{ctx.m}, {ctx.n}]")
    size = ctx.n - ctx.m
    d = ctx.dressed()
    signs = (1, -1) if which in ("x_minus", "y_plus") else (1,) * size
    along_rows = which.startswith("x")

    def entry(i, j):
        band = [d[i + k, j] if along_rows else d[i, j + k]
                for k in range(min(len(signs), size - (i if along_rows else j)))]
        return MultiPoly.series("lam", [c if sign > 0 else -c for c, sign in zip(band, signs)])

    r = s - ctx.m
    return det_exact(RingMatrix(r, r, [entry(i, j) for i in range(r) for j in range(r)]))


# the wave kind and the site step whose entries a shifted tau expands into
_EXPANSION = {"x_minus": ("w_inf", 0), "y_minus": ("w_zero", -1),
              "x_plus": ("w_star_inf", -1), "y_plus": ("w_star_zero", 0)}


def h20_expected_coefficients(ctx: TauContext, s: int, which: str) -> list:
    """The wave numerators that the shifted tau must expand into."""
    if which not in _EXPANSION:
        raise ValueError(which)
    kind, step = _EXPANSION[which]
    site = s + step
    return [wave_numerator(ctx, site, kind, k) for k in range(wave_k_max(ctx, site, kind) + 1)]


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

    Each side is a contour integral, the coefficient of 1/lam of
    tau_a(1/lam) tau_b(1/lam) lam^p exp(sum_l w_l lam^l), w the time
    differences, read off the polynomial product of the two shifted taus.
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
        # [1/lam] of tau_a(1/lam) tau_b(1/lam) lam^power exp(sum_l w_l lam^l):
        # zeta_k(w) lam^k meets the lam^(power+1+k) coefficient of tau_a tau_b
        prod = shifted_tau(ctx_a, sa, which_a) * shifted_tau(ctx_b, sb, which_b)
        zetas = zeta_all(prod.degree_in("lam") - power - 1, list(map(MultiPoly.const, weights)))
        return poly_sum(z * prod.coeff_of("lam", power + 1 + k) for k, z in enumerate(zetas))

    wy = [Fraction(a) - Fraction(b) for a, b in zip(y, y_prime)]
    wx = [Fraction(a) - Fraction(b) for a, b in zip(x, x_prime)]
    lhs = residue(left, s + 1, "y_minus", right, s_prime - 1, "y_plus", s_prime - s - 2, wy)
    rhs = residue(left, s, "x_minus", right, s_prime, "x_plus", s - s_prime, wx)
    return lhs == rhs
