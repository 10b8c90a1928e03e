"""Symmetric-function bases and the power-sum change of variables.

Alphabets are lists of MultiPoly generators.  The three conventions used
throughout the package are:

  * plain            u_j
  * squared          u_j^2
  * inverse-squared  v_j^-2

``zeta_all`` gives the one-row character polynomials zeta_k, the
coefficient of z^k in exp(sum_j z^j t_j).  Under the change of variables
that sends the k-th time to p_k(alphabet)/k, zeta_k becomes the complete
homogeneous polynomial h_k of the alphabet, which is what ties the
hierarchy side to the lattice-model side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import MultiPoly, RingMatrix, constant_over, constants_over_lcm, det_exact, poly_sum
from .combinatorics.partitions import Partition, SkewShape
from .errors import ShapeViolation

CONVENTIONS = ("plain", "squared", "inverse-squared")


def alphabet(names: Sequence[str], convention: str = "plain") -> list:
    """Generator list for the named variables under a power convention."""
    if convention == "plain":
        return [MultiPoly.var(n) for n in names]
    if convention == "squared":
        return [MultiPoly.var(n, 2) for n in names]
    if convention == "inverse-squared":
        return [MultiPoly.var(n, -2) for n in names]
    raise ValueError(f"unknown convention {convention!r}")


def h_row(kmax: int, gens: Sequence[MultiPoly]) -> list:
    """Complete homogeneous polynomials [h_0, .., h_kmax] of the generators.

    One dynamic-programming pass over the alphabet: after letter j the row
    holds h_d(x_1..x_j).  h_0 = 1 even for the empty alphabet; kmax < 0
    gives the empty list.
    """
    if kmax < 0:
        return []
    row = [MultiPoly.const(1)] + [MultiPoly.zero()] * kmax
    for g in gens:
        for d in range(1, kmax + 1):
            row[d] = row[d] + g * row[d - 1]
    return row


def hk(k: int, gens: Sequence[MultiPoly]) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_k of the generators;
    h with negative index is the zero polynomial."""
    return h_row(k, gens)[k] if k >= 0 else MultiPoly.zero()


def pk(k: int, gens: Sequence[MultiPoly]) -> MultiPoly:
    """Power sum p_k = sum of k-th powers."""
    if k < 1:
        raise ValueError("power sums start at k = 1")
    return poly_sum(g ** k for g in gens)


def zeta_all(kmax: int, times: Sequence[MultiPoly]) -> list:
    """One-row character polynomials zeta_0 .. zeta_kmax, where zeta_k is
    [z^k] exp(sum_j z^j t_j).

    Computed by the exact recurrence k*zeta_k = sum_j j*t_j*zeta_{k-j};
    times beyond the supplied horizon are zero, so each zeta_k is a finite
    polynomial.  When every time is a constant, a_j/q over the lcm q of
    their denominators, the recurrence runs on integers: zeta_k is N_k over
    q^k k!, where N_0 = 1 and
    N_k = sum_j j a_j q^(j-1) (k-1)!/(k-j)! N_{k-j}.
    """
    if not any(t.vars for t in times):
        a, q = constants_over_lcm(times)
        nums, den, zs = [1], 1, [MultiPoly.const(1)]
        for k in range(1, kmax + 1):
            acc, w = 0, 1  # w = q^(j-1) (k-1)!/(k-j)!
            for j in range(1, min(k, len(a)) + 1):
                acc += j * a[j - 1] * w * nums[k - j]
                w *= q * (k - j)
            den *= q * k
            nums.append(acc)
            zs.append(constant_over(acc, den))
        return zs
    zs = [MultiPoly.const(1)]
    for d in range(1, kmax + 1):
        acc = poly_sum(MultiPoly.const(j) * times[j - 1] * zs[d - j]
                       for j in range(1, min(d, len(times)) + 1))
        zs.append(acc * MultiPoly.const(Fraction(1, d)))
    return zs


def zeta_diff_apply(
    k: int, p: MultiPoly, var_names: Sequence[str], sign: int
) -> MultiPoly:
    """Apply zeta_k(sign * scaled-gradient) to p.

    The scaled gradient has j-th component (1/j) d/d(var_names[j-1]); sign
    is +1 or -1.  Realized by ``zeta_all``'s own recurrence on the operators,
    d*Z_d = sign * sum_j d/d(var_names[j-1]) Z_{d-j} with Z_0 = p; names
    beyond the supplied ones are zero operators.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    zs = [p]
    for d in range(1, k + 1):
        acc = poly_sum(zs[d - j].diff(var_names[j - 1])
                       for j in range(1, min(d, len(var_names)) + 1))
        zs.append(acc * MultiPoly.const(Fraction(sign, d)))
    return zs[k] if k >= 0 else MultiPoly.zero()


def _skew(shape) -> SkewShape:
    return shape if isinstance(shape, SkewShape) else SkewShape(shape, Partition(()))


def _reach(skew: SkewShape) -> int:
    """lam_1 + rows - 1, rows the nonzero parts of lam: the largest h index
    a Jacobi-Trudi matrix of lam/mu can read."""
    return skew.outer.get(1) + len(skew.outer.parts) - 1


def jacobi_trudi(shape, h: Sequence[MultiPoly]) -> MultiPoly:
    """det[h_{lam_i - mu_j + j - i}] of a (skew) shape, read from the row
    h = [h_0, h_1, ..] of one alphabet; a negative index reads as 0.

    The row must reach lam_1 + rows - 1, where rows counts the nonzero parts
    of lam, so one row of a box's alphabet serves every shape in the box.
    """
    skew = _skew(shape)
    lam, mu, n = skew.outer, skew.inner, len(skew.outer.parts)
    if n == 0:
        return MultiPoly.const(1)
    zero = MultiPoly.zero()
    return det_exact(RingMatrix.from_rows([
        [h[d] if d >= 0 else zero for d in (lam.get(i) - mu.get(j) + j - i for j in range(1, n + 1))]
        for i in range(1, n + 1)
    ]))


def pair_sum(pairs, a: Sequence[MultiPoly], b: Sequence[MultiPoly]) -> MultiPoly:
    """sum over (shape_a, shape_b) in pairs of s_{shape_a}(a) * s_{shape_b}(b).

    Every Schur factor is a Jacobi-Trudi determinant read from one h-row per
    alphabet, built once for the whole sum; nothing is kept between calls.
    """
    pairs = [(_skew(sa), _skew(sb)) for sa, sb in pairs]
    ha = h_row(max((_reach(sa) for sa, _ in pairs), default=-1), a)
    hb = h_row(max((_reach(sb) for _, sb in pairs), default=-1), b)
    return poly_sum(jacobi_trudi(sa, ha) * jacobi_trudi(sb, hb) for sa, sb in pairs)


def schur(shape, gens: Sequence[MultiPoly], method: str = "jacobi_trudi") -> MultiPoly:
    """(Skew) Schur polynomial of the shape in the given generators.

    ``shape`` is a Partition or SkewShape.  Both methods return identical
    polynomials; the tableau sum is the slower independent construction.
    """
    skew = _skew(shape)
    if method == "jacobi_trudi":
        return jacobi_trudi(skew, h_row(_reach(skew), gens))
    if method == "tableau_sum":
        from .combinatorics.tableaux import enumerate_tableaux

        terms = []
        for tab in enumerate_tableaux(skew, len(gens), "ascending"):
            term = MultiPoly.const(1)
            for letter, mult in enumerate(tab.weight(len(gens)), start=1):
                if mult:
                    term = term * gens[letter - 1] ** mult
            terms.append(term)
        return poly_sum(terms)
    raise ValueError(f"unknown method {method!r}")


def char_poly(lam: Partition, times: Sequence[MultiPoly], rows: int) -> MultiPoly:
    """Character polynomial det[zeta_{lam_i + j - i}] of size ``rows``: the
    Jacobi-Trudi determinant of lam over the one-row characters, since the
    rows past the length of lam add a unitriangular block."""
    if len(lam.parts) > rows:
        raise ShapeViolation(f"{lam} needs more than {rows} rows")
    return jacobi_trudi(lam, zeta_all(_reach(_skew(lam)), times))


def negate_times(times: Sequence[MultiPoly]) -> list:
    return [-t for t in times]


def miwa_map(
    u_names: Sequence[str], v_names: Sequence[str], horizon: int
) -> tuple:
    """Time vectors from power sums of the squared / inverse-squared alphabets.

    Returns (x, y) with x_k = p_k(u^2)/k and y_k = -p_k(v^-2)/k for
    k = 1..horizon.  The y values store the signed quantity itself; callers
    apply further minus signs exactly where their formulas do.
    """
    ug = alphabet(u_names, "squared")
    vg = alphabet(v_names, "inverse-squared")
    x = [pk(k, ug) * MultiPoly.const(Fraction(1, k)) for k in range(1, horizon + 1)]
    y = [-(pk(k, vg) * MultiPoly.const(Fraction(1, k))) for k in range(1, horizon + 1)]
    return x, y
