"""Single-determinant forms for boundary correlators, plus their recursions.

Every form is ``scalar._divided_difference_det``, the scalar product's
determinant with some rows or columns changed, and none divides (checked
against the pairing oracle exhaustively on names for N, M <= 3, and at
rational points whose squares may coincide):

  * one-hole form: a degree-q row on top of the divided-difference rows of
    the surviving annihilation variables v_2..v_N;
  * n-point form: the divided-difference columns over u_1..u_{N-n}, then
    one column of degree M - r_i + i - 1 per seed index.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..algebra import MultiPoly, poly_sum
from ..errors import RangeViolation
from .scalar import _divided_difference_det, letters, scalar_product
from .skew import validate_npoint_indices


def one_hole_det(q: int, n: int, m: int, u_values: Sequence, v_values: Sequence) -> MultiPoly:
    """Determinant value of <one-hole conjugate | full state>."""
    if n < 1:
        raise RangeViolation(f"one-hole correlator needs N >= 1, got {n}")
    if not (0 <= q <= m):
        raise RangeViolation(f"hole row {q} outside 0..{m}")
    us, vs = letters(n, u_values, v_values)
    return _divided_difference_det(m, us, vs[1:], hole=q)


def npoint_det(
    rs: Sequence[int], n: int, m: int, u_values: Sequence, v_values: Sequence
) -> MultiPoly:
    """Determinant value of <full conjugate | n-point seeded state>: the
    seed columns have degrees M - r_i + i - 1 for i = n..1."""
    validate_npoint_indices(rs, n, m)
    nn = len(rs)
    us, vs = letters(n, u_values, v_values)
    seeds = [m - rs[i - 1] + i - 1 for i in range(nn, 0, -1)]
    return _divided_difference_det(m, us[: n - nn], vs, seeds=seeds)


def single_det_form(
    kind: str,
    n: int,
    m: int,
    u_values: Sequence,
    v_values: Sequence,
    k: int = 0,
    rs: Sequence[int] = (),
) -> MultiPoly:
    """Dispatch: 'one_hole'(k), 'one_point'(k), 'two_point'(k), 'n_point'(rs)."""
    if kind == "one_hole":
        return one_hole_det(k, n, m, u_values, v_values)
    if kind == "one_point":
        return npoint_det((k,), n, m, u_values, v_values)
    if kind == "two_point":
        return npoint_det((k, 1), n, m, u_values, v_values)
    if kind == "n_point":
        return npoint_det(tuple(rs), n, m, u_values, v_values)
    raise ValueError(f"unknown kind {kind!r}")


def determinant_stack(kind: str, n: int, m: int, u_values: Sequence, v_values: Sequence) -> MultiPoly:
    """The determinants restacked into the scalar product: 'hole' stacks
    sum_q v_1^{M-2q} * one_hole_det(q), 'point' stacks
    sum_j u_N^{2j-M} * one_point_det(j)."""
    us, vs = letters(n, u_values, v_values)
    if kind == "hole":
        terms = (vs[0] ** (m - 2 * q) * one_hole_det(q, n, m, us, vs) for q in range(m + 1))
    elif kind == "point":
        terms = (us[-1] ** (2 * j - m) * npoint_det((j,), n, m, us, vs) for j in range(m + 1))
    else:
        raise ValueError(f"unknown stack {kind!r}")
    return poly_sum(terms)


def one_hole_stack_check(n: int, m: int, u_values: Sequence, v_values: Sequence) -> bool:
    """The hole determinants reassemble the scalar product by pairing."""
    return determinant_stack("hole", n, m, u_values, v_values) == scalar_product(
        n, m, u_values, v_values, "fock_pairing")


def one_point_stack_check(n: int, m: int, u_values: Sequence, v_values: Sequence) -> bool:
    """The one-point determinants reassemble the scalar product by pairing."""
    return determinant_stack("point", n, m, u_values, v_values) == scalar_product(
        n, m, u_values, v_values, "fock_pairing")


def recursion_sides(
    rs: Sequence[int], n: int, m: int, u_values: Sequence, v_values: Sequence
) -> Iterator[tuple]:
    """(label, coefficient, recursion) for each j of the expansion of an
    n-point determinant in the last free creation variable, then
    ("window", determinant, its part inside the window) that is equal
    exactly when no power of the variable lies outside [-M, M].

    The coefficient of u_{N-n}^{2j-M} must be the stated sum of
    (n+1)-point determinants: for the all-zero seed (order q = n), the
    single term with leading index j; otherwise the j = 0 coefficient is the
    seed extended by one zero, the j = M coefficient prepends a row-M seed,
    and each 0 < j < M coefficient is a two-term sum.  The sides are built
    lazily, one j at a time.
    """
    nn = len(rs)
    if nn >= n:
        raise RangeViolation("need a free creation variable to expand in")
    us, vs = letters(n, u_values, v_values)
    target = npoint_det(rs, n, m, us, vs)
    uvar = us[n - nn - 1]
    if not (uvar.is_monomial() and not uvar.is_constant()):
        raise ValueError("expansion variable must be symbolic")
    name = uvar.vars[0]

    def child(rs_child):
        return npoint_det(tuple(rs_child), n, m, us, vs)

    zeros = [r for r in rs if r == 0]
    ones = [r for r in rs if r == 1]
    if any(r not in (0, 1) for r in rs):
        raise RangeViolation("recursion applies to seeds of zeros and ones")
    for j in range(0, m + 1):
        if all(r == 0 for r in rs):
            want = child([j] + list(rs))
        elif j == 0:
            want = child(list(rs) + [0])
        elif j == m:
            want = child([m] + list(rs))
        else:
            want = child([j] + list(rs)) + child([j + 1] + list(ones[1:]) + [0] + list(zeros))
        yield f"j={j}", target.coeff_of(name, 2 * j - m), want
    window = poly_sum(target.coeff_of(name, e) * MultiPoly.var(name, e) for e in range(-m, m + 1))
    yield "window", target, window


def recursion_expand_check(
    rs: Sequence[int], n: int, m: int, u_values: Sequence, v_values: Sequence
) -> bool:
    """Every side of ``recursion_sides`` agrees; stops at the first that
    does not."""
    return all(got == want for _, got, want in recursion_sides(rs, n, m, u_values, v_values))
