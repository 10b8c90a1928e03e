"""Single-determinant forms for boundary correlators, plus their recursions.

Conventions were pinned against the pairing oracle (exhaustively for
N, M <= 3):

  * one-hole form: the degree-q row sits on top of the rows indexed by the
    surviving annihilation variables; the creation Vandermonde divides in
    descending orientation (u_k^2 - u_j^2, j < k), the annihilation one in
    ascending orientation over indices 2..N.
  * n-point form: the column with alphabet {u_1^2..u_k^2, v_j^2} is the
    k-fold divided difference of the scalar-product column, so the creation
    Vandermonde is already absorbed; only the ascending annihilation
    Vandermonde over 1..N divides.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..algebra import MultiPoly, RingMatrix, det_exact, poly_sum
from ..errors import RangeViolation
from ..symfunc import hk
from .scalar import boundary_monomial, letters, scalar_product, vandermonde_divide
from .skew import validate_npoint_indices


def one_hole_det(q: int, n: int, m: int, u_values: Sequence, v_values: Sequence) -> MultiPoly:
    """Determinant value of <one-hole conjugate | full state>."""
    if n < 1:
        raise RangeViolation(f"one-hole correlator needs N >= 1, got {n}")
    if not (0 <= q <= m):
        raise RangeViolation(f"hole row {q} outside 0..{m}")
    us, vs = letters(n, u_values, v_values)
    u2 = [u * u for u in us]
    v2 = [v * v for v in vs]
    q_row = [hk(q, [u2[k]] + v2[1:]) for k in range(n)]
    rows = [q_row] + [
        [hk(m + n - 1, [u2[k], v2[j]]) for k in range(n)] for j in range(1, n)
    ]
    det = det_exact(RingMatrix.from_rows(rows))
    det = vandermonde_divide(det, u2, descending=True)
    det = vandermonde_divide(det, v2[1:])
    return boundary_monomial((), us + vs[1:], m) * det


def npoint_det(
    rs: Sequence[int], n: int, m: int, u_values: Sequence, v_values: Sequence
) -> MultiPoly:
    """Determinant value of <full conjugate | n-point seeded state>.

    Columns: divided-difference columns h_{M+N-k}({u^2}_k, v_j^2) for
    k = 1..N-n, then one column of degree M - r_i + i - 1 for each i = n..1
    over the alphabet {u^2}_{N-n} and v_j^2.
    """
    validate_npoint_indices(rs, n, m)
    nn = len(rs)
    us, vs = letters(n, u_values, v_values)
    u2 = [u * u for u in us]
    v2 = [v * v for v in vs]
    head = u2[: n - nn]
    rows = []
    for j in range(n):
        row = [hk(m + n - (k + 1), u2[: k + 1] + [v2[j]]) for k in range(n - nn)]
        for i in range(nn, 0, -1):
            row.append(hk(m - rs[i - 1] + i - 1, head + [v2[j]]))
        rows.append(row)
    det = det_exact(RingMatrix.from_rows(rows))
    det = vandermonde_divide(det, v2)
    return boundary_monomial((), us[: n - nn] + vs, m) * det


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


def stack_sides(kind: str, n: int, m: int, u_values: Sequence, v_values: Sequence) -> tuple:
    """(stack, scalar product by pairing) of one reassembly, equal exactly:
    'hole' stacks sum_q v_1^{M-2q} * one_hole_det(q), 'point' stacks
    sum_j u_N^{2j-M} * one_point_det(j)."""
    us, vs = letters(n, u_values, v_values)
    if kind == "hole":
        terms = (vs[0] ** (m - 2 * q) * one_hole_det(q, n, m, us, vs) for q in range(m + 1))
    elif kind == "point":
        terms = (us[-1] ** (2 * j - m) * npoint_det((j,), n, m, us, vs) for j in range(m + 1))
    else:
        raise ValueError(f"unknown stack {kind!r}")
    return poly_sum(terms), scalar_product(n, m, us, vs, "fock_pairing")


def one_hole_stack_check(n: int, m: int, u_values: Sequence, v_values: Sequence) -> bool:
    """The hole determinants reassemble the scalar product (``stack_sides``)."""
    stack, pairing = stack_sides("hole", n, m, u_values, v_values)
    return stack == pairing


def one_point_stack_check(n: int, m: int, u_values: Sequence, v_values: Sequence) -> bool:
    """The one-point determinants reassemble the scalar product (``stack_sides``)."""
    stack, pairing = stack_sides("point", n, m, u_values, v_values)
    return stack == pairing


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
