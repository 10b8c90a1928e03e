"""Exact determinants (examples, oracle agreement, multilinearity) and the
matrix operations over polynomial and rational entries."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly, RatioPoly, RingMatrix, det_cofactor, det_exact
from phasetoda.algebra import matrix
from phasetoda.algebra.matrix import _det_bareiss, _det_minor_dp
from phasetoda.errors import NonSquare


def test_det_2x2():
    m = RingMatrix.from_rows([[1, 2], [3, 4]])
    assert det_exact(m) == MultiPoly.const(-2)


def test_det_empty_is_one():
    assert det_exact(RingMatrix(0, 0, [])) == MultiPoly.const(1)


def test_det_non_square():
    with pytest.raises(NonSquare):
        det_exact(RingMatrix(1, 2, [1, 2]))


def test_vandermonde_against_cofactor_oracle():
    a, b, c = (MultiPoly.var(ch) for ch in "abc")
    m = RingMatrix.from_rows([[1, a, a ** 2], [1, b, b ** 2], [1, c, c ** 2]])
    expanded = (b - a) * (c - a) * (c - b)
    assert det_exact(m) == expanded
    assert det_cofactor(m) == expanded


def _random_poly_matrix(rng, n):
    vars_ = [MultiPoly.var(ch) for ch in ("p", "q")]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = MultiPoly.const(rng.randint(-3, 3))
            for v in vars_:
                if rng.random() < 0.5:
                    poly = poly + rng.randint(-2, 2) * v
            row.append(poly)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [3, 4])
def test_det_alternating_and_swap(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        rows = _random_poly_matrix(rng, n)
        d = det_exact(RingMatrix.from_rows(rows))
        swapped = [rows[1], rows[0]] + rows[2:]
        assert det_exact(RingMatrix.from_rows(swapped)) == -d
        repeated = [rows[0], rows[0]] + rows[2:]
        assert det_exact(RingMatrix.from_rows(repeated)).is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_det_row_multilinearity(n):
    rng = random.Random(200 + n)
    rows = _random_poly_matrix(rng, n)
    extra = _random_poly_matrix(rng, n)[0]
    summed = [
        [rows[0][j] + extra[j] for j in range(n)]
    ] + rows[1:]
    lhs = det_exact(RingMatrix.from_rows(summed))
    rhs = det_exact(RingMatrix.from_rows(rows)) + det_exact(
        RingMatrix.from_rows([extra] + rows[1:])
    )
    assert lhs == rhs


# det_exact expands every polynomial matrix from 3x3 up by the DP, so the
# Bareiss tests call it directly and det_exact alongside it


@pytest.mark.parametrize("n", [5, 6])
def test_bareiss_matches_cofactor(n):
    rng = random.Random(300 + n)
    rows = _random_poly_matrix(rng, n)
    m = RingMatrix.from_rows(rows)
    assert _det_bareiss(m) == det_cofactor(m)
    assert det_exact(m) == det_cofactor(m)


def test_bareiss_with_fractional_coefficients_matches_cofactor():
    # every entry has a non-integral rational coefficient, so each exact
    # division inside Bareiss scales to integers and divides out a content
    rng = random.Random(305)
    p, q = MultiPoly.var("p"), MultiPoly.var("q")
    rows = []
    for _ in range(5):
        row = []
        for _ in range(5):
            row.append(
                Fraction(rng.randint(-4, 4) or 1, rng.choice([2, 3, 6])) * p
                + Fraction(rng.randint(-4, 4), rng.choice([1, 5])) * q
                + Fraction(rng.randint(-3, 3), 4)
            )
        rows.append(row)
    m = RingMatrix.from_rows(rows)
    d = _det_bareiss(m)
    assert not d.is_zero()
    assert any(c.denominator > 1 for c in d.terms.values())
    assert d == det_cofactor(m)
    assert det_exact(m) == d


def test_bareiss_zero_pivot_swap():
    m = RingMatrix.from_rows(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 1, 0, 1],
            [2, 1, 0, 1, 2],
            [3, 0, 1, 0, 3],
            [4, 1, 2, 3, 0],
        ]
    )
    assert _det_bareiss(m) == det_cofactor(m)
    assert det_exact(m) == det_cofactor(m)


# mixed denominators, so rows scale over different lcms
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6)))


def _entries(names, terms=3, reach=2):
    """Sparse Laurent polynomials in ``names``: up to ``terms`` terms with
    exponents in [-reach, reach], zero when every drawn coefficient is."""
    exps = st.tuples(*[st.integers(-reach, reach) for _ in names])
    return st.dictionaries(exps, COEFFS, min_size=1, max_size=terms).map(
        lambda t: MultiPoly(names, t)
    )


# each row is one of: zero; constants; entries sharing no variable (entry j
# in t_j alone); entries over a few shared names whose global order differs
# from string order
ROW_KINDS = ("zero",) + ("constant",) * 2 + ("disjoint",) * 3 + ("shared",) * 6


@st.composite
def laurent_matrices(draw, sizes, terms=3, reach=2):
    n = draw(sizes)
    # one matrix in five is all constant
    kinds = ("constant",) if draw(st.integers(0, 4)) == 0 else ROW_KINDS
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "constant":
            rows.append([draw(COEFFS) for _ in range(n)])
        elif kind == "disjoint":
            rows.append([draw(_entries((f"t{j}",), terms, reach)) for j in range(n)])
        else:
            names = draw(st.lists(st.sampled_from(("x", "u2", "u10")), unique=True, max_size=3))
            rows.append([draw(_entries(tuple(names), terms, reach)) for _ in range(n)])
    return RingMatrix(n, n, [e for row in rows for e in row])


@settings(max_examples=80, deadline=None)
@given(laurent_matrices(st.integers(0, 5)))
def test_det_exact_matches_cofactor_on_sparse_laurent_matrices(m):
    assert det_exact(m) == det_cofactor(m)


@settings(max_examples=60, deadline=None)
@given(laurent_matrices(st.integers(2, 5)))
def test_minor_dp_matches_cofactor_at_every_size(m):
    # det_exact sends n = 2 to the direct formula, so the DP is called
    # directly to cover it there
    assert _det_minor_dp(m) == det_cofactor(m)


# Bareiss swells on the default entries: up to 13 s for one 6x6 matrix
# whose determinant has 3853 terms, against 40 ms for the DP
@settings(max_examples=20, deadline=None)
@given(laurent_matrices(st.integers(5, 6), terms=2, reach=1))
def test_minor_dp_matches_bareiss_at_5_and_6(m):
    # fraction-free elimination with exact divisions: a route that shares
    # no step with the subset expansion
    assert _det_minor_dp(m) == _det_bareiss(m)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_det_exact_takes_the_dp_for_polynomial_matrices(n, monkeypatch):
    m = RingMatrix.from_rows(_random_poly_matrix(random.Random(400 + n), n))
    expected = det_cofactor(m) if n <= 6 else _det_bareiss(m)

    def never(m):
        raise AssertionError("det_exact took the Bareiss route")

    monkeypatch.setattr(matrix, "_det_bareiss", never)
    assert det_exact(m) == expected


@pytest.mark.parametrize("n", [9, 30])
def test_det_exact_eliminates_large_constant_matrices(n, monkeypatch):
    # the subset expansion's n 2^(n-1) products would dominate here: the
    # 30x30 triangular Jacobi-Trudi matrix of a tableau count hung in it
    rng = random.Random(500 + n)
    diag = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    rows = [[diag[i] if j == i else rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    # the first and last rows swapped: a zero pivot and one sign change
    rows[0], rows[-1] = rows[-1], rows[0]
    m = RingMatrix.from_rows(rows)

    def never(m):
        raise AssertionError("det_exact took the subset expansion for a constant matrix")

    monkeypatch.setattr(matrix, "_det_minor_dp", never)
    assert det_exact(m) == MultiPoly.const(-prod(diag))


def test_det_exact_expands_a_9x9_polynomial_matrix_by_the_dp(monkeypatch):
    # polynomial Bareiss is about 500 times slower at 8x8, so no size sends
    # a polynomial matrix there; blocks of 2, 3 and 4 rows on the diagonal
    rng = random.Random(510)
    blocks = [RingMatrix.from_rows(_random_poly_matrix(rng, k)) for k in (2, 3, 4)]
    rows, start = [[0] * 9 for _ in range(9)], 0
    for block in blocks:
        for i in range(block.rows):
            rows[start + i][start : start + block.cols] = block.row(i)
        start += block.rows

    def never(m):
        raise AssertionError("det_exact took the Bareiss route for a polynomial matrix")

    monkeypatch.setattr(matrix, "_det_bareiss", never)
    expected = prod((det_cofactor(block) for block in blocks), start=MultiPoly.const(1))
    assert not expected.is_zero()
    assert det_exact(RingMatrix.from_rows(rows)) == expected


# rationals over the denominators 1, 2, 3 and 6
CONSTANTS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 6)))


@st.composite
def constant_matrices(draw, sizes):
    """Constant matrices, some with a zero row, a zero column, or a zero
    leading pivot over a nonzero entry below it (so elimination swaps)."""
    n = draw(sizes)
    rows = [[draw(CONSTANTS) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("none", "row", "column", "pivot", "pivot")))
    k = draw(st.integers(0, n - 1))
    if kind == "row":
        rows[k] = [0] * n
    elif kind == "column":
        for row in rows:
            row[k] = 0
    elif kind == "pivot":
        rows[0][0] = 0
        rows[max(k, 1)][0] = draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))
    return RingMatrix.from_rows(rows)


@settings(max_examples=40, deadline=None)
@given(constant_matrices(st.integers(3, 8)))
def test_integer_route_matches_dp_and_cofactor(m):
    d = det_exact(m)
    assert d == _det_minor_dp(m)
    assert d == det_cofactor(m)


@settings(max_examples=60, deadline=None)
@given(constant_matrices(st.integers(3, 10)))
def test_integer_route_matches_bareiss(m):
    # every entry times t takes the elimination's polynomial branch, and
    # its determinant is t^n times the constant one
    t = MultiPoly.var("t")
    scaled = RingMatrix(m.rows, m.cols, [e * t for e in m.entries])
    assert _det_bareiss(scaled) == det_exact(m) * t ** m.rows


def _constant_rows(n):
    rng = random.Random(600 + n)
    return [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(n)] for _ in range(n)]


def _fraction_det(rows):
    """Gaussian elimination over Fractions: a route sharing no step with
    the fraction-free one."""
    a = [[Fraction(e) for e in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return det


@pytest.mark.parametrize("n", [3, 8, 9, 20])
def test_det_exact_takes_the_integer_route_for_constants(n, monkeypatch):
    rows = _constant_rows(n)
    m = RingMatrix.from_rows(rows)
    expected = MultiPoly.const(_fraction_det(rows))

    def never(*args):
        raise AssertionError("det_exact took a polynomial route for a constant matrix")

    monkeypatch.setattr(matrix, "_det_minor_dp", never)
    monkeypatch.setattr(MultiPoly, "divide_exact", never)
    # the route runs on integer numerators and builds no Fraction
    built = []
    make = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or make(cls, *a, **k))
    )
    d = det_exact(m)
    assert not built
    monkeypatch.undo()
    assert d == expected


@pytest.mark.parametrize("n", [3, 9])
def test_one_variable_entry_keeps_the_polynomial_route(n, monkeypatch):
    rows = _constant_rows(n)
    rows[-1][-1] = MultiPoly.var("p")
    m = RingMatrix.from_rows(rows)

    def never(a, b):
        raise AssertionError("det_exact took the integer route for a polynomial matrix")

    monkeypatch.setattr(matrix, "floordiv", never)
    # elimination's polynomial branch, which shares no step with the DP
    assert det_exact(m) == _det_bareiss(m)


def test_integer_route_swaps_a_zero_pivot_and_flips_the_sign():
    # the leading pivot is 0, so rows 0 and 1 trade places: det = -(2 * 3 * 5)
    m = RingMatrix.from_rows([[0, 2, 1], [Fraction(3, 2), 1, 1], [0, 0, 5]])
    assert _det_bareiss(m) == MultiPoly.const(-15) == det_cofactor(m)
    assert _det_bareiss(RingMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])).is_zero()
    # the same swap on polynomial entries: det = -(q * p * 5)
    p, q = MultiPoly.var("p"), MultiPoly.var("q")
    m = RingMatrix.from_rows([[0, p, 1], [q, 1, 1], [0, 0, 5]])
    assert _det_bareiss(m) == -5 * p * q == det_cofactor(m)
    assert _det_bareiss(RingMatrix.from_rows([[0, p, 1], [0, q, 1], [0, 1, p]])).is_zero()


def test_matmul_and_identity():
    a = RingMatrix.from_rows([[1, 2], [3, 4]])
    assert a @ RingMatrix.identity(2) == a
    b = RingMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).row(0) == [MultiPoly.const(2), MultiPoly.const(1)]


def _poly_grid(n):
    p, q = MultiPoly.var("p"), MultiPoly.var("q")
    return [[p * (i + 1) - q * j + i * j for j in range(n)] for i in range(n)]


def test_project_plus_keeps_diagonal_and_above():
    m = RingMatrix.from_rows(_poly_grid(3))
    plus = m.project("plus")
    for i in range(3):
        for j in range(3):
            assert plus[i, j] == (m[i, j] if j >= i else MultiPoly.zero())


def test_project_minus_keeps_strictly_below():
    m = RingMatrix.from_rows(_poly_grid(3))
    minus = m.project("minus")
    for i in range(3):
        for j in range(3):
            assert minus[i, j] == (m[i, j] if j < i else MultiPoly.zero())
    assert minus + m.project("plus") == m


def test_project_unknown_part():
    with pytest.raises(ValueError):
        RingMatrix.identity(2).project("diagonal")


def test_ratio_times_poly_matrix_equals_all_ratio_product():
    # the rational entries keep unexpanded denominators; wrapping every
    # polynomial entry in RatioPoly first is the all-rational route
    p, q = MultiPoly.var("p"), MultiPoly.var("q")
    rat = RingMatrix.from_rows([
        [RatioPoly(p, q + 1), RatioPoly(1, p - q)],
        [RatioPoly(q * q, p + 2), RatioPoly(p + q)],
    ])
    poly = RingMatrix.from_rows(_poly_grid(2))

    def wrapped(mat):
        return RingMatrix(mat.rows, mat.cols, [RatioPoly(e) for e in mat.entries])

    assert rat @ poly == rat @ wrapped(poly)
    assert poly @ rat == wrapped(poly) @ rat


def test_poly_and_ratio_identities_are_equal_both_ways():
    ratio_identity = RingMatrix(3, 3, [RatioPoly(e) for e in RingMatrix.identity(3).entries])
    assert RingMatrix.identity(3) == ratio_identity
    assert ratio_identity == RingMatrix.identity(3)
    assert ratio_identity != RingMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_diff_and_commutator():
    p, q = MultiPoly.var("p"), MultiPoly.var("q")
    a = RingMatrix.from_rows([[p, RatioPoly(1, q)], [0, p * q]])
    assert a.diff("p") == RingMatrix.from_rows([[1, 0], [0, q]])
    assert a.commutator(a).is_zero()
    assert not a.commutator(RingMatrix.from_rows([[0, 1], [0, 0]])).is_zero()
