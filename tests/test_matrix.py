"""Exact determinants (examples, oracle agreement, multilinearity) and the
matrix operations over polynomial and rational entries."""

import random
from fractions import Fraction

import pytest

from phasetoda.algebra import MultiPoly, RatioPoly, RingMatrix, det_cofactor, det_exact
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


@pytest.mark.parametrize("n", [5, 6])
def test_bareiss_matches_cofactor(n):
    rng = random.Random(300 + n)
    rows = _random_poly_matrix(rng, n)
    m = RingMatrix.from_rows(rows)
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
    d = det_exact(m)
    assert not d.is_zero()
    assert any(c.denominator > 1 for c in d.terms.values())
    assert d == det_cofactor(m)


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
    assert det_exact(m) == det_cofactor(m)


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
