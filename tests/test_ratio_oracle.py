"""RatioPoly arithmetic against sympy's rational functions.

The operands share denominator factors drawn from one small pool, so sums
and comparisons go through the common-factor split as well as through the
plain cross-multiplication.  Nothing is divided out of a numerator, so the
factor lists carry the denominators: their bookkeeping is checked along
with the values.  Foreign operands (None, a str, a float) are refused as
MultiPoly refuses them.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly, RatioPoly
from test_kernel_oracle import NAMES, SYMBOLS, nonzero_coeffs, polys, to_sympy

sympy = pytest.importorskip("sympy")
pytestmark = pytest.mark.hypothesis_seeds

# every exponent of a polys() draw is at least -2
LIFT = MultiPoly.monomial(1, {name: 2 for name in NAMES})


def content_free(f: MultiPoly) -> MultiPoly:
    """f over the monomial that divides all of its terms: no exponent is
    negative and each variable's lowest is 0, so that a polynomial that f
    divides has a polynomial quotient."""
    return f * MultiPoly.monomial(1, {v: -min(col) for v, col in zip(f.vars, zip(*f.terms))})


@st.composite
def ratio_pairs(draw, polynomial=False):
    """Two RatioPolys whose denominators are sub-multisets of one pool of one
    to three nonzero factors, so that they often share factors.  With
    ``polynomial`` no numerator or factor has a negative exponent, and no
    sum, product or derivative of them gains one."""
    pool = draw(st.lists(polys(max_terms=2, coeffs=nonzero_coeffs, min_terms=1), min_size=1, max_size=3))
    if polynomial:
        pool = [content_free(f) for f in pool]
    pairs = []
    for _ in range(2):
        num = draw(polys(max_terms=3))
        factors = draw(st.lists(st.sampled_from(pool), max_size=2))
        pairs.append(RatioPoly(num * LIFT if polynomial else num, _factors=factors))
    return tuple(pairs)


def to_rational(r: RatioPoly):
    den = sympy.Integer(1)
    for f in r.factors:
        den *= to_sympy(f)
    return to_sympy(r.num) / den


def same(got: RatioPoly, want) -> bool:
    return sympy.cancel(sympy.together(to_rational(got) - want)) == 0


@settings(max_examples=100, deadline=None)
@given(ratio_pairs())
def test_arithmetic_matches_sympy(pair):
    a, b = pair
    A, B = to_rational(a), to_rational(b)
    assert same(a + b, A + B)
    assert same(a - b, A - B)
    assert same(a * b, A * B)
    assert same(-a, -A)
    assert same(a + 2, A + 2) and same(Fraction(1, 3) - a, sympy.Rational(1, 3) - A)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert same(a / b, A / B)
        assert (a * b) / b == a
    assert (a == b) == (sympy.cancel(sympy.together(A - B)) == 0)
    assert a + b - b == a and b == b + 0
    # the same value over one more factor, shared or not
    for f in b.factors[:1] + [b.num]:
        if not f.is_zero():
            assert RatioPoly(a.num * f, _factors=a.factors + [f]) == a


@settings(max_examples=100, deadline=None)
@given(ratio_pairs(), polys(max_terms=2, coeffs=nonzero_coeffs, min_terms=2), nonzero_coeffs)
def test_factor_bookkeeping(pair, shared, c):
    a, b = pair
    A, B, F = to_rational(a), to_rational(b), to_sympy(shared)
    # a sum over a shared factor keeps it once: the common denominator is
    # the multiset union (the larger count of each factor) of the two lists
    left = RatioPoly(a.num, _factors=a.factors + [shared])
    right = RatioPoly(b.num, _factors=b.factors + [shared])
    total = left + right
    assert same(total, A / F + B / F)
    if not total.is_zero():
        assert Counter(total.factors) == Counter(left.factors) | Counter(right.factors)
    # a product keeps both lists whole (the counts add)
    product = a * b
    assert same(product, A * B)
    if not product.is_zero():
        assert Counter(product.factors) == Counter(a.factors) + Counter(b.factors)
    # a constant factor folds into the numerator
    scaled = RatioPoly(a.num, _factors=[MultiPoly.const(c)] + a.factors)
    assert scaled.factors == a.factors and scaled.num == a.num * (1 / c)
    assert same(scaled, A / sympy.Rational(c.numerator, c.denominator))


@settings(max_examples=60, deadline=None)
@given(ratio_pairs(polynomial=True), st.sampled_from(NAMES))
def test_diff_matches_sympy(pair, name):
    a, b = pair
    assert same(a.diff(name), sympy.diff(to_rational(a), SYMBOLS[name]))
    assert same((a * b).diff(name), sympy.diff(to_rational(a) * to_rational(b), SYMBOLS[name]))


@pytest.mark.parametrize("foreign", [None, "x", 1.5])
def test_foreign_operands_are_refused(foreign):
    x = RatioPoly(MultiPoly.var("x"))
    assert (x == foreign) is False and (x != foreign) is True
    assert x not in [foreign]
    for op in (lambda: x + foreign, lambda: foreign + x, lambda: x * foreign,
               lambda: foreign * x, lambda: x - foreign, lambda: foreign - x, lambda: x / foreign):
        with pytest.raises(TypeError):
            op()
    # as for MultiPoly
    p = MultiPoly.var("x")
    assert (p == foreign) is False
    with pytest.raises(TypeError):
        p + foreign


def test_names_still_build_ratios():
    assert RatioPoly("x", "y") * RatioPoly("y") == RatioPoly("x")
    assert RatioPoly("x") + MultiPoly.var("y") == MultiPoly.var("x") + MultiPoly.var("y")
    assert MultiPoly.var("y") - RatioPoly(1, "y") == RatioPoly(MultiPoly.var("y") ** 2 - 1, "y")
