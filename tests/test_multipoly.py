"""Ring arithmetic, calculus, serialization of the Laurent polynomials."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly
from phasetoda.errors import DivisionByZero, NegativeExponent, NotDivisible

x = MultiPoly.var("x")
y = MultiPoly.var("y")
u = MultiPoly.var("u")


def test_difference_of_squares():
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_additive_identity():
    p = 3 * x ** 2 - y + Fraction(1, 2)
    assert p + MultiPoly.zero() == p


def test_laurent_multiplication():
    # (u^-1 + u) * u exercises negative exponents
    assert (MultiPoly.var("u", -1) + u) * u == 1 + u ** 2


def test_eval_simple():
    assert (x ** 2 - y ** 2).subs({"x": 3, "y": 2}).constant_value() == 5


def test_eval_pole():
    with pytest.raises(DivisionByZero):
        MultiPoly.var("u", -1).subs({"u": 0})


def brute_h2(vals):
    # oracle: complete homogeneous of degree 2 by direct monomial listing
    return sum(a * b for a, b in combinations_with_replacement(vals, 2))


def test_eval_h2_oracle():
    u1, u2 = MultiPoly.var("u1"), MultiPoly.var("u2")
    h2 = u1 ** 2 + u1 * u2 + u2 ** 2
    assert h2.subs({"u1": 1, "u2": 2}).constant_value() == brute_h2([1, 2]) == 7


def test_partial_eval_stays_polynomial():
    p = x ** 2 * y + y
    q = p.subs({"x": 2})
    assert q == 5 * y


def test_diff_basic():
    assert (x ** 3).diff("x") == 3 * x ** 2
    assert (x ** 2).diff("y").is_zero()


def test_diff_zeta2():
    # second derivative in x1 of x2 + x1^2/2 is 1
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    zeta2 = x2 + Fraction(1, 2) * x1 ** 2
    assert zeta2.diff("x1", 2) == MultiPoly.const(1)


def test_diff_laurent_refused():
    with pytest.raises(NegativeExponent):
        MultiPoly.var("u", -1).diff("u")


def test_coeff_extract():
    lam = MultiPoly.var("lam")
    p = lam ** 2 + 5 * lam ** -1 + 1
    assert p.coeff_of("lam", -1) == MultiPoly.const(5)
    assert (lam ** 2).coeff_of("lam", 3).is_zero()


def test_coeff_extract_keeps_other_vars():
    v1 = MultiPoly.var("v1")
    c3 = MultiPoly.var("c3")
    p = v1 ** 4 + c3 * v1 ** -2
    assert p.coeff_of("v1", -2) == c3


def test_serialization_golden():
    mono = MultiPoly.monomial(Fraction(-2, 3), {"u1": 2, "v2": -1})
    assert mono.to_str() == "-2/3*u1^2*v2^-1"
    assert MultiPoly.zero().to_str() == "0"
    assert MultiPoly.const(7).to_str() == "7"
    p = x ** 2 - y ** 2
    assert p.to_str() == "1*x^2 + -1*y^2"


def test_canonical_representation_is_stable():
    # same polynomial assembled two ways serializes identically
    a = (x + y) * (x - y)
    b = x * x - y * y + MultiPoly.monomial(0, {"u": 1})
    assert a.to_str() == b.to_str()
    assert hash(a) == hash(b)


def test_divide_exact_and_failure():
    assert (x ** 2 - y ** 2).divide_exact(x - y) == x + y
    with pytest.raises(NotDivisible):
        (x ** 2 + y).divide_exact(x - y)


def test_divide_exact_laurent():
    p = MultiPoly.const(1) + MultiPoly.var("u", 2)
    assert p.divide_exact(u) == MultiPoly.var("u", -1) + u


def test_subs_with_monomial_inverse():
    lam = MultiPoly.var("lam")
    p = lam ** 2 + lam ** -1
    q = p.subs({"lam": lam.monomial_inverse()})
    assert q == lam ** -2 + lam


coeffs = st.integers(min_value=-6, max_value=6).map(Fraction)
exponents = st.tuples(
    st.integers(min_value=-2, max_value=3), st.integers(min_value=-2, max_value=3)
)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        terms[draw(exponents)] = draw(coeffs)
    return MultiPoly(("x", "y"), terms)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=80, deadline=None)
@given(polys())
def test_mixed_partials_commute(p):
    # restrict to the polynomial part so differentiation is defined
    kept = {e: c for e, c in p.terms.items() if min(e, default=0) >= 0}
    poly_part = MultiPoly(p.vars, kept) if p.vars else MultiPoly.zero()
    assert poly_part.diff("x").diff("y") == poly_part.diff("y").diff("x")


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_eval_is_ring_homomorphism(p, q):
    point = {"x": Fraction(3, 2), "y": Fraction(-2, 5)}
    def at(f):
        return f.subs(point).constant_value()

    assert at(p * q) == at(p) * at(q)
    assert at(p + q) == at(p) + at(q)
