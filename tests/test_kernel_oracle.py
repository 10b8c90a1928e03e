"""The MultiPoly kernel against sympy, and det_exact against det_cofactor.

The kernel computes products on packed integer keys and builds most results
through a trusted constructor; sympy is the independent slow route for the
ring operations, and every result must equal its re-canonicalised form.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phasetoda.algebra import MultiPoly, RingMatrix, det_cofactor, det_exact, grevlex_key
from phasetoda.algebra.ratio import exponent_spans, wider_than
from phasetoda.errors import NotDivisible

sympy = pytest.importorskip("sympy")

# names whose global order differs from plain string order (u2 < u10)
NAMES = ("u2", "u10", "v1")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

coeffs = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


@st.composite
def polys(draw, max_terms=5, coeffs=coeffs):
    """Sparse Laurent polynomial in a random subset of NAMES, listed in a
    random order so that __init__ has to sort."""
    names = draw(st.permutations(NAMES).flatmap(lambda p: st.integers(0, 3).map(lambda k: p[:k])))
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in names])
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return MultiPoly(tuple(names), terms)


@st.composite
def divisors(draw):
    """A non-monomial divisor with non-integral coefficients, a content other
    than 1 and a negative leading coefficient."""
    q = draw(polys(coeffs=st.integers(min_value=-5, max_value=5).map(Fraction)))
    scale = draw(st.builds(Fraction, st.integers(2, 9), st.sampled_from([3, 5, 7])))
    d = q * scale
    assume(not d.is_constant() and len(d.terms) > 1)
    assume(d.content() != 1 and any(c.denominator > 1 for c in d.terms.values()))
    return d if d.leading_term()[1] < 0 else -d


def to_sympy(p: MultiPoly):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(p.vars, exps):
            term *= SYMBOLS[name] ** e
        expr += term
    return expr


def from_sympy(expr) -> MultiPoly:
    """Canonical MultiPoly of an expanded sympy Laurent polynomial."""
    terms = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        key = tuple(int(powers.get(SYMBOLS[name], 0)) for name in NAMES)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(int(c.p), int(c.q))
    return MultiPoly(NAMES, terms)


def canonical(r: MultiPoly) -> MultiPoly:
    """Assert r is in canonical form, return it."""
    again = MultiPoly(r.vars, r.terms)
    assert r.vars == again.vars and r.terms == again.terms
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert all(len(e) == len(r.vars) for e in r.terms)
    return r


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_ring_operations_match_sympy(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    assert canonical(p * q) == from_sympy(P * Q)
    assert canonical(p + q) == from_sympy(P + Q)
    assert canonical(p - q) == from_sympy(P - Q)
    assert canonical(-p) == from_sympy(-P)
    assert canonical(p * 3) == canonical(Fraction(3) * p) == from_sympy(3 * P)
    assert canonical(p + Fraction(1, 2)) == from_sympy(P + sympy.Rational(1, 2))


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3), st.integers(min_value=0, max_value=3))
def test_power_matches_sympy(p, k):
    assert canonical(p ** k) == from_sympy(to_sympy(p) ** k)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=1), st.integers(min_value=-3, max_value=-1))
def test_negative_power_of_monomial_matches_sympy(p, k):
    if p.is_zero():
        return
    assert canonical(p ** k) == from_sympy(to_sympy(p) ** k)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
# a divisor with a monomial factor whose quotient has a negative power
@example(MultiPoly.var("v1", -1), MultiPoly.var("v1", 2) + MultiPoly.var("v1"))
def test_divide_exact_matches_sympy(p, q):
    if q.is_zero():
        return
    P, Q = to_sympy(p), to_sympy(q)
    # divisible by construction: the quotient must come back exactly
    assert canonical((p * q).divide_exact(q)) == p
    # arbitrary pair: a quotient must multiply back, a refusal must be a
    # genuine non-divisibility (the reduced denominator is no monomial)
    try:
        quot = canonical(p.divide_exact(q))
    except NotDivisible:
        _, den = sympy.fraction(sympy.cancel(P / Q))
        assert len(sympy.Add.make_args(sympy.expand(den))) > 1
    else:
        assert from_sympy(to_sympy(quot) * Q) == canonical(p)


@settings(max_examples=80, deadline=None)
@given(polys(), divisors())
def test_divide_exact_by_scaled_divisor_matches_sympy(p, d):
    assert canonical((p * d).divide_exact(d)) == p
    try:
        quot = canonical(p.divide_exact(d))
    except NotDivisible:
        _, den = sympy.fraction(sympy.cancel(to_sympy(p) / to_sympy(d)))
        assert len(sympy.Add.make_args(sympy.expand(den))) > 1
    else:
        assert from_sympy(to_sympy(quot) * to_sympy(d)) == canonical(p)


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
# v1 spans 2 in the divisor, 1 in the numerator
@example(MultiPoly.var("v1") + 1, MultiPoly.var("v1", 2) - 1)
# u2 is missing from the numerator
@example(MultiPoly.var("v1") + 1, MultiPoly.var("u2") + MultiPoly.var("v1"))
def test_span_pretest_refuses_only_non_divisors(p, q):
    # the RatioPoly._cancel pre-test: a refusal must be one that
    # divide_exact makes too, and an exact product is never refused
    assume(not p.is_zero() and len(q.terms) > 1)
    if wider_than(q, exponent_spans(p)):
        with pytest.raises(NotDivisible):
            p.divide_exact(q)
    assert not wider_than(q, exponent_spans(p * q))


@settings(max_examples=100, deadline=None)
@given(polys())
def test_leading_term_is_grevlex_maximum(p):
    assume(not p.is_zero())
    lead = max(p.terms, key=grevlex_key)
    assert p.leading_term() == (lead, p.terms[lead])


def test_divide_exact_refuses_by_coefficient():
    x = MultiPoly.var("x")
    # the leading terms divide, but no rational multiple of 3x + 1 is x + 1
    with pytest.raises(NotDivisible):
        (x + 1).divide_exact(3 * x + 1)
    assert (x + 1).divide_exact(2 * x + 2) == Fraction(1, 2)
    assert (x + 1).divide_exact(Fraction(-2, 3) * x - Fraction(2, 3)) == Fraction(-3, 2)


def test_divide_exact_laurent_across_degrees():
    u, v = MultiPoly.var("u2"), MultiPoly.var("v1")
    # after the lowest powers are stripped, the divisor has terms of total
    # degrees 0 and 6 and the quotient terms of degrees 1, 3 and 7
    q = u ** -1 * v ** -2 + 3 * u ** 2 * v - Fraction(1, 2) * v ** 3
    p = Fraction(2, 3) * u ** -2 + u * v ** -1 - v ** 4 + 5
    prod = p * q
    assert canonical(prod.divide_exact(q)) == p
    assert canonical(prod.divide_exact(p)) == q
    assert from_sympy(to_sympy(prod)) == prod
    with pytest.raises(NotDivisible):
        (prod + v).divide_exact(q)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_cancelled_variables_are_pruned(p):
    assert canonical(p + (-p)) == MultiPoly.zero()
    assert (p - p).vars == ()
    if p.is_monomial():
        inverse = canonical(p.monomial_inverse())
        assert canonical(p * inverse) == MultiPoly.const(1)
        assert (p * inverse).vars == ()


def test_cancellation_cases():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    one = canonical(x * MultiPoly.var("x", -1))
    assert one.vars == () and one.terms == {(): Fraction(1)}
    # x cancels from every term of a multi-term product
    r = canonical((x * y + x) * (MultiPoly.var("x", -1) * y - MultiPoly.var("x", -1)))
    assert r.vars == ("y",) and r == y ** 2 - 1
    p = x ** 2 * Fraction(1, 3) - y * Fraction(2, 7) + 5
    assert canonical(p + (-p)).vars == ()
    assert canonical(p - p) == MultiPoly.zero()


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_det_exact_matches_cofactor(n, data):
    # sizes 3 and 4 take the minor expansion, size 5 the Bareiss path
    flat = data.draw(st.lists(polys(max_terms=3), min_size=n * n, max_size=n * n))
    m = RingMatrix(n, n, flat)
    assert canonical(det_exact(m)) == canonical(det_cofactor(m))
