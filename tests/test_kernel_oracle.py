"""The MultiPoly kernel against sympy, and det_exact against det_cofactor.

The kernel computes products on packed integer keys and builds most results
through a trusted constructor; sympy is the independent slow route for the
ring operations, and every result must equal its re-canonicalised form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phasetoda.algebra import (
    MultiPoly, RingMatrix, det_cofactor, det_exact, grevlex_key, poly_sum, var_key,
)
from phasetoda.errors import DivisionByZero, NegativeExponent, NotDivisible

sympy = pytest.importorskip("sympy")

# names whose global order differs from plain string order (u2 < u10)
NAMES = ("u2", "u10", "v1")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

coeffs = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


nonzero_coeffs = st.builds(
    Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(min_value=1, max_value=4)
)


@st.composite
def polys(draw, max_terms=5, coeffs=coeffs, min_terms=0):
    """Sparse Laurent polynomial in a random subset of NAMES, listed in a
    random order so that __init__ has to sort; with nonzero coefficients,
    at least ``min_terms`` terms (two or more take at least one name)."""
    fewest = 1 if min_terms > 1 else 0
    names = draw(st.permutations(NAMES).flatmap(lambda p: st.integers(fewest, 3).map(lambda k: p[:k])))
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in names])
    terms = draw(st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms))
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


def spans(p: MultiPoly) -> dict:
    """Exponent span (max - min) of every variable of p."""
    return {v: max(col) - min(col) for v, col in zip(p.vars, zip(*p.terms))}


def canonical(r: MultiPoly) -> MultiPoly:
    """Assert r is in canonical form, return it: integer numerators over a
    positive denominator sharing no factor with all of them, no zero
    numerator, no unused variable, and the same value rebuilt from terms."""
    assert type(r.den) is int and r.den > 0
    assert all(type(c) is int and c != 0 for c in r.nums.values())
    assert gcd(r.den, *r.nums.values()) == 1
    assert r.vars == tuple(sorted(r.vars, key=var_key))
    assert all(any(col) for col in zip(*r.nums)) and (r.nums or not r.vars)
    again = MultiPoly(r.vars, r.terms)
    assert again == r and hash(again) == hash(r)
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
    assert canonical(poly_sum([p, q, p * q, -p, Fraction(1, 3) * q])) == from_sympy(
        Q + P * Q + sympy.Rational(1, 3) * Q)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), st.sampled_from(NAMES), st.integers(-2, 2), coeffs, st.integers(0, 3))
@pytest.mark.hypothesis_seeds
def test_every_operation_returns_canonical_form(p, q, name, power, value, k):
    # each operation on its own, checked by canonical(); no sympy involved
    for r in (p + q, p - q, q - p, p * q, p * value, p ** k, -p, p.coeff_of(name, power)):
        canonical(r)
    if value:
        canonical(p.subs({name: value}))
        canonical(p.subs({name: value * MultiPoly.var("v1", power)}))
    try:
        canonical(p.diff(name))
    except NegativeExponent:
        assert any(e[p.vars.index(name)] < 0 for e in p.terms)
    if not q.is_zero():
        quot = canonical((p * q).divide_exact(q))
        # equal values reached by different routes: equal and equally hashed
        assert quot == p and hash(quot) == hash(p)
        diff = canonical((p + q) - q)
        assert diff == p and hash(diff) == hash(p)
        scaled = canonical((p * q * value).divide_exact(q * value)) if value else p
        assert scaled == p and hash(scaled) == hash(p)


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
# the remainders v1^-k * 2 fall forever unless the box ends the loop
@example(MultiPoly.var("v1") + 1, MultiPoly.var("v1") - 1)
@pytest.mark.hypothesis_seeds
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


@st.composite
def assignments(draw):
    """A partial assignment of NAMES: rationals, zero included, and
    monomials with nonzero coefficients and Laurent exponents."""
    monomials = polys(max_terms=1, coeffs=nonzero_coeffs, min_terms=1)
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    return {name: draw(coeffs | monomials) for name in names}


@settings(max_examples=150, deadline=None)
@given(polys(), assignments())
# a simultaneous substitution: u2 -> v1, v1 -> u2^-1
@example(MultiPoly(("u2", "v1"), {(2, -1): 1, (0, 1): Fraction(1, 2)}),
         {"u2": MultiPoly.var("v1"), "v1": MultiPoly.var("u2", -1)})
# v1 occurs with a negative power and is assigned 0
@example(MultiPoly.var("v1", -1) + 1, {"v1": Fraction(0)})
@pytest.mark.hypothesis_seeds
def test_subs_matches_sympy(p, assignment):
    values = {n: v if isinstance(v, MultiPoly) else MultiPoly.const(v) for n, v in assignment.items()}
    if any(v.is_zero() and n in p.vars and any(e[p.vars.index(n)] < 0 for e in p.terms)
           for n, v in values.items()):
        with pytest.raises(DivisionByZero):
            p.subs(assignment)
        return
    expected = to_sympy(p).xreplace({SYMBOLS[n]: to_sympy(v) for n, v in values.items()})
    assert canonical(p.subs(assignment)) == from_sympy(expected)


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
@given(polys(coeffs=nonzero_coeffs, min_terms=1), polys(coeffs=nonzero_coeffs, min_terms=2))
# v1 spans 2 in the divisor, 1 in the numerator
@example(MultiPoly.var("v1") + 1, MultiPoly.var("v1", 2) - 1)
# u2 is missing from the numerator
@example(MultiPoly.var("v1") + 1, MultiPoly.var("u2") + MultiPoly.var("v1"))
@pytest.mark.hypothesis_seeds
def test_span_pretest_refuses_only_non_divisors(p, q):
    # a divisor wider than the numerator in some variable leaves the
    # quotient an empty box in divide_exact and is refused, and an exact
    # product is never refused
    assert not p.is_zero() and len(q.terms) > 1
    p_spans = spans(p)
    if any(w > p_spans.get(v, 0) for v, w in spans(q).items()):
        with pytest.raises(NotDivisible):
            p.divide_exact(q)
    assert canonical((p * q).divide_exact(q)) == p


def packed_lead(p: MultiPoly, allvars: tuple) -> list:
    """The leading exponent vector of p over allvars in the lexicographic
    order with the last variable most significant (a monomial order, but
    not divide_exact's grevlex), less p's low corner."""
    vecs = [tuple(e[p.vars.index(v)] if v in p.vars else 0 for v in allvars) for e in p.terms]
    low = [min(col) for col in zip(*vecs)]
    lead = max(vecs, key=lambda e: e[::-1])
    return [a - b for a, b in zip(lead, low)]


def lead_outside_box(p: MultiPoly, q: MultiPoly) -> bool:
    """Whether the lex-leading quotient term of p / q, less its low corner,
    falls outside the box [0, span(p) - span(q)] in some variable."""
    allvars = tuple(sorted(set(p.vars) | set(q.vars), key=var_key))
    lead = [a - b for a, b in zip(packed_lead(p, allvars), packed_lead(q, allvars))]
    p_spans, q_spans = spans(p), spans(q)
    box = [p_spans.get(v, 0) - q_spans.get(v, 0) for v in allvars]
    return any(not 0 <= e <= top for e, top in zip(lead, box))


@st.composite
def outside_box_pairs(draw):
    """(p, q): p nonzero, q of two terms or more, the leading quotient term
    outside the box.  A drawn pair inside the box widens q past p in one of
    its variables v, as q * (1 + v^(span_v(p) + 1)), which puts the box of
    v below 0."""
    p = draw(polys(coeffs=nonzero_coeffs, min_terms=1))
    q = draw(polys(coeffs=nonzero_coeffs, min_terms=2))
    if not lead_outside_box(p, q):
        v = draw(st.sampled_from(q.vars))
        q = q * (1 + MultiPoly.var(v, spans(p).get(v, 0) + 1))
    return p, q


@settings(max_examples=100, deadline=None)
@given(outside_box_pairs())
# lex-leading quotient u2 * v1 against the box [0, 0] x [0, 1]
@example((
    MultiPoly(("u2", "v1"), {(2, 1): 1, (1, 2): 1, (2, 0): 1, (0, 2): 1}),
    MultiPoly(("u2", "v1"), {(2, 0): 1, (0, 1): 1}),
))
@pytest.mark.hypothesis_seeds
def test_quotient_term_outside_the_box_is_refused(pair):
    # an exact quotient, less its low corner, lies in the box
    # [0, span(p) - span(q)]: a quotient term outside it, leading in any
    # monomial order, proves that q does not divide p
    p, q = pair
    assert not p.is_zero() and len(q.terms) > 1
    assert lead_outside_box(p, q)
    _, den = sympy.fraction(sympy.cancel(to_sympy(p) / to_sympy(q)))
    assert len(sympy.Add.make_args(sympy.expand(den))) > 1
    with pytest.raises(NotDivisible):
        p.divide_exact(q)


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


@settings(max_examples=150, deadline=None)
@given(st.lists(polys(), max_size=5), st.sampled_from(("lam", "u5") + NAMES))
# u5 is placed between u2 and u10 in the global order
@example([MultiPoly.var("u10"), MultiPoly.zero(), Fraction(1, 2) * MultiPoly.var("u2")], "u5")
@pytest.mark.hypothesis_seeds
def test_series_matches_poly_sum_of_powers(coeffs, name):
    # zero and polynomial coefficients; a name that occurs in one is refused
    if any(name in c.vars for c in coeffs):
        with pytest.raises(ValueError):
            MultiPoly.series(name, coeffs)
        return
    t = MultiPoly.var(name)
    assert canonical(MultiPoly.series(name, coeffs)) == poly_sum(t ** k * c for k, c in enumerate(coeffs))


@settings(max_examples=150, deadline=None)
@given(st.lists(coeffs, max_size=8))
@pytest.mark.hypothesis_seeds
def test_constant_poly_sum_matches_fraction_sum(values):
    consts = [MultiPoly.const(v) for v in values]
    assert canonical(poly_sum(consts)) == MultiPoly.const(sum(values, Fraction(0)))
    cancelled = poly_sum(consts + [-c for c in consts])
    assert (cancelled.vars, cancelled.nums, cancelled.den) == ((), {}, 1)


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
    # a polynomial matrix takes the minor expansion, a constant one the
    # fraction-free elimination
    flat = data.draw(st.lists(polys(max_terms=3), min_size=n * n, max_size=n * n))
    m = RingMatrix(n, n, flat)
    assert canonical(det_exact(m)) == canonical(det_cofactor(m))
