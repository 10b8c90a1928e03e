"""Ring arithmetic, calculus, serialization of the Laurent polynomials."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly, RingMatrix, as_poly, poly_sum
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
    assert zeta2.diff("x1").diff("x1") == MultiPoly.const(1)


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


@pytest.mark.parametrize("divisor", ["x", 1.5, None])
def test_divide_exact_refuses_a_divisor_of_another_type(divisor):
    with pytest.raises(TypeError):
        (x ** 2).divide_exact(divisor)


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


# small and large numerators, either sign, over small and large denominators
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-12, 12), st.integers(-(10 ** 30), 10 ** 30)),
    st.one_of(st.integers(1, 12), st.integers(1, 10 ** 20)),
)


def _canonical_constant(p: MultiPoly) -> bool:
    if not p.nums:
        return p.den == 1
    ((exps, num),) = p.nums.items()
    return exps == () and num != 0 and p.den > 0 and gcd(p.den, num) == 1


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_constant_arithmetic_matches_fraction(a, b):
    pa, pb = MultiPoly.const(a), MultiPoly.const(b)
    cases = [
        (pa * pb, a * b), (pa + pb, a + b), (pa - pb, a - b),
        # sums that cancel to 0
        (pa - pa, 0), (pa + MultiPoly.const(-a), 0), (pb - MultiPoly.const(b), 0),
        # a product whose factors share the denominators' primes
        (pa * MultiPoly.const(Fraction(b.denominator, a.denominator)),
         a * Fraction(b.denominator, a.denominator)),
    ]
    for got, want in cases:
        assert _canonical_constant(got), got
        assert got.constant_value() == want
        assert got == MultiPoly.const(want)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(("x",), {(1,): 0.1}),
        lambda: MultiPoly.const(0.1),
        lambda: MultiPoly.monomial(0.5, {"x": 1}),
        lambda: as_poly(0.1),
        lambda: as_poly(None),
        lambda: RingMatrix.from_rows([[0.1]]),
        lambda: x.subs({"x": 0.5}),
        lambda: x * 0.5,
        lambda: x + 0.5,
    ],
    ids=["init", "const", "monomial", "as_poly", "as_poly-none", "from_rows", "subs", "mul", "add"],
)
def test_floats_are_refused(build):
    # a float would be stored as its binary expansion, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError):
        build()


def test_exact_scalars_are_accepted():
    assert as_poly(Fraction(1, 10)) == MultiPoly.const(Fraction(1, 10)) == MultiPoly(
        (), {(): Fraction(1, 10)}
    )
    assert as_poly(True) == MultiPoly.const(1) and as_poly(True).to_str() == "1"
    assert as_poly("x") == x and as_poly(x) is x


def test_kernel_builds_no_fraction(monkeypatch):
    p = Fraction(2, 3) * x ** 2 * y - Fraction(1, 4) * MultiPoly.var("y", -1) + 5
    q = x * y + Fraction(3, 7) * x - 2
    m = Fraction(-2, 5) * x * y
    c, d = MultiPoly.const(Fraction(-9, 4)), MultiPoly.const(Fraction(10, 3))
    built = []
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    prod = p * q
    results = [
        prod, p + q, p - q, 3 - p, -p, p * 3, p ** 3, prod.divide_exact(q),
        prod.divide_exact(MultiPoly.const(-6)), (x * q).diff("x"), p.coeff_of("y", 1),
        p.subs({"x": 2, "y": x}), m.monomial_inverse(), c * d, c + d, c - d, c - c,
    ]
    # the length, keys and membership of the Fraction view read numerators only
    assert [len(r.terms) for r in results] == [len(r.nums) for r in results]
    assert [list(r.terms) for r in results] == [list(r.nums) for r in results]
    assert all(e in r.terms for r in results for e in r.nums)
    assert not built
    assert prod.terms[(3, 2)] == Fraction(2, 3)
    assert built


z = MultiPoly.var("z")
# numerators of either sign over denominators with different primes
mixed = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 6]))


@st.composite
def sparse_polys(draw):
    """A polynomial in a random subset of x, y, z, so terms of one sum carry
    disjoint, nested or equal variable tuples."""
    names = draw(st.lists(st.sampled_from(("x", "y", "z")), unique=True, max_size=3))
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in names])
    return MultiPoly(tuple(names), draw(st.dictionaries(exps, mixed, max_size=4)))


def left_fold(terms):
    total = MultiPoly.zero()
    for p in terms:
        total = total + p
    return total


def _canonical(p: MultiPoly) -> bool:
    return (p.den > 0 and all(p.nums.values()) and gcd(p.den, *p.nums.values()) == 1
            and all(map(any, zip(*p.nums))) and (p.nums or p.vars == ()))


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_polys(), max_size=7))
def test_poly_sum_matches_a_left_fold_of_add(terms):
    want = left_fold(terms)
    got = poly_sum(p for p in terms)  # a one-shot generator
    assert got == want and _canonical(got)
    cancelled = poly_sum(terms + [-p for p in terms])
    assert (cancelled.vars, cancelled.nums, cancelled.den) == ((), {}, 1)


@pytest.mark.parametrize(
    "terms, want",
    [
        ([], MultiPoly.zero()),
        ([MultiPoly.zero(), x, MultiPoly.zero()], x),
        ([x, y, z], MultiPoly(("x", "y", "z"), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})),
        ([Fraction(1, 2) * x, Fraction(1, 3) * x, Fraction(1, 6) * y],
         Fraction(5, 6) * x + Fraction(1, 6) * y),
        ([x * y, -x * y, y, Fraction(1, 2) * z], y + Fraction(1, 2) * z),
        ([MultiPoly.const(Fraction(c, d)) for c, d in ((1, 2), (1, 3), (-5, 6))], MultiPoly.zero()),
        ([MultiPoly.const(Fraction(1, d)) for d in (2, 3, 4)], MultiPoly.const(Fraction(13, 12))),
        ([-3 * x, Fraction(-2, 5) * y, -x, Fraction(-1, 10) * y], -4 * x - Fraction(1, 2) * y),
    ],
    ids=["empty", "zeros-dropped", "disjoint-vars", "mixed-denominators", "variable-cancels",
         "constants-cancel", "constants-only", "negative-numerators"],
)
def test_poly_sum_cases(terms, want):
    got = poly_sum(terms)
    assert got == want and _canonical(got)
    assert got.vars == want.vars and got.to_str() == want.to_str()
