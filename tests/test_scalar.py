"""Three-way scalar product agreement, also where squares coincide."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly
from phasetoda.phase import (
    correlator_npoint,
    correlator_one_hole,
    npoint_det,
    one_hole_det,
    scalar_product,
)


def names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def test_trivial_cases():
    for method in ("fock_pairing", "schur_sum", "determinant"):
        assert scalar_product(0, 2, [], [], method) == MultiPoly.const(1)


def test_desk_anchor():
    u, v = MultiPoly.var("u1"), MultiPoly.var("v1")
    want = v * u.monomial_inverse() + u * v.monomial_inverse()
    for method in ("fock_pairing", "schur_sum", "determinant"):
        assert scalar_product(1, 1, ["u1"], ["v1"], method) == want


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_three_way_symbolic(n, m):
    a = scalar_product(n, m, names("u", n), names("v", n), "fock_pairing")
    b = scalar_product(n, m, names("u", n), names("v", n), "schur_sum")
    c = scalar_product(n, m, names("u", n), names("v", n), "determinant")
    assert a == b == c


def test_three_way_numeric_spot():
    us = [Fraction(2), Fraction(3), Fraction(5, 2)]
    vs = [Fraction(1, 2), Fraction(4, 3), Fraction(7)]
    a = scalar_product(3, 2, us, vs, "fock_pairing")
    b = scalar_product(3, 2, us, vs, "schur_sum")
    c = scalar_product(3, 2, us, vs, "determinant")
    assert a == b == c


def test_degenerate_vandermonde():
    # coincident creation squares: the divided-difference columns divide by
    # no creation Vandermonde, so every determinant takes its pairing value
    vs = [Fraction(1), Fraction(3)]
    for u2, value in ((2, Fraction(35, 4)), (-2, Fraction(-35, 4))):
        us = [Fraction(2), Fraction(u2)]
        pairing = scalar_product(2, 1, us, vs, "fock_pairing")
        assert pairing == MultiPoly.const(value)
        assert scalar_product(2, 1, us, vs, "schur_sum") == pairing
        assert scalar_product(2, 1, us, vs, "determinant") == pairing
        for k in (0, 1):
            assert one_hole_det(k, 2, 1, us, vs) == correlator_one_hole(k, 2, 1, us, vs, "pairing")
            assert npoint_det((k,), 2, 1, us, vs) == correlator_npoint((k,), 2, 1, us, vs)
    # coincident annihilation squares: the divided-difference rows divide by
    # no annihilation Vandermonde either
    us = [Fraction(2), Fraction(1, 2)]
    for v2 in (Fraction(3), Fraction(-3)):
        vs = [Fraction(3), v2]
        for m in (1, 2):
            pairing = scalar_product(2, m, us, vs, "fock_pairing")
            assert scalar_product(2, m, us, vs, "determinant") == pairing
            for k in range(m + 1):
                assert npoint_det((k,), 2, m, us, vs) == correlator_npoint((k,), 2, m, us, vs)
    # at N = 3 the hole determinant keeps v_2 and v_3, whose squares coincide
    us, vs = [Fraction(2), Fraction(1, 2), Fraction(5, 3)], [Fraction(1), Fraction(3), Fraction(-3)]
    for q in range(3):
        assert one_hole_det(q, 3, 2, us, vs) == correlator_one_hole(q, 3, 2, us, vs, "pairing")
    # creation and annihilation squares coinciding at once
    us, vs = [Fraction(2), Fraction(-2)], [Fraction(3), Fraction(-3)]
    pairing = scalar_product(2, 2, us, vs, "fock_pairing")
    assert scalar_product(2, 2, us, vs, "determinant") == pairing
    for k in range(3):
        assert one_hole_det(k, 2, 2, us, vs) == correlator_one_hole(k, 2, 2, us, vs, "pairing")
        assert npoint_det((k,), 2, 2, us, vs) == correlator_npoint((k,), 2, 2, us, vs)


# a small signed pool, so that squares of the drawn letters often coincide
signed = st.sampled_from([Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3) for b in (1, 2)])


@st.composite
def routes(draw):
    """(N, M, us, vs, q, rs): letters from the signed pool at N, M <= 3, a
    hole row and a valid n-point seed."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    us, vs = (draw(st.lists(signed, min_size=n, max_size=n)) for _ in range(2))
    order = draw(st.integers(1, n))
    lead = draw(st.integers(0, m))
    rest = sorted(draw(st.lists(st.integers(0, min(lead, 1)), min_size=order - 1,
                                max_size=order - 1)), reverse=True)
    return n, m, us, vs, draw(st.integers(0, m)), (lead, *rest)


@settings(max_examples=200, deadline=None)
@given(routes())
@pytest.mark.hypothesis_seeds
def test_determinant_routes_match_pairing(case):
    n, m, us, vs, q, rs = case
    assert scalar_product(n, m, us, vs, "determinant") == scalar_product(n, m, us, vs, "fock_pairing")
    assert one_hole_det(q, n, m, us, vs) == correlator_one_hole(q, n, m, us, vs, "pairing")
    assert npoint_det(rs, n, m, us, vs) == correlator_npoint(rs, n, m, us, vs)


@pytest.mark.parametrize("n,m", [(4, 3), (3, 6)])
def test_determinant_matches_pairing_on_names_at_larger_sizes(n, m):
    un, vn = names("u", n), names("v", n)
    assert scalar_product(n, m, un, vn, "determinant") == scalar_product(n, m, un, vn, "fock_pairing")
