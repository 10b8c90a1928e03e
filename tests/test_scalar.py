"""Three-way scalar product agreement and the degenerate guard."""

from fractions import Fraction

import pytest

from phasetoda.algebra import MultiPoly
from phasetoda.errors import DegenerateVandermonde
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
    # coincident annihilation squares still have no determinant value
    with pytest.raises(DegenerateVandermonde):
        scalar_product(2, 1, vs, [Fraction(3), Fraction(-3)], "determinant")
    with pytest.raises(DegenerateVandermonde):
        npoint_det((0,), 2, 1, vs, [Fraction(3), Fraction(3)])
