"""Skew states, their coefficient supports, boundary correlators."""

import pytest

from phasetoda.algebra import MultiPoly
from phasetoda.combinatorics import (
    psi1_support,
    psi2_support,
    weighted_sum_psi1,
    weighted_sum_psi2,
)
from phasetoda.errors import RangeViolation
from phasetoda.phase import (
    correlator_npoint,
    correlator_one_hole,
    correlator_seeded,
    one_hole_det,
    scalar_product,
    skew_conj_state,
    skew_state,
    validate_npoint_indices,
)


def names(prefix, count, start=1):
    return [f"{prefix}{i}" for i in range(start, start + count)]


def test_hole_state_trivial():
    sv = skew_conj_state(0, [], 2)
    assert sv.dual
    assert sv.terms == {(1, 0, 0): MultiPoly.const(1)}


def test_seed_state_full():
    sv = skew_state(2, [], 1)
    assert sv.terms == {(0, 2): MultiPoly.const(1)}


def test_hole_state_support_and_coefficients():
    for n in (2, 3):
        for m in (1, 2):
            for k in range(0, m + 1):
                sv = skew_conj_state(k, names("v", n - 1, start=2), m)
                coeffs = sv.partition_coefficients()
                assert set(coeffs) == set(psi1_support(k, n, m)), (n, m, k)
                for lam, coeff in coeffs.items():
                    want = weighted_sum_psi1(k, lam, n, m, names("v", n - 1, start=2), "tableaux")
                    assert coeff == want, (n, m, k, lam)


def test_seed_state_support_and_coefficients():
    for n in (2, 3):
        for m in (1, 2):
            for k in range(0, n + 1):
                sv = skew_state(k, names("u", n - k), m)
                coeffs = sv.partition_coefficients()
                assert set(coeffs) == set(psi2_support(k, n, m)), (n, m, k)
                for lam, coeff in coeffs.items():
                    want = weighted_sum_psi2(k, lam, n, m, names("u", n - k), "tableaux")
                    assert coeff == want, (n, m, k, lam)


def test_hole_correlator_anchor():
    got = correlator_one_hole(0, 1, 1, ["u1"], ["v1"], "pairing")
    assert got == MultiPoly.var("u1", -1)


def test_seeded_correlator_k0_is_scalar():
    for n in (1, 2):
        for m in (1, 2):
            un, vn = names("u", n), names("v", n)
            assert correlator_seeded(0, n, m, un, vn, "pairing") == scalar_product(
                n, m, un, vn, "fock_pairing"
            )


@pytest.mark.parametrize("method", ["pairing", "schur_sum"])
def test_correlator_methods_agree(method):
    for n in (1, 2, 3):
        for m in (1, 2):
            un, vn = names("u", n), names("v", n)
            for k in range(0, m + 1):
                assert correlator_one_hole(k, n, m, un, vn, method) == correlator_one_hole(
                    k, n, m, un, vn, "pairing"
                )
            for k in range(0, n + 1):
                assert correlator_seeded(k, n, m, un, vn, method) == correlator_seeded(
                    k, n, m, un, vn, "pairing"
                )


def test_npoint_validation():
    validate_npoint_indices((2, 1, 1), 3, 2)
    validate_npoint_indices((0,), 3, 2)
    with pytest.raises(RangeViolation):
        validate_npoint_indices((1, 2), 3, 2)  # not weakly decreasing
    with pytest.raises(RangeViolation):
        validate_npoint_indices((1, 1, 1, 1), 3, 2)  # too many indices
    with pytest.raises(RangeViolation):
        validate_npoint_indices((3,), 3, 2)  # leading index above M
    with pytest.raises(RangeViolation):
        validate_npoint_indices((2, 2), 3, 2)  # trailing index not 0/1


def test_npoint_one_point_matches_hole_free_family():
    # order 1 n-point with index q equals the seeded expansion coefficient
    # of the scalar product in the last creation variable
    n, m = 2, 2
    un, vn = names("u", n), names("v", n)
    total = scalar_product(n, m, un, vn, "fock_pairing")
    u_last = MultiPoly.var(un[-1])
    for q in range(0, m + 1):
        got = correlator_npoint((q,), n, m, un, vn)
        assert got == total.coeff_of(un[-1], 2 * q - m), q


def test_all_zero_indices_admissible():
    # weakly decreasing all-zero tuples are accepted and consistent
    n, m = 3, 1
    un, vn = names("u", n), names("v", n)
    val = correlator_npoint((0, 0), n, m, un, vn)
    assert not val.is_zero()


def test_one_hole_needs_a_particle():
    # the hole removes v_1, so N = 0 has no correlator to compute
    with pytest.raises(RangeViolation):
        correlator_one_hole(0, 0, 1, [], [])
    with pytest.raises(RangeViolation):
        one_hole_det(0, 0, 1, [], [])
