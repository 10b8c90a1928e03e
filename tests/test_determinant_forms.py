"""Single-determinant correlator forms, stacks, and recursions."""

import itertools

import pytest

from phasetoda.algebra import MultiPoly
from phasetoda.phase import (
    correlator_npoint,
    correlator_one_hole,
    correlator_seeded,
    npoint_det,
    one_hole_det,
    one_hole_stack_check,
    one_point_stack_check,
    recursion_expand_check,
    recursion_sides,
    scalar_product,
    single_det_form,
    stack_sides,
)


def names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def test_one_hole_det_anchor():
    # single creation letter, hole at the bottom row
    assert one_hole_det(0, 1, 1, ["u1"], ["v1"]) == MultiPoly.var("u1", -1)


def test_one_point_det_anchor():
    # the order-1 determinant family pairs the conjugate with a seeded ket
    assert npoint_det((0,), 1, 1, ["u1"], ["v1"]) == MultiPoly.var("v1")
    assert npoint_det((0,), 1, 1, ["u1"], ["v1"]) == correlator_npoint(
        (0,), 1, 1, ["u1"], ["v1"]
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_one_hole_det_matches_pairing(n, m):
    un, vn = names("u", n), names("v", n)
    for q in range(0, m + 1):
        assert one_hole_det(q, n, m, un, vn) == correlator_one_hole(
            q, n, m, un, vn, "pairing"
        ), q


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_npoint_det_matches_pairing(n, m):
    un, vn = names("u", n), names("v", n)
    for order in range(1, n + 1):
        for r1 in range(0, m + 1):
            for tail in itertools.product((0, 1), repeat=order - 1):
                rs = (r1,) + tail
                if any(rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
                    continue
                assert npoint_det(rs, n, m, un, vn) == correlator_npoint(
                    rs, n, m, un, vn
                ), rs


def test_two_point_dispatch():
    un, vn = names("u", 3), names("v", 3)
    assert single_det_form("two_point", 3, 2, un, vn, k=2) == correlator_npoint(
        (2, 1), 3, 2, un, vn
    )
    assert single_det_form("one_point", 3, 2, un, vn, k=1) == correlator_npoint(
        (1,), 3, 2, un, vn
    )
    assert single_det_form("one_hole", 3, 2, un, vn, k=1) == correlator_one_hole(
        1, 3, 2, un, vn, "pairing"
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_stacks(n, m):
    un, vn = names("u", n), names("v", n)
    assert one_hole_stack_check(n, m, un, vn)
    assert one_point_stack_check(n, m, un, vn)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_recursions(n, m):
    un, vn = names("u", n), names("v", n)
    for order in range(1, n):
        for q in range(0, order + 1):
            rs = (1,) * (order - q) + (0,) * q
            assert recursion_expand_check(rs, n, m, un, vn), (order, q)


# every phase entry point that takes N creation and N annihilation values,
# at N = 2, M = 1
LETTER_ENTRY_POINTS = {
    "scalar_product": lambda us, vs: scalar_product(2, 1, us, vs),
    "one_hole_det": lambda us, vs: one_hole_det(0, 2, 1, us, vs),
    "npoint_det": lambda us, vs: npoint_det((0,), 2, 1, us, vs),
    "hole stack_sides": lambda us, vs: stack_sides("hole", 2, 1, us, vs),
    "point stack_sides": lambda us, vs: stack_sides("point", 2, 1, us, vs),
    "recursion_sides": lambda us, vs: list(recursion_sides((0,), 2, 1, us, vs)),
    "correlator_one_hole": lambda us, vs: correlator_one_hole(0, 2, 1, us, vs),
    "correlator_seeded": lambda us, vs: correlator_seeded(1, 2, 1, us, vs),
    "correlator_npoint": lambda us, vs: correlator_npoint((0,), 2, 1, us, vs),
}


@pytest.mark.parametrize("us, vs", [(names("u", 3), names("v", 2)), (names("u", 2), names("v", 1))])
@pytest.mark.parametrize("entry", sorted(LETTER_ENTRY_POINTS))
def test_wrong_letter_count_is_a_value_error(entry, us, vs):
    with pytest.raises(ValueError, match="need N creation and N annihilation values"):
        LETTER_ENTRY_POINTS[entry](us, vs)
