"""Boxed plane partitions, halves, and the tableau bijections."""

import pytest

from phasetoda.combinatorics import (
    HalfPlanePartition,
    Partition,
    PlanePartitionBox,
    combine_halves,
    enumerate_plane_partitions,
    lower_diagonal,
    macmahon_count,
    partitions_in_box,
    pp_half_to_tableau,
    tableau_to_pp_half,
    upper_diagonal,
)
from phasetoda.errors import ShapeViolation

RUNNING_EXAMPLE = PlanePartitionBox(3, 4, ((3, 1, 1), (3, 1, 1), (2, 1, 1)))


def test_counts_small():
    assert sum(1 for _ in enumerate_plane_partitions(1, 1)) == 2
    assert sum(1 for _ in enumerate_plane_partitions(2, 1)) == 6
    assert macmahon_count(2, 1) == 6


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_counts_match_macmahon(n, m):
    assert sum(1 for _ in enumerate_plane_partitions(n, m)) == macmahon_count(n, m)


def test_running_example_is_valid_member():
    found = any(pp == RUNNING_EXAMPLE for pp in enumerate_plane_partitions(3, 4))
    assert found
    assert RUNNING_EXAMPLE.diagonal() == Partition((3, 1, 1))


def test_invalid_arrays_rejected():
    with pytest.raises(ShapeViolation):
        PlanePartitionBox(2, 1, ((0, 1), (0, 0)))
    with pytest.raises(ShapeViolation):
        PlanePartitionBox(2, 1, ((2, 0), (0, 0)))


def test_half_enumerators_fix_diagonal():
    for lam in partitions_in_box(2, 2):
        for half in upper_diagonal(lam, 2, 2):
            assert half.diagonal() == lam
        for half in lower_diagonal(lam, 2, 2):
            assert half.diagonal() == lam
    with pytest.raises(ShapeViolation):
        list(upper_diagonal(Partition((5,)), 2, 2))


def test_invalid_halves_rejected():
    # not interlacing: the first entry of diagonal 1 lies in [1, 2], and
    # diagonal 2 may not exceed the first entry of diagonal 1
    with pytest.raises(ShapeViolation):
        HalfPlanePartition(3, 2, "upper", ((2, 1, 0), (0, 0), (0,)))
    with pytest.raises(ShapeViolation):
        HalfPlanePartition(3, 2, "lower", ((2, 1, 0), (1, 1), (2,)))
    # ragged: diagonal k holds N - k entries, and there are N diagonals
    with pytest.raises(ShapeViolation):
        HalfPlanePartition(3, 2, "lower", ((2, 1, 0), (1, 0, 0), (0,)))
    with pytest.raises(ShapeViolation):
        HalfPlanePartition(3, 2, "upper", ((2, 1, 0), (1, 0)))


def test_upper_diagonal_order_is_pinned():
    # each diagonal interlaces the one before it, entries largest first
    halves = upper_diagonal(Partition((2, 1)), 3, 2)
    assert [h.diagonals for h in halves] == [
        ((2, 1, 0), (2, 1), (2,)),
        ((2, 1, 0), (2, 1), (1,)),
        ((2, 1, 0), (2, 0), (2,)),
        ((2, 1, 0), (2, 0), (1,)),
        ((2, 1, 0), (2, 0), (0,)),
        ((2, 1, 0), (1, 1), (1,)),
        ((2, 1, 0), (1, 0), (1,)),
        ((2, 1, 0), (1, 0), (0,)),
    ]


def test_box_is_its_two_halves():
    for pp in enumerate_plane_partitions(3, 3):
        assert combine_halves(pp.upper_half(), pp.lower_half()) == pp


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
def test_halves_recombine_to_full_boxes(n, m):
    total = 0
    for lam in partitions_in_box(n, m):
        ups = list(upper_diagonal(lam, n, m))
        los = list(lower_diagonal(lam, n, m))
        total += len(ups) * len(los)
        for up in ups:
            for lo in los:
                full = combine_halves(up, lo)
                assert full.diagonal() == lam
    assert total == macmahon_count(n, m)


def test_running_example_tableaux():
    # upper half layers into the descending filling 311 / 2 / 1,
    # lower half into the ascending filling 112 / 2 / 3
    upper = RUNNING_EXAMPLE.upper_half()
    tab_desc = pp_half_to_tableau(upper)
    assert tab_desc.convention == "descending"
    assert tab_desc.rows == ((3, 1, 1), (2,), (1,))
    lower = RUNNING_EXAMPLE.lower_half()
    tab_asc = pp_half_to_tableau(lower)
    assert tab_asc.convention == "ascending"
    assert tab_asc.rows == ((1, 1, 2), (2,), (3,))


def test_zero_half_gives_empty_tableau():
    from phasetoda.combinatorics import constant_half

    half = constant_half(Partition(()), 2, 3, "upper")
    tab = pp_half_to_tableau(half)
    assert tab.rows == ()


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3)])
def test_half_tableau_round_trip(n, m):
    for lam in partitions_in_box(n, m):
        for half in upper_diagonal(lam, n, m):
            tab = pp_half_to_tableau(half)
            assert tableau_to_pp_half(tab, n, m) == half
        for half in lower_diagonal(lam, n, m):
            tab = pp_half_to_tableau(half)
            assert tableau_to_pp_half(tab, n, m) == half
