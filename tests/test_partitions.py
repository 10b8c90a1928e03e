"""Partitions, boxes, occupation sequences."""

from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetoda.combinatorics import (
    OccupationSequence,
    Partition,
    SkewShape,
    occupation_to_partition,
    partition_to_occupation,
    partitions_in_box,
)
from phasetoda.errors import ShapeViolation


def test_normalization_and_validation():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    with pytest.raises(ShapeViolation):
        Partition((1, 2))
    with pytest.raises(ShapeViolation):
        Partition((-1,))


def test_box_enumeration_examples():
    assert partitions_in_box(0, 5) == [Partition(())]
    assert partitions_in_box(2, 1) == [Partition(()), Partition((1,)), Partition((1, 1))]
    assert Partition((3, 1, 1)) in partitions_in_box(3, 4)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_box_count(n, m):
    assert len(partitions_in_box(n, m)) == comb(n + m, n)


def test_occupation_round_trip():
    occ = OccupationSequence((0, 2, 0, 1, 0))
    lam = occupation_to_partition(occ)
    assert lam == Partition((3, 1, 1))
    back = partition_to_occupation(lam, total=3, site_bound=4)
    assert back == occ


def test_occupation_trivial_cases():
    assert occupation_to_partition(OccupationSequence((3, 0, 0))) == Partition(())
    occ = partition_to_occupation(Partition(()), total=2, site_bound=3)
    assert occ.counts == (2, 0, 0, 0)


def test_occupation_exhaustive_round_trip():
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            for lam in partitions_in_box(n, m):
                occ = partition_to_occupation(lam, n, m)
                assert occ.total == n
                assert occupation_to_partition(occ) == lam


def test_skew_shape_validation():
    SkewShape(Partition((2, 1)), Partition((1,)))
    with pytest.raises(ShapeViolation):
        SkewShape(Partition((1,)), Partition((2,)))


def test_conjugate():
    assert Partition((3, 1, 1)).conjugate() == Partition((3, 1, 1))
    assert Partition((2, 2)).conjugate() == Partition((2, 2))
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))


def partition_verdict(parts):
    """The per-part check: the stored parts, or the message of its fault."""
    parts = tuple(int(p) for p in parts)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return f"not weakly decreasing: {parts}"
    if any(p < 0 for p in parts):
        return f"negative part: {parts}"
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-2, 4), max_size=6),
    st.lists(st.integers(-2, 4), max_size=6).map(lambda ps: sorted(ps, reverse=True)),
))
@example([])
@example([0, 0])
@example([2, -1, -1])
@example([-1, 0])
def test_partition_check_agrees_with_the_per_part_check(parts):
    want = partition_verdict(parts)
    if isinstance(want, tuple):
        assert Partition(parts).parts == want
    else:
        with pytest.raises(ShapeViolation) as exc:
            Partition(parts)
        assert str(exc.value) == want


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("m", range(6))
def test_box_partitions_match_a_filter_of_every_tuple(n, m):
    # every n-tuple over [0, m], kept when it weakly decreases, in increasing order
    tuples = sorted(t for t in product(range(m + 1), repeat=n) if all(a >= b for a, b in zip(t, t[1:])))
    assert [lam.padded(n) for lam in partitions_in_box(n, m)] == tuples


def test_a_deep_box_lists_its_one_partition():
    assert partitions_in_box(990, 0) == [Partition(())]
