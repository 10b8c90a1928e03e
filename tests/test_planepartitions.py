"""Boxed plane partitions, halves, and the tableau bijections."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

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


# -- row chains against the cell-by-cell oracles -------------------------------


def cell_by_cell_plane_partitions(n, m):
    """The arrays of the box one cell at a time, row-major, each entry
    descending from the least of M, its left and its upper neighbour."""
    grid = [[0] * n for _ in range(n)]

    def rec(pos):
        if pos == n * n:
            yield tuple(tuple(r) for r in grid)
            return
        i, j = divmod(pos, n)
        hi = min([m] + ([grid[i - 1][j]] if i else []) + ([grid[i][j - 1]] if j else []))
        for v in range(hi, -1, -1):
            grid[i][j] = v
            yield from rec(pos + 1)
        grid[i][j] = 0

    return rec(0)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(5))
def test_row_chains_list_the_cell_by_cell_sequence(n, m):
    assert [pp.array for pp in enumerate_plane_partitions(n, m)] == list(
        cell_by_cell_plane_partitions(n, m)
    )


def box_fault(n, m, a):
    """The message of the per-cell check: the first faulty cell, row-major,
    tried for range, then its row, then its column; None if sound."""
    if len(a) != n or any(len(row) != n for row in a):
        return "array is not N x N"
    for i in range(n):
        for j in range(n):
            v = a[i][j]
            if not (0 <= v <= m):
                return f"entry {v} outside [0, {m}]"
            if j + 1 < n and v < a[i][j + 1]:
                return "rows must weakly decrease"
            if i + 1 < n and v < a[i + 1][j]:
                return "columns must weakly decrease"
    return None


def half_fault(n, m, diagonals):
    """The message of the per-entry check of a half, or None."""
    if len(diagonals) != n or any(len(d) != n - k for k, d in enumerate(diagonals)):
        return "ragged half"
    if any(not (0 <= v <= m) for d in diagonals for v in d):
        return "entry outside box"
    for prev, cur in zip(diagonals, diagonals[1:]):
        if any(not (prev[i + 1] <= v <= prev[i]) for i, v in enumerate(cur)):
            return "diagonals must interlace"
    return None


def assert_same_verdict(make, want):
    if want is None:
        make()
    else:
        with pytest.raises(ShapeViolation) as exc:
            make()
        assert str(exc.value) == want


@st.composite
def near_boxes(draw, n_max=4):
    """(n, m, array): a plane partition (rows sorted, then columns) with up
    to three cells set anywhere in [-1, m + 1], corners included."""
    n, m = draw(st.integers(0, n_max)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.integers(0, m), min_size=n * n, max_size=n * n))
    rows = [sorted(cells[i * n:(i + 1) * n], reverse=True) for i in range(n)]
    array = [list(r) for r in zip(*(sorted(c, reverse=True) for c in zip(*rows)))]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        array[i][j] = draw(st.integers(-1, m + 1))
    return n, m, tuple(map(tuple, array))


@settings(max_examples=300, deadline=None)
@given(near_boxes(), st.integers(0, 9))
@example((0, 0, ()), 1)
@example((1, 0, ((1,),)), 1)
@example((2, 1, ((2, 1), (1, 0))), 1)  # top corner out of range
@example((2, 1, ((1, -1), (0, -2))), 1)  # the first negative cell is named
@example((2, 1, ((1, 0), (1, -1))), 1)  # bottom corner out of range
@example((2, 2, ((2, 0), (0, 3))), 1)  # a column fault before a range fault
def test_box_check_agrees_with_the_cell_by_cell_check(case, ragged):
    n, m, array = case
    if ragged == 0 and n:
        array = array[:-1] + (array[-1][:-1],)
    assert_same_verdict(lambda: PlanePartitionBox(n, m, array), box_fault(n, m, array))


@settings(max_examples=300, deadline=None)
@given(near_boxes(), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-1, 4)), max_size=3))
@example((2, 2, ((2, 0), (0, 0))), [(0, 1, 1)])  # main diagonal (2, 1) -> (2, 0) is fine
@example((2, 1, ((0, 0), (0, 0))), [(0, 1, 1)])  # main diagonal (0, 1) rises
@example((3, 2, ((2, 2, 2), (2, 2, 2), (2, 2, 2))), [(0, 1, 0), (0, 2, 3)])
def test_half_check_agrees_with_the_per_entry_check(case, edits):
    n, m, array = case
    diagonals = [[array[i][i + k] for i in range(n - k)] for k in range(n)]
    for k, i, v in edits:
        if n:
            d = diagonals[k % n]
            d[i % len(d)] = v
    diagonals = tuple(map(tuple, diagonals))
    assert_same_verdict(
        lambda: HalfPlanePartition(n, m, "upper", diagonals), half_fault(n, m, diagonals)
    )


def test_half_with_a_rising_main_diagonal_names_the_interlacing():
    with pytest.raises(ShapeViolation, match="diagonals must interlace"):
        HalfPlanePartition(2, 2, "lower", ((0, 1), (1,)))
    with pytest.raises(ShapeViolation, match="diagonals must interlace"):
        HalfPlanePartition(3, 2, "upper", ((1, 2, 0), (1, 0), (0,)))


# -- what the enumerators yield unchecked against the public constructors ------


def assert_rebuilds(obj):
    """obj equals, and hashes as, its rebuild by the public constructor, which
    checks every invariant; its fields stay frozen."""
    fields = dataclasses.fields(obj)
    rebuilt = type(obj)(**{f.name: getattr(obj, f.name) for f in fields})
    assert obj == rebuilt and hash(obj) == hash(rebuilt), obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, fields[-1].name, ())


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(5))
def test_enumerated_boxes_and_halves_pass_the_constructor(n, m):
    for pp in enumerate_plane_partitions(n, m):
        assert_rebuilds(pp)
    for lam in partitions_in_box(n, m):
        for half in (*upper_diagonal(lam, n, m), *lower_diagonal(lam, n, m)):
            assert_rebuilds(half)


def test_macmahon_count_matches_the_product_over_the_base_cells():
    for n in range(9):
        for m in range(9):
            num = den = 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    num *= i + j + m - 1
                    den *= i + j - 1
            assert macmahon_count(n, m) == num // den, (n, m)


@pytest.mark.parametrize("n, m", [(6, 6), (4, 4), (2, 9), (9, 2)])
def test_a_stopped_macmahon_count_is_a_bound_past_its_stop(n, m):
    count = macmahon_count(n, m)
    assert macmahon_count(n, m, stop=count) == count
    assert count >= macmahon_count(n, m, stop=count // 7) > count // 7
    assert macmahon_count(1000, 1000, stop=10 ** 600) > 10 ** 600


def test_deep_boxes_and_halves_list_without_recursion():
    zero = Partition(())
    (box,) = enumerate_plane_partitions(1000, 0)
    assert box.array == ((0,) * 1000,) * 1000
    for half in (upper_diagonal, lower_diagonal):
        (h,) = half(zero, 1000, 0)
        assert h.diagonals == tuple((0,) * (1000 - k) for k in range(1000))
