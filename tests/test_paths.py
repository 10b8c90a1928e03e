"""Lattice path configurations and their weight statistics."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetoda.combinatorics import (
    LatticePathConfig,
    OccupationSequence,
    Partition,
    PlanePartitionBox,
    enumerate_path_configs,
    macmahon_count,
    occupation_to_partition,
    path_to_pp,
    pp_to_path,
)
from phasetoda.errors import ShapeViolation

RUNNING_EXAMPLE = PlanePartitionBox(3, 4, ((3, 1, 1), (3, 1, 1), (2, 1, 1)))


def test_single_forced_path():
    configs = list(enumerate_path_configs(1, 0))
    assert len(configs) == 1
    assert configs[0].turns == ((0,),)


def test_two_configs_for_one_path_one_row():
    configs = list(enumerate_path_configs(1, 1))
    assert len(configs) == 2
    assert {cfg.turns for cfg in configs} == {((0,),), ((1,),)}


def test_counts_equal_plane_partitions():
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            assert sum(1 for _ in enumerate_path_configs(n, m)) == macmahon_count(n, m)


def test_running_example_round_trip():
    cfg = pp_to_path(RUNNING_EXAMPLE)
    # column j of the array read bottom-to-top is path j's run rows
    assert cfg.turns == ((2, 3, 3), (1, 1, 1), (1, 1, 1))
    assert path_to_pp(cfg) == RUNNING_EXAMPLE
    assert cfg.diagonal() == Partition((3, 1, 1))


def test_exhaustive_round_trip():
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            for cfg in enumerate_path_configs(n, m):
                assert pp_to_path(path_to_pp(cfg)) == cfg


def test_crossing_rejected():
    with pytest.raises(ShapeViolation):
        LatticePathConfig(2, 2, ((0, 0), (1, 1)))
    with pytest.raises(ShapeViolation):
        LatticePathConfig(1, 1, ((1, 0),))


def test_occupation_constraint():
    occ = OccupationSequence((0, 2, 0, 0, 1))
    configs = list(enumerate_path_configs(3, 4, occ))
    lam = Partition((4, 1, 1))
    assert configs and all(cfg.diagonal() == lam for cfg in configs)


def test_column_strictness_no_shared_vertical_edges():
    # the climb intervals of distinct paths on one vertex line are disjoint
    for cfg in enumerate_path_configs(3, 2):
        for x in list(range(-3, 0)) + list(range(1, 4)):
            seen = {}
            n, m = cfg.n, cfg.m
            if x < 0:
                plist = [(p, x + n + 1 - p) for p in range(1, min(n, x + n + 1) + 1)]
            else:
                plist = [(p, x + n - p) for p in range(max(1, x), n + 1)]
            for p, i in plist:
                t = cfg.turns[p - 1]
                if i == 0:
                    edges = set(range(0, t[0] + 1))
                elif i < n:
                    edges = set(range(t[i - 1] + 1, t[i] + 1))
                else:
                    edges = set(range(t[n - 1] + 1, m + 2))
                for e in edges:
                    assert e not in seen, (cfg.turns, x, e)
                    seen[e] = p


def test_letter_weights_single_path():
    # one path, one row: the two configurations weigh u^-1 / u and v / v^-1
    lo = LatticePathConfig(1, 1, ((0,),))
    hi = LatticePathConfig(1, 1, ((1,),))
    assert lo.creation_exponent(1) == -1
    assert hi.creation_exponent(1) == 1
    assert lo.annihilation_exponent(1) == 1
    assert hi.annihilation_exponent(1) == -1


def test_weight_preservation_against_tableaux():
    # per configuration: line letters, diagonal sums, and tableau weights
    # produce the same exponents
    from phasetoda.combinatorics import pp_half_to_tableau

    for n in (1, 2, 3):
        for m in (1, 2):
            for cfg in enumerate_path_configs(n, m):
                pp = path_to_pp(cfg)
                up, lo = pp.upper_half(), pp.lower_half()
                d_up = up.diagonal_sums() + [0]
                d_lo = lo.diagonal_sums() + [0]
                t_desc = pp_half_to_tableau(up).weight(n)
                t_asc = pp_half_to_tableau(lo).weight(n)
                for l in range(1, n + 1):
                    assert cfg.creation_exponent(l) == 2 * (d_up[l - 1] - d_up[l]) - m
                    assert cfg.creation_exponent(l) == 2 * t_desc[l - 1] - m
                    assert cfg.annihilation_exponent(l) == m - 2 * (
                        d_lo[n - l] - d_lo[n + 1 - l]
                    )
                    assert cfg.annihilation_exponent(l) == m - 2 * t_asc[l - 1]


# -- row chains against the cell-by-cell oracle ---------------------------------


def cell_by_cell_path_configs(n, m, diag=None):
    """The turn rows path by path and run by run, each run row descending
    from the least of M and the run above it; diag[p], if given, is the only
    row run N-1-p of path p may take."""
    turns = []

    def rec(p):
        if p == n:
            yield tuple(turns)
            return
        upper = turns[p - 1] if p else None

        def fill(row, i):
            if i == n:
                turns.append(tuple(row))
                yield from rec(p + 1)
                turns.pop()
                return
            hi = m if upper is None else upper[i]
            lo = row[-1] if row else 0
            choices = range(hi, lo - 1, -1)
            if diag is not None and i == n - 1 - p:
                choices = [diag[p]] if lo <= diag[p] <= hi else []
            for v in choices:
                row.append(v)
                yield from fill(row, i + 1)
                row.pop()

        yield from fill([], 0)

    return rec(0)


def occupations(n, m):
    return [c for c in itertools.product(range(n + 1), repeat=m + 1) if sum(c) == n]


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(5))
def test_row_chains_list_the_cell_by_cell_sequence(n, m):
    assert [c.turns for c in enumerate_path_configs(n, m)] == list(cell_by_cell_path_configs(n, m))
    for counts in occupations(n, m):
        occ = OccupationSequence(counts)
        diag = occupation_to_partition(occ).padded(n)
        got = [c.turns for c in enumerate_path_configs(n, m, occ)]
        assert got == list(cell_by_cell_path_configs(n, m, diag)), counts
        assert all(c.diagonal() == occupation_to_partition(occ) for c in enumerate_path_configs(n, m, occ))


def config_fault(n, m, t):
    """The message of the per-entry check of a configuration, or None."""
    if len(t) != n or any(len(row) != n for row in t):
        return "need N paths with N runs each"
    for row in t:
        if any(not (0 <= r <= m) for r in row):
            return "run row outside [0, M]"
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return "run rows must weakly increase"
    for p in range(n - 1):
        if any(t[p][i] < t[p + 1][i] for i in range(n)):
            return "paths cross"
    return None


@st.composite
def near_configs(draw):
    """(n, m, turns): the turn rows of a plane partition (rows sorted, then
    columns) with up to three runs set anywhere in [-1, m + 1]."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.integers(0, m), min_size=n * n, max_size=n * n))
    rows = [sorted(cells[i * n:(i + 1) * n], reverse=True) for i in range(n)]
    array = list(zip(*(sorted(c, reverse=True) for c in zip(*rows))))
    turns = [[array[n - 1 - i][j] for i in range(n)] for j in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        p, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        turns[p][i] = draw(st.integers(-1, m + 1))
    if n and draw(st.integers(0, 9)) == 0:
        turns[-1].pop()
    return n, m, tuple(map(tuple, turns))


@settings(max_examples=300, deadline=None)
@given(near_configs())
@example((0, 0, ()))
@example((1, 0, ((1,),)))
@example((2, 1, ((0, 2), (0, 0))))  # last run of the first path out of range
@example((2, 1, ((-1, 1), (0, 0))))  # first run out of range, then crossing
@example((2, 2, ((1, 0), (2, 2))))  # falls before it crosses
def test_config_check_agrees_with_the_per_entry_check(case):
    n, m, turns = case
    want = config_fault(n, m, turns)
    if want is None:
        LatticePathConfig(n, m, turns)
    else:
        with pytest.raises(ShapeViolation) as exc:
            LatticePathConfig(n, m, turns)
        assert str(exc.value) == want


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(5))
def test_enumerated_configs_pass_the_constructor(n, m):
    """Each configuration the enumerator yields unchecked, unconstrained and
    under every occupation, equals and hashes as its rebuild by the public
    constructor, and its fields stay frozen."""
    constraints = [None] + [OccupationSequence(counts) for counts in occupations(n, m)]
    for occ in constraints:
        for cfg in enumerate_path_configs(n, m, occ):
            rebuilt = LatticePathConfig(cfg.n, cfg.m, cfg.turns)
            assert cfg == rebuilt and hash(cfg) == hash(rebuilt), cfg.turns
            with pytest.raises(dataclasses.FrozenInstanceError):
                cfg.turns = ()


def test_a_deep_box_lists_its_one_configuration_without_recursion():
    (cfg,) = enumerate_path_configs(1000, 0)
    assert cfg.turns == ((0,) * 1000,) * 1000
