"""Lattice path configurations and their weight statistics."""

import pytest

from phasetoda.combinatorics import (
    LatticePathConfig,
    OccupationSequence,
    Partition,
    PlanePartitionBox,
    enumerate_path_configs,
    macmahon_count,
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
