"""Power-sum restriction of tau and the trivial-solution pin."""

from phasetoda.algebra import MultiPoly
from phasetoda.phase import scalar_product
from phasetoda.toda import (
    power_sum_sides,
    restrict_tau,
    schur_pair_sum,
)


def test_restrict_trivial():
    assert restrict_tau([], [], 0) == MultiPoly.const(1)
    assert restrict_tau([], [], 3) == MultiPoly.const(1)


def test_restrict_single_particle():
    u, v = MultiPoly.var("u1"), MultiPoly.var("v1")
    got = restrict_tau(["u1"], ["v1"], 1)
    assert got == 1 + u ** 2 * v ** -2


def test_restrict_equals_pair_sum():
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            un = [f"u{i}" for i in range(1, n + 1)]
            vn = [f"v{i}" for i in range(1, n + 1)]
            assert restrict_tau(un, vn, m) == schur_pair_sum(un, vn, m), (n, m)


def test_restrict_matches_scalar_product():
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            un = [f"u{i}" for i in range(1, n + 1)]
            vn = [f"v{i}" for i in range(1, n + 1)]
            pref = MultiPoly.const(1)
            for a, b in zip(vn, un):
                pref = pref * MultiPoly.var(a) * MultiPoly.var(b, -1)
            lhs = (pref ** m) * restrict_tau(un, vn, m)
            assert lhs == scalar_product(n, m, un, vn, "fock_pairing"), (n, m)


def test_append_zeros():
    for names, zeros, horizon in ((["m1"], 1, 3), (["m1", "m2"], 2, 6), (["m2", "m1"], 3, 4)):
        sides = list(power_sum_sides(names, zeros, horizon))
        assert len(sides) == horizon
        assert all(lhs == rhs for _, lhs, rhs in sides)
