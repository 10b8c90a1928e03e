"""Algebraic limits connecting wave entries to boundary correlators."""

import pytest

from phasetoda import cli, suites
from phasetoda.algebra import MultiPoly
from phasetoda.errors import RangeViolation
from phasetoda.phase import correlator_seeded, limit_correspondence, limit_sides
from phasetoda.phase import limits
from phasetoda.toda import restricted_context
from phasetoda.toda.waves import wave_numerator


def names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def test_seed_limit_k0_reduces_to_restricted_tau():
    # at zero seeds the identity is the scalar-product correspondence
    assert limit_correspondence("u_tail_to_zero", 0, 2, 1, names("u", 2), names("v", 2))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_hole_limits(n, m):
    un, vn = names("u", n), names("v", n)
    for k in range(0, m + 1):
        assert limit_correspondence("v1_to_infinity", k, n, m, un, vn), k


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2)])
def test_seed_limits(n, m):
    un, vn = names("u", n), names("v", n)
    for k in range(0, min(n, m) + 1):
        assert limit_correspondence("u_tail_to_zero", k, n, m, un, vn), k


@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2) for m in (1, 2)])
def test_limit_on_alphabet_equals_limit_of_full_minor(n, m):
    # the independent route: the cleared wave entry on the full alphabet,
    # then v1 -> infinity as its v1^0 coefficient and u_tail -> 0 by
    # substitution
    un, vn = names("u", n), names("v", n)
    full = restricted_context(un, vn, m)
    for k in range(0, m + 1):
        cleared = wave_numerator(full, full.m + n - 1, "w_zero", k)
        limit, _ = limit_sides("v1_to_infinity", k, n, m, un, vn)
        assert limit == cleared.coeff_of(vn[0], 0), ("hole", k)
    for k in range(0, min(n, m) + 1):
        cleared = wave_numerator(full, full.m + n, "w_inf", k)
        limit, _ = limit_sides("u_tail_to_zero", k, n, m, un, vn)
        assert limit == cleared.subs({nm: 0 for nm in un[n - k :]}), ("seed", k)


def test_seed_limit_sign_is_essential():
    # dropping the (-1)^k factor breaks the odd-k identity
    n, m, k = 2, 2, 1
    un, vn = names("u", n), names("v", n)
    ctx = restricted_context(un, vn, m)
    s = ctx.m + n
    cleared = wave_numerator(ctx, s, "w_inf", k)
    limit = cleared.subs({nm: 0 for nm in un[n - k:]})
    pref = MultiPoly.monomial(1, {**{nm: m for nm in un[: n - k]}, **{nm: -m for nm in vn}})
    unsigned = pref * correlator_seeded(k, n, m, un, vn, "pairing")
    assert limit == -unsigned
    assert limit != unsigned


def test_limit_range_guards():
    with pytest.raises(RangeViolation):
        limit_correspondence("v1_to_infinity", 3, 2, 2, names("u", 2), names("v", 2))
    with pytest.raises(RangeViolation):
        limit_correspondence("u_tail_to_zero", 1, 2, 0, names("u", 2), names("v", 2))


def test_failing_limit_item_carries_witness(monkeypatch):
    # a wrong one-hole correlator fails every hole item with both sides in
    # its witness and leaves the seed items passing; a 2x1 grid suffices
    right = limits.correlator_one_hole
    monkeypatch.setattr(limits, "correlator_one_hole", lambda *args: right(*args) + 1)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_n", 2)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_m", 1)
    items = suites.run_family("limits", 7)
    holes = [it for it in items if it["identity"] == "hole-limit-correspondence"]
    seeds = [it for it in items if it["identity"] == "seed-limit-correspondence"]
    assert holes and seeds
    assert all(it["pass"] for it in seeds)
    for it in holes:
        assert not it["pass"]
        k = it["parameters"]["k"]
        assert it["witness"].startswith(f"v1_to_infinity k={k}: limit=")
        assert "correlator side=" in it["witness"]


def test_witness_text_is_clipped():
    long = "x" * 1000
    clipped = suites._clip(long)
    assert len(clipped) < 200 and clipped.endswith("(1000 chars)")
    assert suites._clip("short") == "short"


def test_limits_module_keeps_no_results(capsys):
    # a repeat run must not reuse a first run's results: after a run the
    # module holds no mutable container at module level
    assert cli.main(["verify", "limits", "--seed", "7"]) == 0
    capsys.readouterr()
    containers = [
        name for name, value in vars(limits).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    ]
    assert containers == []
