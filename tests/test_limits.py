"""Algebraic limits connecting wave entries to boundary correlators."""

import pytest

from phasetoda.errors import RangeViolation
from phasetoda.algebra import as_poly
from phasetoda.phase import correlator_seeded, limit_correspondence, prefactor
from phasetoda.phase.limits import _memo_context
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


def test_seed_limit_sign_is_essential():
    # dropping the (-1)^k factor breaks the odd-k identity
    n, m, k = 2, 2, 1
    un, vn = names("u", n), names("v", n)
    ctx = _memo_context(un, vn, m)
    s = ctx.m + n
    cleared = wave_numerator(ctx, s, "w_inf", k)
    limit = cleared.subs({nm: 0 for nm in un[n - k:]})
    us, vs = list(map(as_poly, un)), list(map(as_poly, vn))
    pref = prefactor(us[: n - k]) * prefactor(vs).monomial_inverse()
    unsigned = (pref ** m) * correlator_seeded(k, n, m, un, vn, "pairing")
    assert limit == -unsigned
    assert limit != unsigned


def test_limit_range_guards():
    with pytest.raises(RangeViolation):
        limit_correspondence("v1_to_infinity", 3, 2, 2, names("u", 2), names("v", 2))
    with pytest.raises(RangeViolation):
        limit_correspondence("u_tail_to_zero", 1, 2, 0, names("u", 2), names("v", 2))
