"""Wave entries, derivative identities, shifted tau, bilinear residues."""

from fractions import Fraction

import pytest

from phasetoda.algebra import MultiPoly, RingMatrix, reduce_pair
from phasetoda.errors import DegenerateDenominator, RangeViolation
from phasetoda.toda import (
    SHIFT_KINDS,
    TauContext,
    WAVE_KINDS,
    bilinear_check,
    h20_expected_coefficients,
    shifted_tau,
    tau,
    verify_prop1,
    wave_k_max,
    wave_numerator,
)


@pytest.fixture(scope="module")
def ctx3():
    return TauContext.generic(0, 3, seed=7)


def test_unit_and_zero_entries(ctx3):
    # unit diagonal entries: the numerator equals its tau denominator
    assert wave_numerator(ctx3, 1, "w_inf", 0) == tau(ctx3, 1)
    assert wave_numerator(ctx3, 2, "w_star_inf", 0) == tau(ctx3, 3)
    assert wave_numerator(ctx3, 1, "w_zero", -2).is_zero()


def test_wave_entry_ranges(ctx3):
    with pytest.raises(RangeViolation):
        wave_numerator(ctx3, 1, "w_inf", 2)
    with pytest.raises(RangeViolation):
        wave_numerator(ctx3, 2, "w_zero", 1)
    with pytest.raises(RangeViolation):
        wave_numerator(ctx3, 3, "w_inf", 0)


def test_wave_k_max_and_its_errors(ctx3):
    assert [wave_k_max(ctx3, 1, kind) for kind in WAVE_KINDS] == [1, 1, 1, 1]
    assert [wave_k_max(ctx3, 2, kind) for kind in WAVE_KINDS] == [2, 0, 0, 2]
    with pytest.raises(ValueError):
        wave_k_max(ctx3, 1, "w_one")
    with pytest.raises(ValueError):
        wave_numerator(ctx3, 1, "w_one", -1)
    with pytest.raises(RangeViolation):
        wave_k_max(ctx3, 3, "w_inf")
    with pytest.raises(ValueError):
        h20_expected_coefficients(ctx3, 1, "z_minus")


@pytest.mark.parametrize("size", [2, 3, 4])
def test_starred_entries_are_the_transposed_context_entries(size):
    # the dressed matrix exp(x.raise) A exp(-y.lower), transposed, is the
    # one of A^T with times (-y, -x); its unstarred entries are the starred
    # ones of the original context
    ctx = TauContext.generic(0, size, seed=41 + size)
    at = RingMatrix.from_rows([[ctx.a[j, i] for j in range(size)] for i in range(size)])
    flipped = TauContext(0, size, at, tuple(-t for t in ctx.y), tuple(-t for t in ctx.x))
    for s in range(size):
        for kind, star in (("w_inf", "w_star_zero"), ("w_zero", "w_star_inf")):
            for k in range(wave_k_max(ctx, s, kind) + 1):
                assert wave_numerator(flipped, s, kind, k) == wave_numerator(ctx, s, star, k)


def test_wave_zero_diagonal_entry_not_constant(ctx3):
    num, den = reduce_pair(wave_numerator(ctx3, 1, "w_zero", 0), tau(ctx3, 1))
    assert not (num.is_constant() and den.is_constant())


def test_first_minor_entry_shape(ctx3):
    # k = 1 at s = m+2: sign times the minor with the second row omitted
    num = wave_numerator(ctx3, 2, "w_inf", 1)
    assert num == -ctx3.minor([0, 2], [0, 1])


@pytest.mark.parametrize("size", [2, 3, 4])
def test_prop1_all_relations(size):
    ctx = TauContext.generic(0, size, seed=40 + size)
    for s in range(1, size):
        for kind in WAVE_KINDS:
            kmax = s if kind in ("w_inf", "w_star_zero") else size - s - 1
            for k in range(0, kmax + 1):
                assert verify_prop1(ctx, s, k, kind), (size, s, kind, k)


def test_prop1_k0_trivial(ctx3):
    assert verify_prop1(ctx3, 1, 0, "w_inf")


def test_shifted_tau_at_lam_zero(ctx3):
    for s in range(0, 4):
        for which in SHIFT_KINDS:
            st = shifted_tau(ctx3, s, which)
            assert st.coeff_of("lam", 0) == tau(ctx3, s)


@pytest.mark.parametrize("size", [2, 3])
def test_shifted_tau_reproduces_wave_sums(size):
    ctx = TauContext.generic(0, size, seed=50 + size)
    for which in SHIFT_KINDS:
        lo = 1 if which in ("x_plus", "y_minus") else 0
        hi = size - 1 if which in ("x_minus", "y_plus") else size
        for s in range(lo, hi + 1):
            st = shifted_tau(ctx, s, which)
            want = h20_expected_coefficients(ctx, s, which)
            got = [st.coeff_of("lam", k) for k in range(len(want))]
            assert got == want, (size, which, s)
            assert st.degree_in("lam") <= len(want) - 1


def test_shifted_tau_degree_bound(ctx3):
    for s in range(0, 3):
        assert shifted_tau(ctx3, s, "x_minus").degree_in("lam") <= s


def test_bilinear_same_site_and_generic():
    ctx = TauContext.generic(0, 3, seed=5)
    x = [Fraction(1, 2), Fraction(-1, 3)]
    y = [Fraction(2, 3), Fraction(1, 5)]
    assert bilinear_check(ctx, 1, 1, x, x, y, y)
    xp = [Fraction(-1), Fraction(2)]
    yp = [Fraction(1, 7), Fraction(0)]
    for s in range(0, 3):
        for sp in range(1, 4):
            assert bilinear_check(ctx, s, sp, x, xp, y, yp), (s, sp)


def test_bilinear_unipotent_point():
    ctx = TauContext.symbolic(0, 3, RingMatrix.identity(3))
    zeros = [Fraction(0), Fraction(0)]
    assert bilinear_check(ctx, 1, 2, zeros, zeros, zeros, zeros)


def test_bilinear_degenerate_denominator():
    # constant matrix with vanishing leading minor at the origin
    from phasetoda.algebra import RingMatrix

    mat = RingMatrix.from_rows([[0, 1], [1, 0]])
    ctx = TauContext.symbolic(0, 2, mat)
    zeros = [Fraction(0)]
    with pytest.raises(DegenerateDenominator):
        bilinear_check(ctx, 1, 1, zeros, zeros, zeros, zeros)


def _bilinear_item(monkeypatch, check):
    # the suite's bilinear item with the check replaced; the context is unused
    import random

    from phasetoda import suites

    monkeypatch.setattr(suites, "bilinear_check", check)
    return suites._bilinear_residues(None, 4, random.Random(0))


def test_bilinear_item_bounds_degenerate_draws(monkeypatch):
    def always_degenerate(*args):
        raise DegenerateDenominator("tau vanishes at the evaluation point")

    item = _bilinear_item(monkeypatch, always_degenerate)
    assert item["pass"] is False
    assert item["parameters"]["tuples"] == 0
    assert item["witness"] == "0 of 50 tuples checked: 256 evaluations hit a vanishing tau in 16 draws"


def test_bilinear_item_propagates_other_errors(monkeypatch):
    def broken(*args):
        raise RangeViolation("bug")

    with pytest.raises(RangeViolation):
        _bilinear_item(monkeypatch, broken)


def test_bilinear_item_witness_on_false(monkeypatch):
    item = _bilinear_item(monkeypatch, lambda ctx, s, sp, *point: (s, sp) != (1, 2))
    assert item["pass"] is False
    assert item["parameters"]["tuples"] == 50
    assert item["witness"].startswith("fails at s=1, s'=2, x;x';y;y' = ")


def test_bilinear_depends_on_shifted_tau(monkeypatch):
    # a wrong x_plus tau must break the identity: the residues are not vacuous
    from phasetoda.toda import waves

    ctx = TauContext.generic(0, 3, seed=5)
    x, xp = [Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1), Fraction(2)]
    y, yp = [Fraction(2, 3), Fraction(1, 5)], [Fraction(1, 7), Fraction(0)]
    assert bilinear_check(ctx, 1, 2, x, xp, y, yp)
    shifted = waves.shifted_tau

    def perturbed(c, s, which):
        st = shifted(c, s, which)
        return st * (1 + MultiPoly.var("lam")) if which == "x_plus" else st

    monkeypatch.setattr(waves, "shifted_tau", perturbed)
    assert not bilinear_check(ctx, 1, 2, x, xp, y, yp)
