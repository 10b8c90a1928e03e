"""Symmetric bases, character polynomials, the power-sum substitution."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from phasetoda import symfunc as sf
from phasetoda.algebra import MultiPoly
from phasetoda.combinatorics import Partition, SkewShape
from phasetoda.errors import ShapeViolation


def brute_h(k, gens):
    # oracle: sum over all degree-k monomials (k = 0 gives the empty product)
    total = MultiPoly.zero()
    for combo in combinations_with_replacement(gens, k):
        term = MultiPoly.const(1)
        for g in combo:
            term = term * g
        total = total + term
    return total


def brute_zeta(k, times):
    # oracle: multiply out exp(sum z^j t_j) as a truncated series in z
    series = [MultiPoly.const(1)] + [MultiPoly.zero()] * k
    for j, t in enumerate(times, start=1):
        # exp(z^j t) = sum_a z^{ja} t^a / a!
        layer = [MultiPoly.const(1)] + [MultiPoly.zero()] * k
        fact = 1
        power = MultiPoly.const(1)
        for a in range(1, k // j + 1):
            fact *= a
            power = power * t
            layer[j * a] = power * MultiPoly.const(Fraction(1, fact))
        new = [MultiPoly.zero()] * (k + 1)
        for d1 in range(k + 1):
            if series[d1].is_zero():
                continue
            for d2 in range(k + 1 - d1):
                if layer[d2].is_zero():
                    continue
                new[d1 + d2] = new[d1 + d2] + series[d1] * layer[d2]
        series = new
    return series[k]


def test_hk_basics():
    gens = sf.alphabet(["u1", "u2"], "plain")
    assert sf.hk(0, gens) == MultiPoly.const(1)
    assert sf.hk(0, []) == MultiPoly.const(1)
    assert sf.hk(3, []).is_zero()
    assert sf.hk(-1, gens).is_zero()
    u1, u2 = gens
    assert sf.hk(2, gens) == u1 ** 2 + u1 * u2 + u2 ** 2
    for k in range(0, 5):
        assert sf.hk(k, gens) == brute_h(k, gens)


def test_pk():
    gens = sf.alphabet(["u1", "u2"], "plain")
    assert sf.pk(2, gens).subs({"u1": 1, "u2": 2}).constant_value() == 5
    with pytest.raises(ValueError):
        sf.pk(0, gens)


def test_zeta_small():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    assert sf.zeta_all(0, [x1, x2])[0] == MultiPoly.const(1)
    assert sf.zeta_all(2, [x1, x2])[2] == x2 + Fraction(1, 2) * x1 ** 2


@pytest.mark.parametrize("k", range(0, 7))
def test_zeta_against_series_oracle(k):
    times = [MultiPoly.var(f"x{j}") for j in range(1, 4)]
    assert sf.zeta_all(k, times)[k] == brute_zeta(k, times)


def test_zeta_becomes_h_under_power_sums():
    # with x_k = p_k(u^2)/k the character polynomials become h_k(u^2)
    for n in (1, 2, 3):
        names = [f"u{i}" for i in range(1, n + 1)]
        gens = sf.alphabet(names, "squared")
        x, _ = sf.miwa_map(names, names, 6)
        for k in range(0, 7):
            assert sf.zeta_all(k, x)[k] == sf.hk(k, gens), (n, k)


def test_miwa_y_sign():
    names = ["v1", "v2"]
    gens = sf.alphabet(names, "inverse-squared")
    _, y = sf.miwa_map(names, names, 5)
    neg_y = sf.negate_times(y)
    for k in range(0, 6):
        assert sf.zeta_all(k, neg_y)[k] == sf.hk(k, gens)


def test_miwa_single_letter():
    x, _ = sf.miwa_map(["u1"], ["v1"], 3)
    u1 = MultiPoly.var("u1")
    assert x[0] == u1 ** 2
    assert x[1] == Fraction(1, 2) * u1 ** 4
    assert x[2] == Fraction(1, 3) * u1 ** 6


def test_schur_methods_agree_straight_and_skew():
    gens = sf.alphabet(["u1", "u2", "u3"], "plain")
    from phasetoda.combinatorics import partitions_in_box

    for outer in partitions_in_box(3, 3):
        for inner in partitions_in_box(3, 3):
            if not outer.contains(inner):
                continue
            shape = SkewShape(outer, inner)
            assert sf.schur(shape, gens, "jacobi_trudi") == sf.schur(
                shape, gens, "tableau_sum"
            ), shape


def test_schur_examples():
    u1, u2 = sf.alphabet(["u1", "u2"], "plain")
    assert sf.schur(Partition((1,)), [u1, u2]) == u1 + u2
    assert sf.schur(Partition((2, 1)), [u1, u2]) == u1 * u2 * (u1 + u2)
    assert sf.schur(SkewShape(Partition((1, 1)), Partition((1,))), [u1]) == u1
    # straight shape with more rows than letters vanishes
    assert sf.schur(Partition((1, 1)), [u1]).is_zero()


def test_char_poly():
    x = [MultiPoly.var(f"x{j}") for j in range(1, 4)]
    assert sf.char_poly(Partition(()), x, 2) == MultiPoly.const(1)
    assert sf.char_poly(Partition((1,)), x, 1) == x[0]
    with pytest.raises(ShapeViolation):
        sf.char_poly(Partition((1, 1)), x, 1)


def test_char_poly_equals_schur_after_restriction():
    names = ["u1", "u2", "u3"]
    gens = sf.alphabet(names, "squared")
    x, _ = sf.miwa_map(names, names, 6)
    lam = Partition((3, 1, 1))
    assert sf.char_poly(lam, x, 3) == sf.schur(lam, gens)


@pytest.mark.parametrize("p", range(0, 7))
def test_hk_identity(p):
    # row reduction: h_p(B, a) - h_p(B, b) == (a - b) h_{p-1}(B, a, b)
    # over the squared letters a = va^2, b = vb^2
    a, b = MultiPoly.var("va", 2), MultiPoly.var("vb", 2)
    for base_names in ([], ["v2"], ["v2", "v3"]):
        base = sf.alphabet(base_names, "squared")
        lhs = sf.hk(p, base + [a]) - sf.hk(p, base + [b])
        assert lhs == (a - b) * sf.hk(p - 1, base + [a, b])


def test_skew_derivative_identities():
    # applying zeta_j of the scaled negative gradient to a character
    # polynomial strips a row (y side) or a column with a sign (x side)
    from phasetoda.combinatorics import partitions_in_box, hook, column

    h = 4
    xnames = [f"x{j}" for j in range(1, h + 1)]
    x = [MultiPoly.var(nm) for nm in xnames]
    rows = 2
    for lam in partitions_in_box(2, 2):
        chi = sf.char_poly(lam, x, rows)
        for j in range(0, 3):
            lhs = sf.zeta_diff_apply(j, chi, xnames, -1)
            if lam.contains(hook(j)):
                want_row = sf.char_poly(lam, x, rows, inner=hook(j))
            else:
                want_row = MultiPoly.zero()
            # y-side form: identical with times renamed, so check on x
            assert lhs == (MultiPoly.const(-1) ** j) * (
                sf.char_poly(lam, x, rows, inner=column(j))
                if lam.contains(column(j))
                else MultiPoly.zero()
            ), (lam, j, "column strip")
            # row strip: the same operator acting on chi(-x)
            neg = sf.char_poly(lam, sf.negate_times(x), rows)
            got = sf.zeta_diff_apply(j, neg, xnames, -1)
            want = (
                sf.char_poly(lam, sf.negate_times(x), rows, inner=hook(j))
                if lam.contains(hook(j))
                else MultiPoly.zero()
            )
            assert got == want, (lam, j, "row strip")
