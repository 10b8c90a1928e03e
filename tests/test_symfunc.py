"""Symmetric bases, character polynomials, the power-sum substitution."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("convention", sf.CONVENTIONS)
@pytest.mark.parametrize("letters", [0, 1, 3])
def test_h_row_against_monomial_oracle(convention, letters):
    gens = sf.alphabet([f"u{i}" for i in range(1, letters + 1)], convention)
    for kmax in (0, 1, 4):
        row = sf.h_row(kmax, gens)
        assert len(row) == kmax + 1
        assert row == [brute_h(k, gens) for k in range(kmax + 1)], (kmax, row)
    assert sf.h_row(-1, gens) == []


def test_pk():
    gens = sf.alphabet(["u1", "u2"], "plain")
    assert sf.pk(2, gens).subs({"u1": 1, "u2": 2}).constant_value() == 5
    with pytest.raises(ValueError):
        sf.pk(0, gens)


def test_zeta_small():
    x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
    assert sf.zeta_all(0, [x1, x2])[0] == MultiPoly.const(1)
    assert sf.zeta_all(2, [x1, x2])[2] == x2 + Fraction(1, 2) * x1 ** 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)), max_size=5),
       st.integers(0, 8))
@pytest.mark.hypothesis_seeds
def test_constant_zetas_match_the_fraction_recurrence(times, kmax):
    # the integer branch against k zeta_k = sum_j j t_j zeta_{k-j} on Fractions
    want = [Fraction(1)]
    for k in range(1, kmax + 1):
        want.append(sum((j * times[j - 1] * want[k - j] for j in range(1, min(k, len(times)) + 1)),
                        Fraction(0)) / k)
    # equal to the canonical constant, so the representation is canonical too
    assert sf.zeta_all(kmax, [MultiPoly.const(t) for t in times]) == list(map(MultiPoly.const, want))


@pytest.mark.parametrize("k", range(0, 7))
def test_zeta_against_series_oracle(k):
    times = [MultiPoly.var(f"x{j}") for j in range(1, 4)]
    assert sf.zeta_all(k, times)[k] == brute_zeta(k, times)


@pytest.mark.parametrize("n", range(0, 7))
def test_zeta_diff_apply_on_zeta(n):
    # oracle: zeta_k(+grad) zeta_n = zeta_{n-k} and zeta_k(-grad) zeta_n =
    # zeta_n, -zeta_{n-1}, 0 for k = 0, 1, >= 2, from the series of
    # exp(sum (wz)^j / j) = 1 / (1 - wz); k runs past the last name
    names = [f"x{j}" for j in range(1, 7)]
    zeta = [brute_zeta(d, list(map(MultiPoly.var, names))) for d in range(n + 1)]
    zero = MultiPoly.zero()
    for k in range(n + 3):
        assert sf.zeta_diff_apply(k, zeta[n], names, +1) == (zeta[n - k] if k <= n else zero), k
        lowered = {0: zeta[n], 1: -zeta[n - 1] if n else zero}.get(k, zero)
        assert sf.zeta_diff_apply(k, zeta[n], names, -1) == lowered, k


def test_zeta_diff_apply_past_the_names_and_below_zero():
    # names beyond the supplied ones are zero operators
    x1 = MultiPoly.var("x1")
    assert sf.zeta_diff_apply(3, x1 ** 3, ["x1"], 1) == Fraction(1)
    assert sf.zeta_diff_apply(-1, x1, ["x1"], 1).is_zero()
    with pytest.raises(ValueError):
        sf.zeta_diff_apply(1, x1, ["x1"], 2)


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


@pytest.mark.parametrize("convention", sf.CONVENTIONS)
def test_jacobi_trudi_on_a_long_row_equals_tableau_sum(convention):
    # a row longer than any shape needs: the extra entries are never read
    from phasetoda.combinatorics import partitions_in_box

    gens = sf.alphabet(["u1", "u2"], convention)
    h = sf.h_row(7, gens)
    for outer in partitions_in_box(3, 2):
        for inner in partitions_in_box(3, 2):
            if outer.contains(inner):
                shape = SkewShape(outer, inner)
                assert sf.jacobi_trudi(shape, h) == sf.schur(shape, gens, "tableau_sum"), shape
        assert sf.jacobi_trudi(outer, h) == sf.schur(outer, gens, "tableau_sum"), outer


def _tableau_pair_sum(pairs):
    """sum of S_a(A) * S_b(B) over (a, A, b, B), each Schur by tableaux"""
    total = MultiPoly.zero()
    for a, ga, b, gb in pairs:
        total = total + sf.schur(a, ga, "tableau_sum") * sf.schur(b, gb, "tableau_sum")
    return total


@pytest.mark.parametrize("n,m", [(n, m) for n in (0, 1, 2) for m in (0, 1, 2)])
def test_box_sums_equal_per_shape_tableau_route(n, m):
    # each box sum reads every shape from one row per alphabet; the oracle
    # builds every Schur polynomial of the sum from its tableaux
    from phasetoda.combinatorics import column, hook, partitions_in_box, psi1_support, psi2_support
    from phasetoda.phase import correlator_one_hole, correlator_seeded, scalar_product
    from phasetoda.toda import schur_pair_sum

    def monomial(top, bottom):
        # (prod top / prod bottom)^m, written out independently of the package's helper
        return MultiPoly.monomial(1, {**{nm: m for nm in top}, **{nm: -m for nm in bottom}})

    un, vn = [f"u{i}" for i in range(1, n + 1)], [f"v{i}" for i in range(1, n + 1)]
    u2, vm2 = sf.alphabet(un, "squared"), sf.alphabet(vn, "inverse-squared")
    box = _tableau_pair_sum((lam, u2, lam, vm2) for lam in partitions_in_box(n, m))
    assert schur_pair_sum(un, vn, m) == box
    assert scalar_product(n, m, un, vn, "schur_sum") == monomial(vn, un) * box
    if n == 0:
        return
    for k in range(0, m + 1):
        want = _tableau_pair_sum(
            (lam, u2, SkewShape(lam, hook(k)), vm2[1:]) for lam in psi1_support(k, n, m)
        )
        assert correlator_one_hole(k, n, m, un, vn, "schur_sum") == monomial(vn[1:], un) * want, k
    for k in range(0, n + 1):
        want = _tableau_pair_sum(
            (SkewShape(lam, column(k)), u2[: n - k], lam, vm2) for lam in psi2_support(k, n, m)
        )
        want = monomial(vn, un[: n - k]) * want
        assert correlator_seeded(k, n, m, un, vn, "schur_sum") == want, k


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


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_char_poly_equals_explicit_zeta_determinant(extra):
    # oracle: the full rows x rows matrix [zeta_{lam_i - mu_j + j - i}],
    # rows = len(lam) + extra, expanded by cofactors; char_poly and
    # Jacobi-Trudi read only the leading len(lam) x len(lam) block
    from phasetoda.algebra import RingMatrix, det_cofactor
    from phasetoda.combinatorics import column, hook, partitions_in_box

    x = [MultiPoly.var(f"x{j}") for j in range(1, 4)]
    zs = sf.zeta_all(7, x)
    for lam in partitions_in_box(3, 2):
        rows = len(lam.parts) + extra
        inners = {hook(j) for j in range(0, 3)} | {column(j) for j in range(0, 4)}
        for inner in sorted((mu for mu in inners if lam.contains(mu)), key=lambda mu: mu.parts):
            mat = RingMatrix.from_rows(
                [
                    [
                        zs[d] if d >= 0 else MultiPoly.zero()
                        for d in (lam.get(i) - inner.get(j) + j - i for j in range(1, rows + 1))
                    ]
                    for i in range(1, rows + 1)
                ]
            )
            # a skew shape goes to Jacobi-Trudi over the one-row characters
            got = sf.jacobi_trudi(SkewShape(lam, inner), zs) if inner.parts else sf.char_poly(lam, x, rows)
            assert got == det_cofactor(mat), (lam, inner, rows)


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

    def skew_char(lam, inner, times):
        # the character polynomial of lam/inner, over times
        return sf.jacobi_trudi(SkewShape(lam, inner), sf.zeta_all(h, times))

    for lam in partitions_in_box(2, 2):
        chi = sf.char_poly(lam, x, rows)
        for j in range(0, 3):
            lhs = sf.zeta_diff_apply(j, chi, xnames, -1)
            if lam.contains(hook(j)):
                want_row = skew_char(lam, hook(j), x)
            else:
                want_row = MultiPoly.zero()
            # y-side form: identical with times renamed, so check on x
            assert lhs == (MultiPoly.const(-1) ** j) * (
                skew_char(lam, column(j), x)
                if lam.contains(column(j))
                else MultiPoly.zero()
            ), (lam, j, "column strip")
            # row strip: the same operator acting on chi(-x)
            neg = sf.char_poly(lam, sf.negate_times(x), rows)
            got = sf.zeta_diff_apply(j, neg, xnames, -1)
            want = (
                skew_char(lam, hook(j), sf.negate_times(x))
                if lam.contains(hook(j))
                else MultiPoly.zero()
            )
            assert got == want, (lam, j, "row strip")
