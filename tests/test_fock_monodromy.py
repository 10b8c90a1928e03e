"""Local operators, monodromy corners, state vectors, intertwining."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetoda import suites
from phasetoda.algebra import MultiPoly, as_poly, multipoly
from phasetoda.errors import NotDivisible, PoleViolation
from phasetoda.phase import monodromy
from phasetoda.phase import (
    StateVector,
    apply_local_L,
    build_conj_state,
    build_state,
    pair,
    vacuum,
    verify_rtt,
)
from test_mutants import transfer_a_step_scaled_by_u

u = MultiPoly.var("u1")
v = MultiPoly.var("v1")


def test_local_actions_on_vacuum():
    for j in (0, 1):
        created = apply_local_L(j, "b", u, vacuum(1))
        occ = [0, 0]
        occ[j] = 1
        assert created.terms == {tuple(occ): MultiPoly.const(1)}
        assert apply_local_L(j, "c", u, vacuum(1)).is_zero()
    scaled = apply_local_L(0, "a", u, vacuum(1))
    assert scaled.terms == {(0, 0): u.monomial_inverse()}
    scaled = apply_local_L(0, "d", u, vacuum(1))
    assert scaled.terms == {(0, 0): u}


def corner_by_grown_states(entry, w, sv):
    """Corner ``entry`` at w applied to sv, by linearity: the sum over the
    occupations of sv of each coefficient times the basis vector at that
    occupation grown by the corner."""
    out = StateVector(sv.m, {}, sv.dual)
    for occ, coeff in sv.terms.items():
        sites = [r for r, k in enumerate(occ) for _ in range(k)]
        out = out + monodromy.grow_state(entry, [w], sv.m, sites, sv.dual).scale(coeff)
    return out


def test_creation_corner_m1():
    sv = monodromy.grow_state("B", [u], 1)
    assert sv.terms == {(1, 0): u.monomial_inverse(), (0, 1): u}


def test_annihilation_corner_kills_vacuum():
    assert monodromy.grow_state("C", [u], 2).is_zero()


def test_occupation_grading():
    for m in (1, 2):
        state = build_state([f"u{i}" for i in (1, 2)], m)
        raised = corner_by_grown_states("B", MultiPoly.var("w"), state)
        assert {sum(occ) for occ in raised.terms} == {3}
        lowered = corner_by_grown_states("C", MultiPoly.var("w"), state)
        assert {sum(occ) for occ in lowered.terms} == {1}
        for entry in ("A", "D"):
            kept = corner_by_grown_states(entry, MultiPoly.var("w"), state)
            assert {sum(occ) for occ in kept.terms} <= {2}


def test_bra_actions_mirror():
    bra = vacuum(1, dual=True)
    # acting with the annihilation entry on a bra creates occupation
    grown = apply_local_L(0, "c", v, bra)
    assert grown.terms == {(1, 0): MultiPoly.const(1)}
    assert apply_local_L(0, "b", v, bra).is_zero()


def test_conjugate_state_m1():
    bra = build_conj_state([v], 1)
    assert bra.dual
    assert bra.terms == {(1, 0): v, (0, 1): v.monomial_inverse()}


def test_pairing_desk_anchor():
    sv = build_state([u], 1)
    bra = build_conj_state([v], 1)
    got = pair(bra, sv)
    assert got == v * u.monomial_inverse() + u * v.monomial_inverse()


def test_pair_adds_its_products_in_one_merge(monkeypatch):
    # a running sum would call the binary add once per matching state
    kets = build_state(["u1", "u2"], 3)
    bra = build_conj_state(["v1", "v2"], 3)
    assert len(kets.terms) > 3
    want = MultiPoly.zero()
    for occ, coeff in bra.terms.items():
        want = want + coeff * kets.terms[occ]

    def refuse(*args):
        raise AssertionError("binary add called")

    monkeypatch.setattr(multipoly, "_combine", refuse)
    assert pair(bra, kets) == want


def test_pair_requires_bra_ket():
    with pytest.raises(ValueError):
        pair(build_state([u], 1), build_state([u], 1))


def test_rtt_examples():
    assert verify_rtt(Fraction(2), Fraction(1), 0, 2)
    assert verify_rtt(Fraction(3), Fraction(2), 1, 2)
    with pytest.raises(PoleViolation):
        verify_rtt(Fraction(1), Fraction(1), 1, 1)
    with pytest.raises(PoleViolation):
        verify_rtt(Fraction(-2), Fraction(2), 1, 1)


def test_rtt_basis_is_every_occupation_up_to_the_cap(monkeypatch):
    # the kets verify_rtt starts from, read off its partition-to-occupation
    # calls, against a brute-force enumeration of occupation tuples; sorted,
    # so that a repeated ket would show too
    real = monodromy.partition_to_occupation
    for m in range(4):
        for cap in range(4):
            seen = []

            def spy(lam, total, site_bound):
                occ = real(lam, total, site_bound)
                seen.append(occ.counts)
                return occ

            monkeypatch.setattr(monodromy, "partition_to_occupation", spy)
            assert verify_rtt(Fraction(3), Fraction(2), m, cap)
            want = [occ for occ in itertools.product(range(cap + 1), repeat=m + 1) if sum(occ) <= cap]
            assert sorted(seen) == want, (m, cap)


def test_rtt_seeded_pairs():
    import random

    rng = random.Random(2024)
    for m in (0, 1, 2):
        for _ in range(3):
            while True:
                a = Fraction(rng.randint(1, 8), rng.randint(1, 3))
                b = Fraction(rng.randint(1, 8), rng.randint(1, 3))
                if a * a != b * b:
                    break
            assert verify_rtt(a, b, m, 2)


def full_product(w, sv):
    """The whole 2x2 operator product applied to sv, built site by site:
    (L_j .. L_0) sv over sites 0..M for a ket, sv (L_M .. L_j) over sites
    M..0 for a bra, as a 2x2 list of state vectors."""
    name = (("a", "b"), ("c", "d"))
    mat = None
    for j in range(sv.m, -1, -1) if sv.dual else range(sv.m + 1):
        def L(e, vec):
            return apply_local_L(j, e, w, vec)

        if mat is None:
            mat = [[L(name[x][y], sv) for y in (0, 1)] for x in (0, 1)]
        elif sv.dual:
            mat = [[L(name[0][y], mat[x][0]) + L(name[1][y], mat[x][1]) for y in (0, 1)]
                   for x in (0, 1)]
        else:
            mat = [[L(name[x][0], mat[0][y]) + L(name[x][1], mat[1][y]) for y in (0, 1)]
                   for x in (0, 1)]
    return mat


def corner_by_full_product(entry, w, sv):
    """The corner read off the whole 2x2 operator product."""
    x, y = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}[entry]
    return full_product(w, sv)[x][y]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_corners_equal_full_product(m):
    w = MultiPoly.var("w")
    states = [vacuum(m), build_state(["u1"], m), build_state(["u1", "u2"], m)]
    states += [vacuum(m, dual=True), build_conj_state(["v1"], m), build_conj_state(["v1", "v2"], m)]
    for sv in states:
        for entry in "ABCD":
            want = corner_by_full_product(entry, w, sv)
            assert corner_by_grown_states(entry, w, sv) == want, (sv, entry)


nonzero = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))
# a constant, or a sum of one or two rational multiples of w^i x^k; w is also
# the symbolic spectral value, so that sums in the sweep can cancel
coefficients = nonzero.map(MultiPoly.const) | st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 2)), nonzero, min_size=1, max_size=2
).map(lambda terms: MultiPoly(("w", "x"), terms))
spectral = nonzero | st.builds(
    lambda c, e: MultiPoly(("w",), {(e,): c}), nonzero, st.sampled_from([-1, 1, 2])
)


@st.composite
def states(draw):
    """A ket or a bra at M <= 4 over up to four occupation states with at
    most two quanta per site."""
    m = draw(st.integers(0, 4))
    occupations = st.tuples(*[st.integers(0, 2) for _ in range(m + 1)])
    return StateVector(m, draw(st.dictionaries(occupations, coefficients, max_size=4)),
                       draw(st.booleans()))


def _const_state(m, terms, dual=False):
    return StateVector(m, {occ: MultiPoly.const(c) for occ, c in terms.items()}, dual)


@settings(max_examples=80, deadline=None)
@given(states(), spectral)
# at u = 1 the A and C corners cancel u^-2 * (-1) + 1 at (0, 1) on site 1
@example(StateVector(1, {(1, 0): MultiPoly.const(1), (0, 1): MultiPoly.const(-1)}), Fraction(1))
# at a rational u each basis vector of an all-constant ket or bra grows on
# integers: at a negative u with M + 1 odd the sign of (pq)^(M+1) goes into
# the numerators, M = 0 included
@example(_const_state(2, {(1, 0, 1): Fraction(-2, 3), (0, 2, 0): 3}), Fraction(-3, 2))
@example(_const_state(2, {(0, 1, 1): Fraction(1, 2)}, dual=True), Fraction(-1, 3))
@example(_const_state(1, {(1, 0): 1, (0, 1): Fraction(-3, 4)}, dual=True), Fraction(-2, 3))
@example(_const_state(3, {(0, 1, 0, 1): 2, (1, 0, 0, 0): Fraction(-1, 4)}), Fraction(2, 3))
@example(_const_state(0, {(2,): Fraction(1, 2)}), Fraction(-2, 3))
@example(_const_state(0, {(1,): -1}, dual=True), Fraction(3, 2))
@pytest.mark.hypothesis_seeds
def test_corners_equal_full_product_on_random_states(sv, w):
    for entry in "ABCD":
        assert corner_by_grown_states(entry, w, sv) == corner_by_full_product(entry, w, sv), entry


@st.composite
def grown(draw):
    """Up to three values, each rational or w, at M <= 3 on a ket or a bra
    from up to two quanta, with one corner."""
    m = draw(st.integers(0, 3))
    return (draw(st.lists(nonzero | st.just(MultiPoly.var("w")), max_size=3)), m, draw(st.booleans()),
            draw(st.lists(st.integers(0, m), max_size=2)), draw(st.sampled_from("ABCD")))


@settings(max_examples=40, deadline=None)
@given(grown())
# a mixed list runs on MultiPolys throughout, its rational values included
@example(([Fraction(2, 3), MultiPoly.var("w"), Fraction(-3, 2)], 2, False, [1], "B"))
@example(([Fraction(-1, 2), MultiPoly.var("w"), Fraction(3)], 1, True, [0, 1], "C"))
@pytest.mark.hypothesis_seeds
def test_grown_states_equal_corners_by_full_product(case):
    # grow_state carries integer numerators through every corner when all
    # the values are rational and builds the constants once, and MultiPolys
    # otherwise; the oracle applies one full-product corner per value, last
    # value first, on MultiPolys
    values, m, dual, sites, entry = case
    want = StateVector(m, {tuple(sites.count(r) for r in range(m + 1)): MultiPoly.const(1)}, dual)
    for w in reversed(values):
        want = corner_by_full_product(entry, as_poly(w), want)
    assert monodromy.grow_state(entry, values, m, sites, dual) == want


# a ratio v/u whose square is never 1, so that u^2 != v^2 by construction
ratios = st.builds(lambda p, d, s: Fraction(s * p, p + d), st.integers(1, 4), st.integers(1, 3),
                   st.sampled_from([1, -1])).flatmap(lambda r: st.sampled_from([r, 1 / r]))
_AUX = [(0, 0), (0, 1), (1, 0), (1, 1)]


def rtt_sides_by_full_product(u, v, occ, m):
    """Both sides of R (T(u) tensor T(v)) = (T(v) tensor T(u)) R applied to
    the ket ``occ``, as 4x4 lists of state vectors, from full-product
    corners on MultiPolys."""
    rm = monodromy.r_matrix(u, v)
    ket = StateVector(m, {occ: MultiPoly.const(1)})

    def products(outer, inner):
        # (X tensor Y)[(ac),(bd)] = X(outer)_{ab} Y(inner)_{cd}, Y applied first
        inner_mat = full_product(MultiPoly.const(inner), ket)
        out = {}
        for c, d in _AUX:
            outer_mat = full_product(MultiPoly.const(outer), inner_mat[c][d])
            for a, b in _AUX:
                out[((a, c), (b, d))] = outer_mat[a][b]
        return out

    uv, vu = products(u, v), products(v, u)
    zero = StateVector(m)
    lhs = [[sum((uv[mid, cj].scale(rm[i][k]) for k, mid in enumerate(_AUX)), zero) for cj in _AUX]
           for i in range(4)]
    rhs = [[sum((vu[ri, mid].scale(rm[k][j]) for k, mid in enumerate(_AUX)), zero) for j in range(4)]
           for ri in _AUX]
    return lhs, rhs


@settings(max_examples=20, deadline=None)
@given(nonzero, ratios, st.integers(0, 1), st.integers(0, 2))
@pytest.mark.hypothesis_seeds
def test_rtt_on_integers_agrees_with_full_product_sides(u, ratio, m, cap):
    # verify_rtt compares integer term dicts; the oracle builds both sides
    # from full-product corners on MultiPolys, for every ket up to the cap
    v = u * ratio
    for occ in itertools.product(range(cap + 1), repeat=m + 1):
        if sum(occ) <= cap:
            lhs, rhs = rtt_sides_by_full_product(u, v, occ, m)
            assert lhs == rhs, (u, v, occ)
    assert verify_rtt(u, v, m, cap)


def test_rtt_at_a_zero_spectral_value_raises():
    # 1/u does not exist at u = 0; at u = v = 0 the pole is found first
    for u, v in ((0, Fraction(2)), (Fraction(3, 2), 0)):
        for m in (0, 1):
            with pytest.raises(NotDivisible):
                verify_rtt(u, v, m, 1)
    with pytest.raises(PoleViolation):
        verify_rtt(0, 0, 1, 1)


def test_rational_points_multiply_no_polynomials(monkeypatch):
    # at nonzero rational spectral values the intertwining and the state
    # vectors run on integer numerators: no MultiPoly product or sum
    def refuse(*args):
        raise AssertionError("a MultiPoly product or sum at a rational point")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    assert verify_rtt(Fraction(3, 2), Fraction(-1, 3), 2, 2)
    assert len(build_state([Fraction(2, 3), Fraction(-1, 2)], 3).terms) == 10
    assert len(build_conj_state([Fraction(-3, 2), 4], 3).terms) == 10


@pytest.mark.parametrize("dual", [False, True])
def test_zero_spectral_value(dual):
    # 1/u is taken only when a sweep scales a first vector: at M = 0 the
    # corners that start from the second vector (B and D on a ket, C and D
    # on a bra) give the creation and zero, and every other corner, at any
    # larger M every corner, raises
    creating, keeping = ("C", "D") if dual else ("B", "D")
    sv = StateVector(0, {(1,): MultiPoly.var("x")}, dual)
    assert corner_by_grown_states(creating, 0, sv).terms == {(2,): MultiPoly.var("x")}
    assert corner_by_grown_states(keeping, 0, sv).is_zero()
    for entry in "ABCD":
        if entry not in (creating, keeping):
            with pytest.raises(NotDivisible):
                corner_by_grown_states(entry, 0, sv)
        for m in (1, 2):
            with pytest.raises(NotDivisible):
                monodromy.grow_state(entry, [0], m, (), dual)
    build = build_conj_state if dual else build_state
    assert build([0, 1], 0).terms == {(2,): MultiPoly.const(1)}
    with pytest.raises(NotDivisible):
        build([0], 1)


def test_grow_state_rejects_unknown_corner():
    with pytest.raises(ValueError, match="entry must be A, B, C or D"):
        monodromy.grow_state("E", ["u1"], 1)


def test_wrong_local_operator_fails_phase_items_with_witnesses(monkeypatch):
    # the carrier's 'a' step scaling by u instead of 1/u breaks the state
    # forms, the numeric scalar products and the intertwining; each failing
    # item says where, and nothing raises
    monkeypatch.setattr(monodromy, "_transfer", transfer_a_step_scaled_by_u)
    small = dict(scalar_symbolic_n=1, scalar_symbolic_m=1, scalar_numeric_n=(2,),
                 scalar_numeric_m=1, scalar_numeric_points=2, state_coeff_n=2,
                 state_coeff_m=1, rtt_m=1, rtt_cap=1, rtt_pairs=1)
    for key, value in small.items():
        monkeypatch.setitem(suites.BOUNDS, key, value)
    items = [it for fam in ("scalar-equivalence", "state-coefficients", "rtt")
             for it in suites.run_family(fam, 7)]
    failed = {it["identity"] for it in items if not it["pass"]}
    assert {"state-coefficients-schur-form", "scalar-three-way-numeric",
            "monodromy-intertwining"} <= failed
    assert suites.RAISED not in failed
    for it in items:
        assert it["pass"] or it["witness"], it
    witnesses = {it["identity"]: it["witness"] for it in items if not it["pass"]}
    assert witnesses["state-coefficients-schur-form"].startswith("ket lambda=[]: state=")
    assert witnesses["scalar-three-way-numeric"].startswith("u=")
    assert "at u=" in witnesses["monodromy-intertwining"]
