"""Local operators, monodromy corners, state vectors, intertwining."""

from fractions import Fraction

import pytest

from phasetoda import suites
from phasetoda.algebra import MultiPoly, as_poly
from phasetoda.errors import PoleViolation
from phasetoda.phase import monodromy
from phasetoda.phase import (
    apply_local_L,
    build_conj_state,
    build_state,
    monodromy_apply,
    pair,
    vacuum,
    verify_rtt,
)

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


def test_creation_corner_m1():
    sv = monodromy_apply("B", u, vacuum(1))
    assert sv.terms == {(1, 0): u.monomial_inverse(), (0, 1): u}


def test_annihilation_corner_kills_vacuum():
    assert monodromy_apply("C", u, vacuum(2)).is_zero()


def test_occupation_grading():
    for m in (1, 2):
        state = build_state([f"u{i}" for i in (1, 2)], m)
        raised = monodromy_apply("B", MultiPoly.var("w"), state)
        assert {sum(occ) for occ in raised.terms} == {3}
        lowered = monodromy_apply("C", MultiPoly.var("w"), state)
        assert {sum(occ) for occ in lowered.terms} == {1}
        for entry in ("A", "D"):
            kept = monodromy_apply(entry, MultiPoly.var("w"), state)
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


def corner_by_full_product(entry, w, sv):
    """The corner read off the whole 2x2 operator product, built site by
    site: (L_j .. L_0)[x][y] sv over sites 0..M for a ket, sv (L_M .. L_j)[x][y]
    over sites M..0 for a bra."""
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
    x, y = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}[entry]
    return mat[x][y]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_corners_equal_full_product(m):
    w = MultiPoly.var("w")
    states = [vacuum(m), build_state(["u1"], m), build_state(["u1", "u2"], m)]
    states += [vacuum(m, dual=True), build_conj_state(["v1"], m), build_conj_state(["v1", "v2"], m)]
    for sv in states:
        for entry in "ABCD":
            want = corner_by_full_product(entry, w, sv)
            assert monodromy_apply(entry, w, sv) == want, (sv, entry)


def test_monodromy_apply_rejects_unknown_corner():
    with pytest.raises(ValueError):
        monodromy_apply("E", u, vacuum(1))


def test_wrong_local_operator_fails_phase_items_with_witnesses(monkeypatch):
    # an 'a' entry scaling by u instead of 1/u breaks the state forms, the
    # numeric scalar products and the intertwining; each failing item says
    # where, and nothing raises
    right = monodromy.apply_local_L

    def wrong(j, entry, w, sv):
        return sv.scale(as_poly(w)) if entry == "a" else right(j, entry, w, sv)

    monkeypatch.setattr(monodromy, "apply_local_L", wrong)
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
