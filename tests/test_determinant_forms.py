"""Single-determinant correlator forms, stacks, and recursions."""

import itertools
import random
from fractions import Fraction

import pytest

from phasetoda import suites
from phasetoda.algebra import MultiPoly, RingMatrix, as_poly, det_exact
from phasetoda.phase import (
    boundary_monomial,
    correlator_npoint,
    correlator_one_hole,
    correlator_seeded,
    determinant_stack,
    determinants,
    npoint_det,
    one_hole_det,
    one_hole_stack_check,
    one_point_stack_check,
    recursion_expand_check,
    recursion_sides,
    scalar_product,
    single_det_form,
)
from phasetoda.symfunc import hk


def names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def test_one_hole_det_anchor():
    # single creation letter, hole at the bottom row
    assert one_hole_det(0, 1, 1, ["u1"], ["v1"]) == MultiPoly.var("u1", -1)


def test_one_point_det_anchor():
    # the order-1 determinant family pairs the conjugate with a seeded ket
    assert npoint_det((0,), 1, 1, ["u1"], ["v1"]) == MultiPoly.var("v1")
    assert npoint_det((0,), 1, 1, ["u1"], ["v1"]) == correlator_npoint(
        (0,), 1, 1, ["u1"], ["v1"]
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_one_hole_det_matches_pairing(n, m):
    un, vn = names("u", n), names("v", n)
    for q in range(0, m + 1):
        assert one_hole_det(q, n, m, un, vn) == correlator_one_hole(
            q, n, m, un, vn, "pairing"
        ), q


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_npoint_det_matches_pairing(n, m):
    un, vn = names("u", n), names("v", n)
    for order in range(1, n + 1):
        for r1 in range(0, m + 1):
            for tail in itertools.product((0, 1), repeat=order - 1):
                rs = (r1,) + tail
                if any(rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
                    continue
                assert npoint_det(rs, n, m, un, vn) == correlator_npoint(
                    rs, n, m, un, vn
                ), rs


def test_two_point_dispatch():
    un, vn = names("u", 3), names("v", 3)
    assert single_det_form("two_point", 3, 2, un, vn, k=2) == correlator_npoint(
        (2, 1), 3, 2, un, vn
    )
    assert single_det_form("one_point", 3, 2, un, vn, k=1) == correlator_npoint(
        (1,), 3, 2, un, vn
    )
    assert single_det_form("one_hole", 3, 2, un, vn, k=1) == correlator_one_hole(
        1, 3, 2, un, vn, "pairing"
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (3, 3)])
def test_stacks(n, m):
    un, vn = names("u", n), names("v", n)
    assert one_hole_stack_check(n, m, un, vn)
    assert one_point_stack_check(n, m, un, vn)


def test_single_determinant_pairs_once_per_size(monkeypatch):
    """The hole and point stacks of one (N, M) share one pairing."""
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return scalar_product(*args)

    monkeypatch.setattr(suites, "scalar_product", counted)
    monkeypatch.setattr(determinants, "scalar_product", counted)
    items = suites.run_family("single-determinant", 7)
    assert items and all(it["pass"] for it in items)
    bound = suites.BOUNDS["correspondence_n"], suites.BOUNDS["correspondence_m"]
    assert sorted(calls) == list(itertools.product(range(1, bound[0] + 1), range(1, bound[1] + 1)))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_recursions(n, m):
    un, vn = names("u", n), names("v", n)
    for order in range(1, n):
        for q in range(0, order + 1):
            rs = (1,) * (order - q) + (0,) * q
            assert recursion_expand_check(rs, n, m, un, vn), (order, q)


# every phase entry point that takes N creation and N annihilation values,
# at N = 2, M = 1
LETTER_ENTRY_POINTS = {
    "scalar_product": lambda us, vs: scalar_product(2, 1, us, vs),
    "one_hole_det": lambda us, vs: one_hole_det(0, 2, 1, us, vs),
    "npoint_det": lambda us, vs: npoint_det((0,), 2, 1, us, vs),
    "hole determinant_stack": lambda us, vs: determinant_stack("hole", 2, 1, us, vs),
    "point determinant_stack": lambda us, vs: determinant_stack("point", 2, 1, us, vs),
    "recursion_sides": lambda us, vs: list(recursion_sides((0,), 2, 1, us, vs)),
    "correlator_one_hole": lambda us, vs: correlator_one_hole(0, 2, 1, us, vs),
    "correlator_seeded": lambda us, vs: correlator_seeded(1, 2, 1, us, vs),
    "correlator_npoint": lambda us, vs: correlator_npoint((0,), 2, 1, us, vs),
}


@pytest.mark.parametrize("us, vs", [(names("u", 3), names("v", 2)), (names("u", 2), names("v", 1))])
@pytest.mark.parametrize("entry", sorted(LETTER_ENTRY_POINTS))
def test_wrong_letter_count_is_a_value_error(entry, us, vs):
    with pytest.raises(ValueError, match="need N creation and N annihilation values"):
        LETTER_ENTRY_POINTS[entry](us, vs)


def two_letter_form(m, us, vs, hole=None):
    """The determinant with two-letter columns h_{M+N-1}(u_k^2, v_j^2), and
    a hole row h_q(u_k^2, {v^2}) on top when ``hole`` is given, divided by
    the creation Vandermonde prod_{j<k} (u_k^2 - u_j^2) and the annihilation
    one prod_{j<k} (v_j^2 - v_k^2)."""
    us, vs = [as_poly(u) for u in us], [as_poly(v) for v in vs]
    u2, v2 = [u * u for u in us], [v * v for v in vs]
    rows = [] if hole is None else [[hk(hole, [a] + v2) for a in u2]]
    rows += [[hk(m + len(us) - 1, [a, b]) for a in u2] for b in v2]
    det = det_exact(RingMatrix.from_rows(rows))
    for j, k in itertools.combinations(range(len(us)), 2):
        det = det.divide_exact(u2[k] - u2[j])
    for j, k in itertools.combinations(range(len(vs)), 2):
        det = det.divide_exact(v2[j] - v2[k])
    return boundary_monomial((), us + vs, m) * det


def assert_two_letter_form_agrees(n, m, un, vn):
    assert scalar_product(n, m, un, vn, "determinant") == two_letter_form(m, un, vn)
    for q in range(0, m + 1):
        assert one_hole_det(q, n, m, un, vn) == two_letter_form(m, un, vn[1:], hole=q), q


@pytest.mark.parametrize("n,m", list(itertools.product(range(1, 4), range(0, 4))))
def test_two_letter_form_symbolic(n, m):
    assert_two_letter_form_agrees(n, m, names("u", n), names("v", n))


@pytest.mark.parametrize("seed", range(3))
def test_two_letter_form_at_rational_points(seed):
    # eight distinct positive rationals: no two squares coincide
    pool = sorted({Fraction(a, b) for a in range(1, 30) for b in range(1, 8)})
    points = random.Random(seed).sample(pool, 8)
    un, vn = points[:4], points[4:]
    for m in range(0, 4):
        assert_two_letter_form_agrees(4, m, un, vn)
