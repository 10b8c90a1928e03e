"""Wave-matrix assembly, the linear flows, compatibility identities, and the
matrices of the linear problem kept per context."""

from collections import Counter

import pytest

from phasetoda import suites
from phasetoda.algebra import MultiPoly, RingMatrix
from phasetoda.toda import linear
from phasetoda.toda import (
    TauContext,
    check_initial_value_relation,
    check_linear_flow,
    check_wave_inverses,
    check_zakharov_shabat,
    flow_generators,
    full_wave_inverse,
    full_wave_matrix,
    hat_wave_matrix,
    lax_matrices,
    tau,
    verify_linear_problem,
    wave_numerator,
)


@pytest.fixture(scope="module")
def ctx2():
    return TauContext.generic(0, 2, seed=17)


@pytest.fixture(scope="module")
def ctx3():
    return TauContext.generic(0, 3, seed=23)


def test_hat_matrices_triangular(ctx3):
    lower = hat_wave_matrix(ctx3, "w_inf")
    upper = hat_wave_matrix(ctx3, "w_zero")
    n = 3
    for i in range(n):
        assert lower[i, i] == 1
        for j in range(i + 1, n):
            assert lower[i, j].is_zero()
        for j in range(i):
            assert upper[i, j].is_zero()


def test_lower_diagonal_numerators_are_their_taus(ctx3):
    # what lets the lower factors write their k = 0 entries as 1
    for s in range(3):
        assert wave_numerator(ctx3, s, "w_inf", 0) == tau(ctx3, s)
        assert wave_numerator(ctx3, s, "w_star_inf", 0) == tau(ctx3, s + 1)


def test_wave_inverses(ctx2, ctx3):
    assert check_wave_inverses(ctx2)
    assert check_wave_inverses(ctx3)


def test_full_wave_product_identity(ctx3):
    prod = full_wave_matrix(ctx3, "w_inf") @ full_wave_inverse(ctx3, "w_inf")
    assert prod == RingMatrix.identity(3)


def test_initial_value_relation(ctx2, ctx3):
    assert check_initial_value_relation(ctx2)
    assert check_initial_value_relation(ctx3)


def test_lax_shape(ctx3):
    lax_l, lax_m = lax_matrices(ctx3)
    # L: unit first superdiagonal, nothing above it (lower Hessenberg)
    for i in range(3):
        for j in range(3):
            if j == i + 1:
                assert lax_l[i, j] == 1
            elif j > i + 1:
                assert lax_l[i, j].is_zero()
    # M: one nonvanishing subdiagonal, nothing below it (upper Hessenberg)
    for i in range(3):
        for j in range(3):
            if j == i - 1:
                assert not lax_m[i, j].is_zero()
            elif j < i - 1:
                assert lax_m[i, j].is_zero()


def test_linear_flow_2x2(ctx2):
    assert verify_linear_problem(ctx2, 1, "x", "w_inf")
    assert verify_linear_problem(ctx2, 1, "y", "w_zero")


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("flow", ["x", "y"])
@pytest.mark.parametrize("kind", ["w_inf", "w_zero"])
def test_linear_flow_3x3(ctx3, j, flow, kind):
    assert check_linear_flow(ctx3, j, flow, kind)


def test_zakharov_shabat(ctx3):
    for j in (1, 2):
        for k in (1, 2):
            assert check_zakharov_shabat(ctx3, j, k)


def test_linear_problem_divides_nothing(monkeypatch):
    # the taus stay as denominator factors: no product, sum or comparison
    # of the linear problem tries an exact division, and neither do its
    # minors at these sizes
    def never(*args):
        raise AssertionError("the linear problem tried an exact division")

    monkeypatch.setattr(MultiPoly, "divide_exact", never)
    ctx = TauContext.generic(0, 3, seed=23)
    assert check_wave_inverses(ctx) and check_initial_value_relation(ctx)
    for j in (1, 2):
        for flow in ("x", "y"):
            for kind in ("w_inf", "w_zero"):
                assert check_linear_flow(ctx, j, flow, kind)
        for k in (1, 2):
            assert check_zakharov_shabat(ctx, j, k)
    items = suites.run_family("linear", 7)
    assert items and all(it["pass"] for it in items)


def test_flow_generators_projections(ctx3):
    bs, cs = flow_generators(ctx3, 2)
    for k in (1, 2):
        for i in range(3):
            for j in range(i):
                assert bs[k][i, j].is_zero()
            for j in range(i, 3):
                assert cs[k][i, j].is_zero()


def _seven_checks(ctx):
    """The linear checks the benchmark runs on one context."""
    flows = [check_linear_flow(ctx, 1, flow, kind) for flow in ("x", "y") for kind in ("w_inf", "w_zero")]
    return [check_wave_inverses(ctx), check_initial_value_relation(ctx), *flows,
            check_zakharov_shabat(ctx, 1, 1)]


@pytest.fixture
def builds(monkeypatch):
    """Counts of the steps that build the linear problem's matrices: the
    wave entries by kind (each hat factor reads its entries once), the
    exponential factors by (kind, inverse), and the shifts that conjugate
    each power of L and M.  The projections to B_k and C_k are reads of a
    kept power, not kept themselves."""
    counts = Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(linear, "wave_numerator", lambda ctx, s, kind, k: kind)
    counted(linear, "_exp_factor", lambda ctx, kind, inverse: ("exp", kind, inverse))
    counted(linear, "_shift_columns", lambda w, step: ("shift", step))
    return counts


def test_seven_linear_checks_build_each_matrix_once(builds):
    ctx = TauContext.generic(0, 3, seed=23)
    assert all(_seven_checks(ctx))
    # the full W of each kind; L and M conjugate by the triangular factors,
    # so no inverse exponential factor is built
    once = Counter({("exp", kind, False): 1 for kind in ("w_inf", "w_zero")})
    once.update({("shift", 1): 1, ("shift", -1): 1})
    # 6 entries on and above the diagonal of each 3x3 upper hat factor; the
    # lower ones build the 3 below it, their unit diagonal is the constant 1
    once.update({kind: 6 for kind in ("w_zero", "w_star_zero")})
    once.update({kind: 3 for kind in ("w_inf", "w_star_inf")})
    assert builds == once
    for inverse in (False, True):
        lower = linear._hat_factor(ctx, "w_inf", inverse)
        assert all(type(lower[i, i]) is MultiPoly and lower[i, i] == 1 for i in range(3))
    # a second pass over the same context builds nothing
    assert all(_seven_checks(ctx))
    assert builds == once
    # a fresh context over the same matrix builds everything again
    assert all(_seven_checks(TauContext.generic(0, 3, seed=23)))
    assert builds == once + once


def test_two_contexts_share_nothing():
    first, second = TauContext.generic(0, 3, seed=23), TauContext.generic(0, 3, seed=29)
    assert first.a != second.a
    assert all(_seven_checks(first)) and all(_seven_checks(second))

    def kept(ctx):
        """The linear problem's matrices kept in ctx, by key: 4 hat factors,
        2 full wave matrices, and L and M (the k = 1 powers)."""
        names = ("hat_factor", "full_wave_matrix", "lax_power")
        return {key: value for key, value in ctx._cache.items()
                if (key if isinstance(key, str) else key[0]) in names}

    assert kept(first).keys() == kept(second).keys() and len(kept(first)) == 8
    for key, value in kept(first).items():
        assert value is not kept(second)[key] and value != kept(second)[key], key
    # each is what a fresh context over its own matrix builds
    assert lax_matrices(second) == lax_matrices(TauContext.generic(0, 3, seed=29))
    # a context at a point starts with its own dressing and nothing else
    at = first.at_point([1, 2], [0, 1])
    entries = {("entry", i, j) for i in range(3) for j in range(3)}
    assert set(at._cache) == {"zetas", "dressed"} | entries and kept(at) == {}


def _chained(lax, k):
    out = lax
    for _ in range(k - 1):
        out = out @ lax
    return out


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("kind", ["w_inf", "w_zero"])
def test_lax_power_equals_chained_products(size, kind):
    # the power read off the triangular factor against L (or M) multiplied
    # by itself, and L against the shift dressed by the full W and its
    # inverse; size 4 is left out, where the chain alone takes about 17 s
    ctx = TauContext.generic(0, size, seed=31 + size)
    lax = linear._lax_power(ctx, kind, 1)
    step = 1 if kind == "w_inf" else -1
    assert lax == linear._shift_columns(full_wave_matrix(ctx, kind), step) @ full_wave_inverse(ctx, kind)
    for k in (1, 2):
        assert linear._lax_power(ctx, kind, k) == _chained(lax, k), k
