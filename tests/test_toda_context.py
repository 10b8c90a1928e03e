"""Shift exponentials, the dressed matrix, tau, its character expansion and
the dual route of a minor."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.algebra import MultiPoly, RingMatrix, det_cofactor, det_exact
from phasetoda.errors import RangeViolation
from phasetoda.symfunc import negate_times
from phasetoda.toda import (
    WAVE_KINDS,
    TauContext,
    restricted_context,
    shift_exp,
    tau,
    tau_schur_expand,
    wave_k_max,
    wave_minor,
)

x1 = MultiPoly.var("x1")
y1 = MultiPoly.var("y1")


def test_shift_exp_at_zero_is_identity():
    zero = [MultiPoly.zero(), MultiPoly.zero()]
    assert shift_exp("raise", zero, 0, 3) == RingMatrix.identity(3)
    assert shift_exp("lower", zero, 0, 3) == RingMatrix.identity(3)


def test_shift_exp_2x2():
    mat = shift_exp("raise", [x1], 0, 2)
    assert mat == RingMatrix.from_rows([[1, x1], [0, 1]])


def test_shift_exp_product_is_exp_of_sum():
    # exp(sum x) exp(sum x') = exp(sum (x+x')) entrywise at 3x3
    xs = [MultiPoly.var("x1"), MultiPoly.var("x2")]
    xps = [MultiPoly.var("p1"), MultiPoly.var("p2")]
    lhs = shift_exp("raise", xs, 0, 3) @ shift_exp("raise", xps, 0, 3)
    rhs = shift_exp("raise", [a + b for a, b in zip(xs, xps)], 0, 3)
    assert lhs == rhs


def test_dressed_at_zero_times_is_constant_matrix():
    ctx = TauContext.generic(0, 3, seed=4)
    at0 = ctx.at_point([0, 0], [0, 0])
    assert at0.dressed() == ctx.a


def test_dressed_2x2_identity_oracle():
    # multiply the three 2x2 factors by hand:
    # [[1, x1],[0,1]] I [[1,0],[-y1,1]] = [[1 - x1 y1, x1], [-y1, 1]]
    ctx = TauContext.symbolic(0, 2, RingMatrix.identity(2))
    d = ctx.dressed()
    assert d[0, 0] == 1 - x1 * y1
    assert d[0, 1] == x1
    assert d[1, 0] == -y1
    assert d[1, 1] == MultiPoly.const(1)


def test_tau_trivial_sites():
    ctx = TauContext.generic(0, 3, seed=4)
    assert tau(ctx, 0) == MultiPoly.const(1)
    ident = TauContext.symbolic(0, 3, RingMatrix.identity(3))
    at0 = ident.at_point([0, 0], [0, 0])
    for s in range(0, 4):
        assert tau(at0, s) == MultiPoly.const(1)
    with pytest.raises(RangeViolation):
        tau(ctx, 5)


def test_tau_at_full_size_is_constant_det():
    # unipotent dressing factors leave the full determinant constant
    ctx = TauContext.generic(0, 3, seed=8)
    assert tau(ctx, 3) == det_exact(ctx.a)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_tau_equals_character_expansion(size):
    ctx = TauContext.generic(0, size, seed=21 + size)
    for s in range(0, size + 1):
        assert tau(ctx, s) == tau_schur_expand(ctx, s)


def test_tau_expansion_off_zero_interval():
    # nonzero m offset exercises the absolute index bookkeeping
    ctx = TauContext.generic(2, 5, seed=3)
    for s in range(2, 6):
        assert tau(ctx, s) == tau_schur_expand(ctx, s)


def _eager_dressed(ctx):
    ex = shift_exp("raise", ctx.x, ctx.m, ctx.n)
    ey = shift_exp("lower", negate_times(ctx.y), ctx.m, ctx.n)
    return ex @ ctx.a @ ey


@pytest.mark.parametrize(
    "make",
    [
        lambda: TauContext.generic(1, 6, seed=5),
        # a restricted context over a shorter v alphabet (v2 at infinity)
        lambda: restricted_context(["u1", "u2"], ["v1"], 3),
    ],
    ids=["generic", "restricted"],
)
def test_lazy_entries_equal_eager_product(make):
    ctx = make()
    assert ctx.n - ctx.m == 5
    eager = _eager_dressed(ctx)
    # minors first, so they build their entries before dressed() exists
    for rows, cols in [((0, 2), (1, 3)), ((1, 2, 4), (0, 3, 4))]:
        rows = [ctx.m + i for i in rows]
        cols = [ctx.m + j for j in cols]
        sub = eager.submatrix([i - ctx.m for i in rows], [j - ctx.m for j in cols])
        assert ctx.minor(rows, cols) == det_cofactor(sub)
    assert "dressed" not in ctx._cache
    for i in range(ctx.m, ctx.n):
        for j in range(ctx.m, ctx.n):
            assert ctx.entry(i, j) == eager[i - ctx.m, j - ctx.m]
    assert ctx.dressed() == eager


@st.composite
def point_cases(draw):
    """A constant matrix of size 1-5 at m = -2..2, integer or rational, and
    a rational point with zero and negative times."""
    m, size = draw(st.integers(-2, 2)), draw(st.integers(1, 5))
    value = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
    a = RingMatrix(size, size, [MultiPoly.const(v) for v in draw(
        st.lists(value, min_size=size * size, max_size=size * size))])
    times = st.lists(value, min_size=size - 1, max_size=size - 1)
    return TauContext.symbolic(m, m + size, a), draw(times), draw(times)


@settings(max_examples=40, deadline=None)
@given(point_cases())
@pytest.mark.hypothesis_seeds
def test_point_entries_match_direct_and_substituted_entries(case):
    # the integer pass of at_point against the on-demand entries of a
    # context built directly from the same constant times, and against the
    # symbolic entries at the point
    ctx, x, y = case
    at = ctx.at_point(x, y)
    direct = TauContext(ctx.m, ctx.n, ctx.a, tuple(map(MultiPoly.const, x)), tuple(map(MultiPoly.const, y)))
    point = {**{f"x{k}": v for k, v in enumerate(x, 1)}, **{f"y{k}": v for k, v in enumerate(y, 1)}}
    assert _entries(at) == {("entry", i, j) for i in range(ctx.m, ctx.n) for j in range(ctx.m, ctx.n)}
    for i in range(ctx.m, ctx.n):
        for j in range(ctx.m, ctx.n):
            assert at.entry(i, j) == direct.entry(i, j) == ctx.entry(i, j).subs(point), (i, j)
    assert at.dressed() == direct.dressed()


# -- the dual route -------------------------------------------------------------


def _dual_built(ctx):
    """The keys of ctx's cache that only the dual route builds: A^-1 and
    the dual context, which keeps everything else the route reads."""
    return [key for key in ("inverse", "dual") if key in ctx._cache]


def _entries(ctx):
    """The dressed entries kept in ctx's cache."""
    return {key for key in ctx._cache if key[0] == "entry"}


def _reversed(mat):
    """mat with its row order and its column order reversed: J mat J."""
    n = mat.rows
    return RingMatrix(n, n, [mat[n - 1 - i, n - 1 - j] for i in range(n) for j in range(n)])


@st.composite
def restricted_cases(draw):
    """A restricted context over 1-3 letters and M = 0..3, its v alphabet
    one letter short as in the hole limit or not, and one wave entry of its
    site N - 1 or N."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    short = draw(st.booleans())
    un = [f"u{i}" for i in range(1, n + 1)]
    vn = [f"v{i}" for i in range(1 + short, n + 1)]
    ctx = restricted_context(un, vn, m)
    s = draw(st.integers(max(n - 1, 0), min(n, ctx.n - 1)))
    kind = draw(st.sampled_from(WAVE_KINDS))
    k = draw(st.integers(0, wave_k_max(ctx, s, kind)))
    return ctx, n, wave_minor(ctx, s, kind, k)


@settings(max_examples=40, deadline=None)
@given(restricted_cases())
@pytest.mark.hypothesis_seeds
def test_dual_route_equals_direct_on_restricted_contexts(case):
    ctx, n, (rows, cols) = case
    for r, c in ((range(n), range(n)), (rows, cols)):
        r, c = tuple(r), tuple(c)
        direct = ctx._direct_minor(r, c)
        assert ctx._dual_minor(r, c) == direct
        assert ctx.minor(r, c) == direct


@st.composite
def generic_cases(draw):
    """A generic symbolic context of size 1-5 at m = -2..2 and rows and
    columns of one length drawn from it."""
    m, size = draw(st.integers(-2, 2)), draw(st.integers(1, 5))
    ctx = TauContext.generic(m, m + size, seed=draw(st.integers(0, 50)))
    k = draw(st.integers(0, size))
    idx = st.lists(st.integers(m, m + size - 1), min_size=k, max_size=k, unique=True).map(sorted)
    return ctx, tuple(draw(idx)), tuple(draw(idx))


@settings(max_examples=40, deadline=None)
@given(generic_cases())
@pytest.mark.hypothesis_seeds
def test_dual_route_equals_direct_on_generic_contexts(case):
    ctx, rows, cols = case
    for s in range(ctx.m, ctx.n + 1):
        lead = tuple(range(ctx.m, s))
        direct = ctx._direct_minor(lead, lead)
        assert ctx._dual_minor(lead, lead) == direct
        assert tau(ctx, s) == direct
    direct = ctx._direct_minor(rows, cols)
    assert ctx._dual_minor(rows, cols) == direct
    assert ctx.minor(rows, cols) == direct


@settings(max_examples=40, deadline=None)
@given(st.one_of(generic_cases().map(lambda case: case[0]),
                 restricted_cases().map(lambda case: case[0])))
@pytest.mark.hypothesis_seeds
def test_reversed_dual_dressed_matrix_inverts_the_dressed_matrix(ctx):
    # the fact the dual route stands on: J D' J = D^-1, D' the dressed
    # matrix of the dual context (J A^-1 J, times swapped)
    product = _reversed(ctx._dual().dressed()) @ ctx.dressed()
    assert product == RingMatrix.identity(ctx.n - ctx.m)


def test_restricted_contexts_route_every_minor_through_the_inverse():
    # once M >= 2 the horizon passes both alphabets: zeta(-x) and zeta(y)
    # vanish there, so even a one-row minor goes dual
    ctx = restricted_context(["u1", "u2"], ["v1", "v2"], 2)
    value = ctx.minor((0,), (1,))
    # the complements, rows {0, 2, 3} and columns {1, 2, 3}, reversed
    assert _entries(ctx._cache["dual"]) == {("entry", i, j) for i in (0, 1, 3) for j in (0, 1, 2)}
    assert _entries(ctx) == set()
    assert value == ctx._direct_minor((0,), (1,))


def test_generic_contexts_go_dual_only_on_a_smaller_complement():
    ctx = TauContext.generic(0, 5, seed=2)
    for s in range(0, 3):
        tau(ctx, s)
    assert _entries(ctx._cache["dual"]) == set()
    # three rows of five leave a complement of two, rows and columns
    # {3, 4}, which the dual context reads reversed
    tau(ctx, 3)
    assert _entries(ctx._cache["dual"]) == {("entry", i, j) for i in (0, 1) for j in (0, 1)}
    assert ("entry", 2, 2) not in ctx._cache


def test_unordered_or_repeated_indices_go_direct():
    ctx = restricted_context(["u1", "u2"], ["v1", "v2"], 2)
    eager = _eager_dressed(ctx)
    for rows, cols in [((1, 0), (0, 1)), ((0, 0), (0, 1)), ((2, 1, 0), (0, 1, 2))]:
        sub = eager.submatrix(rows, cols)
        assert ctx.minor(rows, cols) == det_cofactor(sub)


def test_singular_matrix_stays_direct_and_its_full_tau_vanishes():
    # a singular A has no inverse: every minor stays on the direct route
    a = RingMatrix.from_rows([[1, 2, 0], [2, 4, 0], [3, 1, 5]])
    ctx = TauContext.symbolic(0, 3, a)
    assert det_exact(a).is_zero()
    assert tau(ctx, 3) == MultiPoly.zero()
    assert tau(ctx, 2) == ctx._direct_minor((0, 1), (0, 1))
    assert _dual_built(ctx) == ["inverse"]


def test_constant_times_stay_direct():
    # numeric contexts never pay for A^-1 or the dual context
    ctx = TauContext.generic(0, 4, seed=5).at_point([1, -2, 3], [2, 1, -1])
    for s in range(0, 5):
        tau(ctx, s)
    for rows, cols in itertools.product(itertools.combinations(range(4), 3), repeat=2):
        ctx.minor(rows, cols)
    assert _dual_built(ctx) == []
