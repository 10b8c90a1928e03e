"""Shift exponentials, the dressed matrix, tau and its character expansion."""

import pytest

from phasetoda.algebra import MultiPoly, RingMatrix, det_cofactor, det_exact
from phasetoda.errors import RangeViolation
from phasetoda.symfunc import negate_times
from phasetoda.toda import (
    TauContext,
    restricted_context,
    shift_exp,
    tau,
    tau_schur_expand,
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
    ctx = TauContext.identity(0, 2)
    d = ctx.dressed()
    assert d[0, 0] == 1 - x1 * y1
    assert d[0, 1] == x1
    assert d[1, 0] == -y1
    assert d[1, 1] == MultiPoly.const(1)


def test_tau_trivial_sites():
    ctx = TauContext.generic(0, 3, seed=4)
    assert tau(ctx, 0) == MultiPoly.const(1)
    ident = TauContext.identity(0, 3)
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
