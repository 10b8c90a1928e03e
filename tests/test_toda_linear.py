"""Wave-matrix assembly, the linear flows, compatibility identities."""

import pytest

from phasetoda.algebra import RingMatrix
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
    verify_linear_problem,
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


def test_flow_generators_projections(ctx3):
    bs, cs = flow_generators(ctx3, 2)
    for k in (1, 2):
        for i in range(3):
            for j in range(i):
                assert bs[k][i, j].is_zero()
            for j in range(i, 3):
                assert cs[k][i, j].is_zero()
