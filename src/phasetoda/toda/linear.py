"""Wave-matrix assembly and the Lax / compatibility checks.

The triangular factors are filled from the minor-ratio entries, with the
site argument indexing rows for the direct matrices and columns for their
inverses (the assembly convention is pinned by requiring the constant
initial-value relation W0 = Winf * A and the product-with-inverse tests to
hold; both are part of the verification battery).
"""

from __future__ import annotations

from ..algebra import MultiPoly, RatioPoly, RingMatrix
from ..symfunc import negate_times
from .context import TauContext, shift_exp
from .waves import tau, wave_numerator


def _hat_factor(ctx: TauContext, kind: str, inverse: bool) -> RingMatrix:
    """Triangular factor ('w_inf' lower, 'w_zero' upper) whose entry k steps
    off the diagonal is a wave entry with index k.

    The wave matrix takes its entries at site = row over tau(site); the
    inverse takes the starred entries at site = column over tau(site + 1)."""
    if kind not in ("w_inf", "w_zero"):
        raise ValueError(kind)
    entry_kind = {"w_inf": "w_star_inf", "w_zero": "w_star_zero"}[kind] if inverse else kind
    m, n = ctx.m, ctx.n
    out = []
    for i in range(m, n):
        for j in range(m, n):
            k = i - j if kind == "w_inf" else j - i
            if k < 0:
                out.append(MultiPoly.zero())
                continue
            site = j if inverse else i
            den = tau(ctx, site + 1) if inverse else tau(ctx, site)
            out.append(RatioPoly(wave_numerator(ctx, site, entry_kind, k), den))
    return RingMatrix(n - m, n - m, out)


def hat_wave_matrix(ctx: TauContext, kind: str) -> RingMatrix:
    """Triangular wave factor ('w_inf' lower, 'w_zero' upper), rows = site."""
    return _hat_factor(ctx, kind, inverse=False)


def hat_wave_inverse(ctx: TauContext, kind: str) -> RingMatrix:
    """Inverse factors from the starred entries, columns = site."""
    return _hat_factor(ctx, kind, inverse=True)


def _exp_factor(ctx: TauContext, kind: str, inverse: bool) -> RingMatrix:
    """exp(+-sum_k t_k shift^k): x times and raise for 'w_inf', y times and
    lower otherwise, negated for the inverse."""
    direction, times = ("raise", ctx.x) if kind == "w_inf" else ("lower", ctx.y)
    if inverse:
        times = negate_times(times)
    return shift_exp(direction, list(times), ctx.m, ctx.n)


def full_wave_matrix(ctx: TauContext, kind: str) -> RingMatrix:
    return hat_wave_matrix(ctx, kind) @ _exp_factor(ctx, kind, inverse=False)


def full_wave_inverse(ctx: TauContext, kind: str) -> RingMatrix:
    return _exp_factor(ctx, kind, inverse=True) @ hat_wave_inverse(ctx, kind)


def _shift_columns(w: RingMatrix, step: int) -> RingMatrix:
    """W times the raise shift (step 1) or the lower shift (step -1): column
    j of the product is column j - step of W, or zero."""
    n = w.rows
    zero = MultiPoly.zero()
    return RingMatrix(
        n, n, [w[i, j - step] if 0 <= j - step < n else zero for i in range(n) for j in range(n)]
    )


def lax_matrices(ctx: TauContext) -> tuple:
    """L and M conjugated from the two shift directions."""
    lax_l = _shift_columns(full_wave_matrix(ctx, "w_inf"), 1) @ full_wave_inverse(ctx, "w_inf")
    lax_m = _shift_columns(full_wave_matrix(ctx, "w_zero"), -1) @ full_wave_inverse(ctx, "w_zero")
    return lax_l, lax_m


def flow_generators(ctx: TauContext, kmax: int) -> tuple:
    """B_k = (L^k)_+ and C_k = (M^k)_- for k = 1..kmax."""
    lax_l, lax_m = lax_matrices(ctx)
    bs = {}
    cs = {}
    lp = RingMatrix.identity(lax_l.rows)
    mp = RingMatrix.identity(lax_m.rows)
    for k in range(1, kmax + 1):
        lp = lp @ lax_l
        mp = mp @ lax_m
        bs[k] = lp.project("plus")
        cs[k] = mp.project("minus")
    return bs, cs


def check_initial_value_relation(ctx: TauContext) -> bool:
    """W0 == Winf * A with the constant matrix in the middle."""
    winf = full_wave_matrix(ctx, "w_inf")
    wzero = full_wave_matrix(ctx, "w_zero")
    return wzero == winf @ ctx.a


def check_wave_inverses(ctx: TauContext) -> bool:
    for kind in ("w_inf", "w_zero"):
        prod = hat_wave_matrix(ctx, kind) @ hat_wave_inverse(ctx, kind)
        if prod != RingMatrix.identity(ctx.n - ctx.m):
            return False
    return True


def check_linear_flow(ctx: TauContext, j: int, flow: str, kind: str) -> bool:
    """d/dt_j W == (flow generator_j) W, exactly."""
    if flow not in ("x", "y"):
        raise ValueError(flow)
    bs, cs = flow_generators(ctx, j)
    gen = bs[j] if flow == "x" else cs[j]
    w = full_wave_matrix(ctx, kind)
    lhs = w.diff(f"{flow}{j}")
    rhs = gen @ w
    return lhs == rhs


def check_zakharov_shabat(ctx: TauContext, j: int, k: int) -> bool:
    """The three compatibility identities at orders (j, k)."""
    kmax = max(j, k)
    bs, cs = flow_generators(ctx, kmax)
    xj, xk = f"x{j}", f"x{k}"
    yj, yk = f"y{j}", f"y{k}"
    one = bs[k].diff(xj) - bs[j].diff(xk) + bs[k].commutator(bs[j])
    if not one.is_zero():
        return False
    two = cs[k].diff(yj) - cs[j].diff(yk) + cs[k].commutator(cs[j])
    if not two.is_zero():
        return False
    three = bs[k].diff(yj) - cs[j].diff(xk) + bs[k].commutator(cs[j])
    return three.is_zero()


def verify_linear_problem(ctx: TauContext, j: int, flow: str, kind: str) -> bool:
    """One flow equation plus the structural prerequisites.

    Checks the wave-factor inverses, the constant initial-value relation,
    and d_{t_j} W = G_j W for the requested flow and wave kind.
    """
    if not check_wave_inverses(ctx):
        return False
    if not check_initial_value_relation(ctx):
        return False
    return check_linear_flow(ctx, j, flow, kind)
