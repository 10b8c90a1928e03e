"""Wave-matrix assembly and the Lax / compatibility checks.

The triangular factors are filled from the minor-ratio entries, with the
site argument indexing rows for the direct matrices and columns for their
inverses (the assembly convention is pinned by requiring the constant
initial-value relation W0 = Winf * A and the product-with-inverse tests to
hold; both are part of the verification battery).

L = W raise W^-1 and M = W lower W^-1 ('w_inf' and 'w_zero' W).  The
exponential factor of W commutes with the shift, so each power is one
product on the triangular factors, L^k = hatW raise^k hatW^-1.  The full
W enters only the initial-value relation and the flow equations.

Every matrix of the linear problem (the triangular factors and their
inverses, the full W per kind, and L^k, M^k per k) is built once per
context and kept in it (``TauContext.kept``), so the checks on one context
share them.
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
    inverse takes the starred entries at site = column over tau(site + 1).
    The lower factors have a unit diagonal: their k = 0 numerator is the
    tau it stands over."""
    if kind not in ("w_inf", "w_zero"):
        raise ValueError(kind)
    entry_kind = {"w_inf": "w_star_inf", "w_zero": "w_star_zero"}[kind] if inverse else kind
    m, n = ctx.m, ctx.n
    zero, one = MultiPoly.zero(), MultiPoly.const(1)

    def entry(i, j):
        k = i - j if kind == "w_inf" else j - i
        site = j if inverse else i
        if k < 0:
            return zero
        if k == 0 and kind == "w_inf":
            return one
        return RatioPoly(wave_numerator(ctx, site, entry_kind, k),
                         tau(ctx, site + 1 if inverse else site))

    return ctx.kept(("hat_factor", kind, inverse), lambda: RingMatrix(
        n - m, n - m, [entry(i, j) for i in range(m, n) for j in range(m, n)]))


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
    return ctx.kept(("full_wave_matrix", kind),
                    lambda: hat_wave_matrix(ctx, kind) @ _exp_factor(ctx, kind, inverse=False))


def full_wave_inverse(ctx: TauContext, kind: str) -> RingMatrix:
    """W^-1; the checks read the triangular inverse instead."""
    return ctx.kept(("full_wave_inverse", kind),
                    lambda: _exp_factor(ctx, kind, inverse=True) @ hat_wave_inverse(ctx, kind))


def _shift_columns(w: RingMatrix, step: int) -> RingMatrix:
    """W times the step-th power of the raise shift (step > 0) or of the
    lower shift (step < 0): column j of the product is column j - step of
    W, or zero."""
    n = w.rows
    zero = MultiPoly.zero()
    return RingMatrix(
        n, n, [w[i, j - step] if 0 <= j - step < n else zero for i in range(n) for j in range(n)]
    )


def _lax_power(ctx: TauContext, kind: str, k: int) -> RingMatrix:
    """L^k ('w_inf', raise shift) or M^k ('w_zero', lower shift) for k >= 1:
    the shift power conjugated by the triangular factor alone, since the
    exponential factor of W commutes with the shift."""
    step = k if kind == "w_inf" else -k
    return ctx.kept(("lax_power", kind, k), lambda: (
        _shift_columns(hat_wave_matrix(ctx, kind), step) @ hat_wave_inverse(ctx, kind)))


def lax_matrices(ctx: TauContext) -> tuple:
    """L and M conjugated from the two shift directions."""
    return _lax_power(ctx, "w_inf", 1), _lax_power(ctx, "w_zero", 1)


def flow_generators(ctx: TauContext, kmax: int) -> tuple:
    """B_k = (L^k)_+ and C_k = (M^k)_- for k = 1..kmax."""
    ks = range(1, kmax + 1)
    return ({k: _lax_power(ctx, "w_inf", k).project("plus") for k in ks},
            {k: _lax_power(ctx, "w_zero", k).project("minus") for k in ks})


def _initial_value_pairs(ctx: TauContext):
    winf = full_wave_matrix(ctx, "w_inf")
    yield "W0 = Winf A", full_wave_matrix(ctx, "w_zero"), winf @ ctx.a


def _wave_inverse_pairs(ctx: TauContext):
    for kind in ("w_inf", "w_zero"):
        prod = hat_wave_matrix(ctx, kind) @ hat_wave_inverse(ctx, kind)
        yield f"{kind} times inverse = 1", prod, RingMatrix.identity(ctx.n - ctx.m)


def _linear_flow_pairs(ctx: TauContext, j: int, flow: str, kind: str):
    if flow not in ("x", "y"):
        raise ValueError(flow)
    bs, cs = flow_generators(ctx, j)
    gen = bs[j] if flow == "x" else cs[j]
    w = full_wave_matrix(ctx, kind)
    yield f"d/d{flow}{j} {kind} = generator {kind}", w.diff(f"{flow}{j}"), gen @ w


def _zakharov_shabat_pairs(ctx: TauContext, j: int, k: int):
    """The three compatibility identities at orders (j, k), each against 0."""
    bs, cs = flow_generators(ctx, max(j, k))
    xj, xk = f"x{j}", f"x{k}"
    yj, yk = f"y{j}", f"y{k}"
    yield f"dB{k}/d{xj} - dB{j}/d{xk} + [B{k}, B{j}] = 0", (
        bs[k].diff(xj) - bs[j].diff(xk) + bs[k].commutator(bs[j])), None
    yield f"dC{k}/d{yj} - dC{j}/d{yk} + [C{k}, C{j}] = 0", (
        cs[k].diff(yj) - cs[j].diff(yk) + cs[k].commutator(cs[j])), None
    yield f"dB{k}/d{yj} - dC{j}/d{xk} + [B{k}, C{j}] = 0", (
        bs[k].diff(yj) - cs[j].diff(xk) + bs[k].commutator(cs[j])), None


_PAIRS = {
    "initial-value-relation": _initial_value_pairs,
    "wave-inverse-identities": _wave_inverse_pairs,
    "linear-flow-equation": _linear_flow_pairs,
    "zakharov-shabat-identities": _zakharov_shabat_pairs,
}


def linear_entries(identity: str, ctx: TauContext, *args):
    """(label with (i, j), lhs entry, rhs entry) for every entry of each
    matrix pair of one of the four identities, in order; a pair whose rhs
    is None is compared against 0.  ``args`` are those of the identity's
    check after ``ctx``.  The pairs are built lazily, so a reader that stops
    at the first unequal entry never builds the pairs after it."""
    zero = MultiPoly.zero()
    for label, lhs, rhs in _PAIRS[identity](ctx, *args):
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                yield f"{label} (i, j)=({i}, {j})", lhs[i, j], zero if rhs is None else rhs[i, j]


def linear_difference(identity: str, ctx: TauContext, *args) -> tuple | None:
    """The first (label, lhs entry, rhs entry) of ``linear_entries`` whose
    sides differ, or None when the identity holds."""
    return next(((label, a, b) for label, a, b in linear_entries(identity, ctx, *args) if a != b), None)


def check_initial_value_relation(ctx: TauContext) -> bool:
    """W0 == Winf * A with the constant matrix in the middle."""
    return linear_difference("initial-value-relation", ctx) is None


def check_wave_inverses(ctx: TauContext) -> bool:
    return linear_difference("wave-inverse-identities", ctx) is None


def check_linear_flow(ctx: TauContext, j: int, flow: str, kind: str) -> bool:
    """d/dt_j W == (flow generator_j) W, exactly."""
    return linear_difference("linear-flow-equation", ctx, j, flow, kind) is None


def check_zakharov_shabat(ctx: TauContext, j: int, k: int) -> bool:
    """The three compatibility identities at orders (j, k)."""
    return linear_difference("zakharov-shabat-identities", ctx, j, k) is None


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
