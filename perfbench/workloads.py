"""Inputs and checks of the four benchmark workloads.

``build(name, seed)`` generates a workload's inputs from the seed and returns
its checks as ``(label, thunk)`` pairs.  Each thunk is one call into the
public API of ``phasetoda`` that returns an exact verdict: a check function
of the package, or ``==`` between two independent routes.  A thunk passes
only when it returns ``True``.

The work a pass does must not depend much on the seed, because runs made
with different seeds are compared with each other (spread.py).  So the
seed draws what the identities must hold for whatever its value (symbol
names, rational evaluation points) and never the problem sizes; the
constant matrices of the hierarchy workload, whose entries change the work
by a quarter, are pinned to ``MATRIX_SEED``.

Every program call goes through a package attribute (``toda.tau``, not a
name imported into this module), so that the tracer's patches of the
package modules reach the calls made here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from phasetoda import combinatorics as comb
from phasetoda import phase, symfunc, toda
from phasetoda.algebra import MultiPoly, RingMatrix
from phasetoda.errors import DegenerateDenominator

WORKLOADS = ("limits", "numeric", "hierarchy", "combinatorial")

# Pinned seed of the hierarchy workload's constant matrices.
MATRIX_SEED = 20090618
# Draws allowed per bilinear check before it fails as degenerate.
BILINEAR_DRAWS = 4

# Symbol prefixes the seed chooses from.  x, y, t, l, m and the underscore
# are avoided: the program names its own time, slot, spectral and zero
# variables with them.
_PREFIXES = "abcdefghkpqrsuvwz"


class DegenerateDraws(Exception):
    """Every draw allowed for a bilinear check hit a vanishing tau."""


def build(name: str, seed: int) -> list:
    """The workload's checks, in the order a pass runs them."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    return globals()[f"_{name}"](rng)


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _prefix_pair(rng: random.Random) -> tuple:
    first, second = rng.sample(_PREFIXES, 2)
    return first, second


def _rational(rng: random.Random) -> Fraction:
    """A point of similar size whatever the seed: how long exact arithmetic
    takes grows with the size of the numbers."""
    return Fraction(rng.randint(7, 13), rng.randint(2, 5))


def _distinct_rationals(rng: random.Random, count: int) -> list:
    out: list = []
    while len(out) < count:
        f = _rational(rng)
        if f not in out:
            out.append(f)
    return out


# -- limits ------------------------------------------------------------------

# (N, M) boxes of the correspondence families.  The grid N <= 2, M <= 3 and
# N = 3, M = 1 runs every family; at N = 3, M = 2 only the hole limit k = 2
# and the seed limit k = 2 run, which share one restricted context and
# multiply the large dressed entries inside det_exact's minor expansion.
_LIMIT_GRID = [(n, m) for n in (1, 2) for m in (1, 2, 3)] + [(3, 1)]
_LIMIT_LARGE = [("v1_to_infinity", 2, 3, 2), ("u_tail_to_zero", 2, 3, 2)]


def _restricted_three_way(un: list, vn: list, m: int) -> bool:
    """restricted tau == Schur pair sum, and (prod v/u)^M * tau == pairing."""
    lhs = toda.restrict_tau(un, vn, m)
    if lhs != toda.schur_pair_sum(un, vn, m):
        return False
    pref = MultiPoly.const(1)
    for a, b in zip(vn, un):
        pref = pref * MultiPoly.var(a) * MultiPoly.var(b, -1)
    return pref ** m * lhs == phase.scalar_product(len(un), m, un, vn, "fock_pairing")


def _limits(rng: random.Random) -> list:
    up, vp = _prefix_pair(rng)
    checks = []
    for n, m in _LIMIT_GRID:
        un, vn = _names(up, n), _names(vp, n)
        tag = f"N={n},M={m}"
        checks.append((f"restricted-tau {tag}", lambda un=un, vn=vn, m=m: _restricted_three_way(un, vn, m)))
        for k in range(m + 1):
            checks.append(
                (f"hole-limit {tag},k={k}",
                 lambda k=k, n=n, m=m, un=un, vn=vn: phase.limit_correspondence("v1_to_infinity", k, n, m, un, vn))
            )
        for k in range(min(n, m) + 1):
            checks.append(
                (f"seed-limit {tag},k={k}",
                 lambda k=k, n=n, m=m, un=un, vn=vn: phase.limit_correspondence("u_tail_to_zero", k, n, m, un, vn))
            )
        for q in range(m + 1):
            checks.append(
                (f"hole-det {tag},q={q}",
                 lambda q=q, n=n, m=m, un=un, vn=vn: phase.one_hole_det(q, n, m, un, vn)
                 == phase.correlator_one_hole(q, n, m, un, vn, "pairing"))
            )
        for order in range(1, n + 1):
            for r1 in range(m + 1):
                for tail in itertools.product((0, 1), repeat=order - 1):
                    rs = (r1,) + tail
                    if any(rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
                        continue
                    checks.append(
                        (f"npoint-det {tag},rs={rs}",
                         lambda rs=rs, n=n, m=m, un=un, vn=vn: phase.npoint_det(rs, n, m, un, vn)
                         == phase.correlator_npoint(rs, n, m, un, vn))
                    )
        checks.append((f"hole-stack {tag}", lambda n=n, m=m, un=un, vn=vn: phase.one_hole_stack_check(n, m, un, vn)))
        checks.append((f"point-stack {tag}", lambda n=n, m=m, un=un, vn=vn: phase.one_point_stack_check(n, m, un, vn)))
        for order in range(1, n):
            for q in range(order + 1):
                rs = (1,) * (order - q) + (0,) * q
                checks.append(
                    (f"recursion {tag},rs={rs}",
                     lambda rs=rs, n=n, m=m, un=un, vn=vn: phase.recursion_expand_check(rs, n, m, un, vn))
                )
    for kind, k, n, m in _LIMIT_LARGE:
        un, vn = _names(up, n), _names(vp, n)
        checks.append(
            (f"{kind} N={n},M={m},k={k}",
             lambda kind=kind, k=k, n=n, m=m, un=un, vn=vn: phase.limit_correspondence(kind, k, n, m, un, vn))
        )
    return checks


# -- numeric -----------------------------------------------------------------

_SCALAR_N = (3, 4)
_SCALAR_M = (0, 1, 2, 3)
_SCALAR_POINTS = 4
# (M, occupation cap) of the intertwining checks; M = 2 with cap 3 alone
# would take a quarter of the pass.
_RTT_BOXES = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
_RTT_DRAWS = 2
_STATE_N = (1, 2, 3)
_STATE_M = (0, 1, 2, 3)


def _scalar_three_way(n: int, m: int, us: list, vs: list) -> bool:
    a = phase.scalar_product(n, m, us, vs, "fock_pairing")
    b = phase.scalar_product(n, m, us, vs, "schur_sum")
    c = phase.scalar_product(n, m, us, vs, "determinant")
    return a == b == c


def _closed_form(lam, names: list, m: int, side: str) -> MultiPoly:
    """(u_1..u_N)^-M S_lam(u^2) on the creation side, (v_1..v_N)^M S_lam(v^-2)
    on the annihilation side."""
    if side == "ket":
        gens, power = symfunc.alphabet(names, "squared"), -m
    else:
        gens, power = symfunc.alphabet(names, "inverse-squared"), m
    pref = MultiPoly.monomial(1, {nm: power for nm in names}) if names else MultiPoly.const(1)
    return pref * symfunc.schur(lam, gens)


def _state_coefficients(names: list, m: int, side: str) -> bool:
    """State-vector coefficients by monodromy == Schur closed forms."""
    n = len(names)
    if side == "ket":
        coeffs = phase.build_state(names, m).partition_coefficients()
    else:
        coeffs = phase.build_conj_state(names, m).partition_coefficients()
    lams = comb.partitions_in_box(n, m)
    if set(coeffs) != set(lams):
        return False
    return all(coeffs[lam] == _closed_form(lam, names, m, side) for lam in lams)


def _numeric(rng: random.Random) -> list:
    checks = []
    for n in _SCALAR_N:
        for m in _SCALAR_M:
            for point in range(_SCALAR_POINTS):
                vals = _distinct_rationals(rng, 2 * n)
                us, vs = vals[:n], vals[n:]
                checks.append(
                    (f"scalar-three-way N={n},M={m},point={point}",
                     lambda n=n, m=m, us=us, vs=vs: _scalar_three_way(n, m, us, vs))
                )
    for m, cap in _RTT_BOXES:
        for _ in range(_RTT_DRAWS):
            while True:
                u, v = _rational(rng), _rational(rng)
                if u * u != v * v:
                    break
            checks.append(
                (f"rtt M={m},cap={cap},u={u},v={v}",
                 lambda u=u, v=v, m=m, cap=cap: phase.verify_rtt(u, v, m, cap))
            )
    up, vp = _prefix_pair(rng)
    for n in _STATE_N:
        for m in _STATE_M:
            for side, prefix in (("ket", up), ("bra", vp)):
                names = _names(prefix, n)
                checks.append(
                    (f"state-coefficients {side} N={n},M={m}",
                     lambda names=names, m=m, side=side: _state_coefficients(names, m, side))
                )
    return checks


# -- hierarchy ---------------------------------------------------------------

_EXPAND_SIZES = (1, 2, 3, 4)
_PROP1_SIZES = (2, 3, 4)
# Size 5 takes the fraction-free (Bareiss) determinant path.
_BILINEAR_SIZES = (4, 5)
_LINEAR_SIZE = 3


def _leading_minors_nonzero(rows: list) -> bool:
    """Gaussian elimination without pivoting succeeds iff every leading
    principal minor is nonzero."""
    a = [[Fraction(x) for x in row] for row in rows]
    size = len(a)
    for k in range(size):
        if a[k][k] == 0:
            return False
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            for j in range(k, size):
                a[i][j] -= f * a[k][j]
    return True


def _constant_matrix(size: int, rng: random.Random, bound: int = 5) -> RingMatrix:
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        if _leading_minors_nonzero(rows):
            return RingMatrix.from_rows(rows)


def _shifted_tau_check(ctx, s: int, which: str) -> bool:
    """Coefficients of the spectrally shifted tau == the wave numerators."""
    st = toda.shifted_tau(ctx, s, which)
    want = toda.h20_expected_coefficients(ctx, s, which)
    if [st.coeff_of("lam", k) for k in range(len(want))] != want:
        return False
    return st.degree_in("lam") <= len(want) - 1


def _bilinear(ctx, s: int, sp: int, draws: list) -> bool:
    """Residue identity at the first draw where neither tau vanishes."""
    for x, xp, y, yp in draws:
        try:
            return toda.bilinear_check(ctx, s, sp, x, xp, y, yp)
        except DegenerateDenominator:
            continue
    raise DegenerateDraws(f"{len(draws)} draws, tau vanished at each")


def _hierarchy(rng: random.Random) -> list:
    mrng = random.Random(MATRIX_SEED)

    def context(size):
        return toda.TauContext.symbolic(0, size, _constant_matrix(size, mrng))

    checks = []
    for size in _EXPAND_SIZES:
        ctx = context(size)
        for s in range(size + 1):
            checks.append(
                (f"tau-character-expansion size={size},s={s}",
                 lambda ctx=ctx, s=s: toda.tau(ctx, s) == toda.tau_schur_expand(ctx, s))
            )
    for size in _PROP1_SIZES:
        ctx = context(size)
        for s in range(1, size):
            for kind in toda.WAVE_KINDS:
                kmax = s if kind in ("w_inf", "w_star_zero") else size - s - 1
                for k in range(kmax + 1):
                    checks.append(
                        (f"wave-derivative size={size},s={s},{kind},k={k}",
                         lambda ctx=ctx, s=s, k=k, kind=kind: toda.verify_prop1(ctx, s, k, kind))
                    )
        for s in range(size + 1):
            for which in toda.SHIFT_KINDS:
                if which in ("x_minus", "y_plus") and s > size - 1:
                    continue
                if which in ("x_plus", "y_minus") and s < 1:
                    continue
                checks.append(
                    (f"shifted-tau size={size},s={s},{which}",
                     lambda ctx=ctx, s=s, which=which: _shifted_tau_check(ctx, s, which))
                )
    for size in _BILINEAR_SIZES:
        ctx = context(size)
        h = size - 1
        for s in range(size):
            for sp in range(1, size + 1):
                draws = [
                    tuple(
                        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(h)]
                        for _ in range(4)
                    )
                    for _ in range(BILINEAR_DRAWS)
                ]
                checks.append(
                    (f"bilinear size={size},s={s},s'={sp}",
                     lambda ctx=ctx, s=s, sp=sp, draws=draws: _bilinear(ctx, s, sp, draws))
                )
    ctx = context(_LINEAR_SIZE)
    checks.append(("wave-inverses", lambda ctx=ctx: toda.check_wave_inverses(ctx)))
    checks.append(("initial-value-relation", lambda ctx=ctx: toda.check_initial_value_relation(ctx)))
    for flow in ("x", "y"):
        for kind in ("w_inf", "w_zero"):
            checks.append(
                (f"linear-flow j=1,{flow},{kind}",
                 lambda ctx=ctx, flow=flow, kind=kind: toda.check_linear_flow(ctx, 1, flow, kind))
            )
    checks.append(("zakharov-shabat j=1,k=1", lambda ctx=ctx: toda.check_zakharov_shabat(ctx, 1, 1)))
    return checks


# -- combinatorial -----------------------------------------------------------

_PP_BOXES = [(n, m) for n in range(1, 5) for m in range(0, 4)]
_PATH_BOXES = [(n, m) for n in range(1, 4) for m in range(0, 4)] + [(4, 1), (4, 2)]
_HALF_BOXES = [(n, m) for n in range(1, 5) for m in range(0, 4)]
_TABLEAU_BOXES = [(3, 3), (4, 2)]
_WEIGHT_BOXES = [(n, m) for n in range(1, 4) for m in range(0, 4)]


def _hook_content(lam, n: int) -> int:
    """Semistandard tableaux of shape lam with entries in 1..n."""
    conj = lam.conjugate()
    num, den = 1, 1
    for i in range(1, lam.length() + 1):
        for j in range(1, lam.get(i) + 1):
            num *= n + j - i
            den *= lam.get(i) - j + conj.get(j) - i + 1
    return num // den


def _tableau_counts(lam, n: int) -> bool:
    shape = comb.SkewShape(lam, comb.Partition(()))
    asc = sum(1 for _ in comb.enumerate_tableaux(shape, n, "ascending"))
    desc = sum(1 for _ in comb.enumerate_tableaux(shape, n, "descending"))
    return asc == desc == _hook_content(lam, n)


def _half_round_trips(n: int, m: int) -> bool:
    for lam in comb.partitions_in_box(n, m):
        for half in itertools.chain(comb.upper_diagonal(lam, n, m), comb.lower_diagonal(lam, n, m)):
            if comb.tableau_to_pp_half(comb.pp_half_to_tableau(half), n, m) != half:
                return False
    return True


def _path_round_trips(n: int, m: int) -> bool:
    return all(
        comb.pp_to_path(comb.path_to_pp(cfg)) == cfg
        and comb.path_to_pp(cfg).diagonal() == cfg.diagonal()
        for cfg in comb.enumerate_path_configs(n, m)
    )


def _weighted_sums(lam, n: int, m: int, names: list, side: str) -> bool:
    want = _closed_form(lam, names, m, side)
    weighted = comb.weighted_sum_f if side == "ket" else comb.weighted_sum_g
    return all(weighted(lam, n, m, names, pic) == want for pic in comb.PICTURES)


def _hole_weighted_sums(k: int, n: int, m: int, vn: list) -> bool:
    tail = vn[1:]
    gens = symfunc.alphabet(tail, "inverse-squared")
    pref = MultiPoly.monomial(1, {nm: m for nm in tail}) if tail else MultiPoly.const(1)
    for lam in comb.psi1_support(k, n, m):
        want = pref * symfunc.schur(comb.SkewShape(lam, comb.hook(k)), gens)
        if not all(comb.weighted_sum_psi1(k, lam, n, m, tail, pic) == want for pic in comb.PICTURES):
            return False
    return True


def _seed_weighted_sums(k: int, n: int, m: int, un: list) -> bool:
    head = un[: n - k]
    gens = symfunc.alphabet(head, "squared")
    pref = MultiPoly.monomial(1, {nm: -m for nm in head}) if head else MultiPoly.const(1)
    for lam in comb.psi2_support(k, n, m):
        want = pref * symfunc.schur(comb.SkewShape(lam, comb.column(k)), gens)
        if not all(comb.weighted_sum_psi2(k, lam, n, m, head, pic) == want for pic in comb.PICTURES):
            return False
    return True


def _combinatorial(rng: random.Random) -> list:
    up, vp = _prefix_pair(rng)
    checks = []
    for n, m in _PP_BOXES:
        checks.append(
            (f"plane-partitions-macmahon N={n},M={m}",
             lambda n=n, m=m: sum(1 for _ in comb.enumerate_plane_partitions(n, m)) == comb.macmahon_count(n, m))
        )
    for n, m in _PATH_BOXES:
        checks.append((f"path-pp-round-trip N={n},M={m}", lambda n=n, m=m: _path_round_trips(n, m)))
    for n, m in _HALF_BOXES:
        checks.append((f"half-tableau-round-trip N={n},M={m}", lambda n=n, m=m: _half_round_trips(n, m)))
    for n, m in _TABLEAU_BOXES:
        for lam in comb.partitions_in_box(n, m):
            checks.append(
                (f"tableau-count N={n},lambda={lam}", lambda lam=lam, n=n: _tableau_counts(lam, n))
            )
    for n, m in _WEIGHT_BOXES:
        un, vn = _names(up, n), _names(vp, n)
        for lam in comb.partitions_in_box(n, m):
            for side, names in (("ket", un), ("bra", vn)):
                checks.append(
                    (f"weighted-sums {side} N={n},M={m},lambda={lam}",
                     lambda lam=lam, n=n, m=m, names=names, side=side: _weighted_sums(lam, n, m, names, side))
                )
        for k in range(m + 1):
            checks.append(
                (f"hole-weighted-sums N={n},M={m},k={k}",
                 lambda k=k, n=n, m=m, vn=vn: _hole_weighted_sums(k, n, m, vn))
            )
        for k in range(n + 1):
            checks.append(
                (f"seed-weighted-sums N={n},M={m},k={k}",
                 lambda k=k, n=n, m=m, un=un: _seed_weighted_sums(k, n, m, un))
            )
    return checks
