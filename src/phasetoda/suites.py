"""The table of identity families behind the CLI and the acceptance tests.

``FAMILIES`` has one row per ``verify`` name: the suite the family belongs
to, the generator that checks it and the identity strings that generator
emits.  A suite runs the generators of its rows in table order, ``all`` runs
every row, and ``verify <name>`` runs its own row's generator only.

Each item is a dict {identity, parameters, pass, witness} where witness is
only present on failure and carries canonically serialized polynomials.
A two-sided family gives its item a lazy stream of (label, left side,
right side) cases and reads both the verdict and the witness from it
through ``_two_sided`` and ``_first_unequal``: each side is computed once, the first unequal
case is the witness ``label: lhs=... rhs=...`` and the cases after it are
never built.
Items are generated deterministically (fixed iteration orders, seeded
randomness) so a report is byte-stable for a given (suite, seed).  A
generator that raises (any exception but a configuration error) ends with
one failed ``check-raised`` item instead of aborting the run.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import symfunc as sf
from .algebra import MultiPoly
from .bounds import BOUNDS
from .combinatorics import (
    PICTURES,
    SkewShape,
    column,
    enumerate_path_configs,
    enumerate_plane_partitions,
    hook,
    lower_diagonal,
    macmahon_count,
    partitions_in_box,
    path_to_pp,
    pp_half_to_tableau,
    pp_to_path,
    psi1_support,
    psi2_support,
    tableau_to_pp_half,
    upper_diagonal,
    weighted_sum_f,
    weighted_sum_g,
    weighted_sum_psi1,
    weighted_sum_psi2,
)
from .errors import ConfigError, DegenerateDenominator
from .phase import (
    METHODS,
    boundary_monomial,
    build_conj_state,
    build_state,
    correlator_npoint,
    correlator_one_hole,
    determinant_stack,
    limit_sides,
    npoint_det,
    one_hole_det,
    recursion_sides,
    scalar_product,
    verify_rtt,
)
from .toda import (
    TauContext,
    WAVE_KINDS,
    bilinear_check,
    h20_expected_coefficients,
    linear_entries,
    power_sum_sides,
    prop1_sides,
    restrict_tau,
    schur_pair_sum,
    shifted_tau,
    tau,
    tau_schur_expand,
    wave_k_max,
)

def _item(identity: str, parameters: dict, ok: bool, witness: str | None = None) -> dict:
    out = {"identity": identity, "parameters": parameters, "pass": bool(ok)}
    if not ok and witness:
        out["witness"] = witness
    return out


# the most characters of a polynomial's text that a witness quotes
_CLIP = 160


def _clip(text: str) -> str:
    """Canonical text cut to a witness-sized prefix."""
    return text if len(text) <= _CLIP else text[:_CLIP] + f"... ({len(text)} chars)"


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _distinct_rationals(rng: random.Random, count: int) -> list:
    seen = set()
    out = []
    while len(out) < count:
        f = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _closed_f(lam, n, m):
    gens = sf.alphabet(_names("u", n), "squared")
    return boundary_monomial((), _names("u", n), m) * sf.schur(lam, gens)


def _closed_g(lam, n, m):
    gens = sf.alphabet(_names("v", n), "inverse-squared")
    return boundary_monomial(_names("v", n), (), m) * sf.schur(lam, gens)


# -- combinatorics ----------------------------------------------------------


def _bijections(seed: int) -> Iterator[dict]:
    nmax, mmax = BOUNDS["combi_n"], BOUNDS["combi_m"]

    for n in range(0, nmax + 1):
        for m in range(0, mmax + 1):
            count = sum(1 for _ in enumerate_plane_partitions(n, m))
            yield _item(
                "plane-partition-count-macmahon",
                {"N": n, "M": m},
                count == macmahon_count(n, m),
                witness=f"enumerated {count}, formula {macmahon_count(n, m)}",
            )

    for n in range(1, nmax + 1):
        for m in range(0, mmax + 1):
            witness = _first_path_miss(n, m)
            yield _item("path-pp-round-trip", {"N": n, "M": m}, witness is None, witness)
            witness = _first_half_miss(n, m)
            yield _item("half-tableau-round-trip", {"N": n, "M": m}, witness is None, witness)


def _lists(rows) -> list:
    return [list(r) for r in rows]


def _first_path_miss(n: int, m: int) -> str | None:
    """Witness for the first path configuration that does not come back from
    its plane partition, or whose plane partition has another diagonal."""
    for cfg in enumerate_path_configs(n, m):
        pp = path_to_pp(cfg)
        back = pp_to_path(pp)
        if back != cfg or pp.diagonal() != cfg.diagonal():
            return (
                f"turns={_lists(cfg.turns)} diagonal={cfg.diagonal()} -> pp={_lists(pp.array)} "
                f"diagonal={pp.diagonal()} -> turns={_lists(back.turns)}"
            )
    return None


def _first_half_miss(n: int, m: int) -> str | None:
    """Witness for the first half that does not come back from its tableau."""
    for lam in partitions_in_box(n, m):
        for half in itertools.chain(upper_diagonal(lam, n, m), lower_diagonal(lam, n, m)):
            tab = pp_half_to_tableau(half)
            back = tableau_to_pp_half(tab, n, m)
            if back != half:
                return (
                    f"{half.side} diagonals={_lists(half.diagonals)} -> {tab.convention} "
                    f"tableau={_lists(tab.rows)} -> {back.side} diagonals={_lists(back.diagonals)}"
                )
    return None


def _first_unequal(cases, lhs: str, rhs: str) -> str | None:
    """Witness for the first (label, left side, right side) case whose sides
    differ, both sides named and cut, else None.  ``cases`` is lazy, so the
    cases after the first miss are never built."""
    for label, a, b in cases:
        if a != b:
            return f"{label}: {lhs}={_clip(str(a))} {rhs}={_clip(str(b))}"
    return None


def _two_sided(identity: str, parameters: dict, cases, lhs: str, rhs: str) -> dict:
    """The item of a two-sided identity over ``cases``: it passes when no
    case's sides differ, else ``_first_unequal`` is its witness."""
    witness = _first_unequal(cases, lhs, rhs)
    return _item(identity, parameters, witness is None, witness)


def _pictures(identity: str, parameters: dict, cases) -> dict:
    """``_two_sided`` over each (label, weighted sum, closed form) case in
    every picture, the weighted sum a function of the picture."""
    return _two_sided(identity, parameters, (
        (f"{label} picture={pic}", weighted(pic), want)
        for label, weighted, want in cases for pic in PICTURES
    ), "weighted sum", "closed form")


def _triple_agreement(seed: int) -> Iterator[dict]:
    nmax, mmax = BOUNDS["combi_n"], BOUNDS["combi_m"]

    for n in range(1, nmax + 1):
        for m in range(0, mmax + 1):
            un, vn = _names("u", n), _names("v", n)
            for lam in partitions_in_box(n, m):
                parameters = {"N": n, "M": m, "lambda": list(lam.parts)}
                yield _pictures("state-coefficient-triple-agreement", parameters, (
                    ("f", lambda pic: weighted_sum_f(lam, n, m, un, pic), _closed_f(lam, n, m)),
                    ("g", lambda pic: weighted_sum_g(lam, n, m, vn, pic), _closed_g(lam, n, m)),
                ))
            tail = vn[1:]
            pref = boundary_monomial(tail, (), m)
            gens = sf.alphabet(tail, "inverse-squared")
            for k in range(0, m + 1):
                yield _pictures("hole-coefficient-triple-agreement", {"N": n, "M": m, "k": k}, (
                    (
                        f"lambda={list(lam.parts)}",
                        lambda pic, lam=lam: weighted_sum_psi1(k, lam, n, m, tail, pic),
                        pref * sf.schur(SkewShape(lam, hook(k)), gens),
                    )
                    for lam in psi1_support(k, n, m)
                ))
            for k in range(0, n + 1):
                head = un[: n - k]
                pref = boundary_monomial((), head, m)
                gens = sf.alphabet(head, "squared")
                yield _pictures("seed-coefficient-triple-agreement", {"N": n, "M": m, "k": k}, (
                    (
                        f"lambda={list(lam.parts)}",
                        lambda pic, lam=lam: weighted_sum_psi2(k, lam, n, m, head, pic),
                        pref * sf.schur(SkewShape(lam, column(k)), gens),
                    )
                    for lam in psi2_support(k, n, m)
                ))


# -- phase model -------------------------------------------------------------


def _three_routes(n: int, m: int, us, vs) -> str | None:
    """Witness ``pairing=.. schur=.. det=..`` when the scalar product's three
    routes (``phase.METHODS``) disagree at (us, vs), else None."""
    a, b, c = (scalar_product(n, m, us, vs, method) for method in METHODS)
    if a == b == c:
        return None
    return f"pairing={_clip(a.to_str())} schur={_clip(b.to_str())} det={_clip(c.to_str())}"


def _scalar_equivalence(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)

    for n in range(0, BOUNDS["scalar_symbolic_n"] + 1):
        for m in range(0, BOUNDS["scalar_symbolic_m"] + 1):
            witness = _three_routes(n, m, _names("u", n), _names("v", n))
            yield _item("scalar-three-way-symbolic", {"N": n, "M": m}, witness is None, witness)

    for n in BOUNDS["scalar_numeric_n"]:
        for m in range(0, BOUNDS["scalar_numeric_m"] + 1):
            witness = None
            for _ in range(BOUNDS["scalar_numeric_points"]):
                vals = _distinct_rationals(rng, 2 * n)
                us, vs = vals[:n], vals[n:]
                routes = _three_routes(n, m, us, vs)
                if routes and witness is None:
                    witness = f"u={','.join(map(str, us))} v={','.join(map(str, vs))}: {routes}"
            yield _item("scalar-three-way-numeric", {"N": n, "M": m}, witness is None, witness)


def _state_coefficients(seed: int) -> Iterator[dict]:
    for n in range(0, BOUNDS["state_coeff_n"] + 1):
        for m in range(0, BOUNDS["state_coeff_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            lams = partitions_in_box(n, m)
            # off the box the closed form is 0
            cases = (
                (f"{side} lambda={list(lam.parts)}", coeffs.get(lam, MultiPoly.zero()),
                 closed(lam, n, m) if lam in lams else MultiPoly.zero())
                for side, coeffs, closed in (
                    ("ket", build_state(un, m).partition_coefficients(), _closed_f),
                    ("bra", build_conj_state(vn, m).partition_coefficients(), _closed_g),
                )
                for lam in lams + [lam for lam in coeffs if lam not in lams]
            )
            yield _two_sided("state-coefficients-schur-form", {"N": n, "M": m}, cases, "state", "schur form")


def _rtt(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)
    for m in range(0, BOUNDS["rtt_m"] + 1):
        for cap in range(1, BOUNDS["rtt_cap"] + 1):
            witness = None
            for _ in range(BOUNDS["rtt_pairs"]):
                while True:
                    u = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                    v = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                    if u * u != v * v:
                        break
                if not verify_rtt(u, v, m, cap) and witness is None:
                    witness = f"R T(u) T(v) != T(v) T(u) R at u={u}, v={v}"
            yield _item("monodromy-intertwining", {"M": m, "cap": cap}, witness is None, witness)


# -- hierarchy ----------------------------------------------------------------


def _bilinear_residues(ctx: TauContext, size: int, rng: random.Random) -> dict:
    """The bilinear residue identity on BOUNDS["bilinear_tuples"] (s, s', point)
    tuples.  An evaluation whose tau vanishes at the drawn point
    (DegenerateDenominator) is skipped; any other error propagates.  After
    BOUNDS["bilinear_draws"] points the item fails with the skipped count as
    its witness, so a check that always raises cannot loop forever."""
    want = BOUNDS["bilinear_tuples"]
    pairs = [(s, sp) for s in range(0, size) for sp in range(1, size + 1)]
    tuples = skipped = draws = 0
    witness = None
    while tuples < want and draws < BOUNDS["bilinear_draws"]:
        draws += 1
        x, xp, y, yp = (
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size - 1)]
            for _ in range(4)
        )
        for s, sp in pairs:
            if tuples >= want:
                break
            try:
                holds = bilinear_check(ctx, s, sp, x, xp, y, yp)
            except DegenerateDenominator:
                skipped += 1
                continue
            if not holds and witness is None:
                point = "; ".join(",".join(map(str, v)) for v in (x, xp, y, yp))
                witness = f"fails at s={s}, s'={sp}, x;x';y;y' = {point}"
            tuples += 1
    if tuples < want:
        witness = (
            f"{tuples} of {want} tuples checked: {skipped} evaluations hit a vanishing "
            f"tau in {draws} draws"
        )
    return _item("bilinear-residue-identity", {"size": size, "tuples": tuples}, witness is None, witness)


def _tau_expansion(seed: int) -> Iterator[dict]:
    for size in range(1, BOUNDS["schur_expand_size"] + 1):
        ctx = TauContext.generic(0, size, seed=seed + size)
        yield _two_sided("tau-character-expansion", {"size": size}, (
            (f"s={s}", tau(ctx, s), tau_schur_expand(ctx, s)) for s in range(0, size + 1)
        ), "tau", "schur expansion")


def _shifted_tau_cases(ctx: TauContext, s: int, which: str, bounded: bool) -> Iterator[tuple]:
    """(label, lam^k coefficient of a shifted tau, its wave numerator) for
    each k; ``bounded`` also takes every lam degree beyond the last wave
    numerator, against 0."""
    st = shifted_tau(ctx, s, which)
    want = h20_expected_coefficients(ctx, s, which)
    top = st.degree_in("lam")
    for k in range(max(len(want), top + 1 if bounded else 0)):
        yield (f"s={s} which={which} k={k}", st.coeff_of("lam", k),
               want[k] if k < len(want) else MultiPoly.zero())


def _prop1(seed: int) -> Iterator[dict]:
    for size in range(2, BOUNDS["prop1_size"] + 1):
        ctx = TauContext.generic(0, size, seed=seed + size)
        derivatives = (
            (f"s={s} kind={kind} k={k}", *prop1_sides(ctx, s, kind, k))
            for s in range(1, size)
            for kind in WAVE_KINDS
            for k in range(wave_k_max(ctx, s, kind) + 1)
        )
        yield _two_sided("wave-derivative-identities", {"size": size}, derivatives,
                         "wave numerator", "tau derivative")

        shifted = (
            case
            for s in range(0, size + 1)
            for which, bounded in (("x_minus", True), ("y_plus", True),
                                   ("x_plus", False), ("y_minus", False))
            if ((s < size) if bounded else (s > 0))
            for case in _shifted_tau_cases(ctx, s, which, bounded)
        )
        yield _two_sided("shifted-tau-weighted-sums", {"size": size}, shifted,
                         "coefficient", "wave numerator")


def _bilinear(seed: int) -> Iterator[dict]:
    size = BOUNDS["bilinear_size"]
    yield _bilinear_residues(TauContext.generic(0, size, seed=seed), size, random.Random(seed))


def _linear(seed: int) -> Iterator[dict]:
    size = BOUNDS["linear_size"]
    ctx = TauContext.generic(0, size, seed=seed + 1)
    orders = range(1, min(BOUNDS["linear_flows"], size - 1) + 1)
    checks = [("wave-inverse-identities", {"size": size}, ()),
              ("initial-value-relation", {"size": size}, ())]
    checks += [
        ("linear-flow-equation", {"size": size, "j": j, "flow": flow, "wave": kind}, (j, flow, kind))
        for j in orders for flow in ("x", "y") for kind in ("w_inf", "w_zero")
    ]
    checks += [("zakharov-shabat-identities", {"size": size, "j": j, "k": k}, (j, k))
               for j in orders for k in orders]
    for identity, parameters, args in checks:
        yield _two_sided(identity, parameters, linear_entries(identity, ctx, *args), "lhs", "rhs")


def _power_sums(seed: int) -> Iterator[dict]:
    yield _two_sided("power-sum-append-zeros", {"letters": 2, "zeros": 2, "horizon": 6},
                     power_sum_sides(_names("m", 2), 2, 6), "appended zeros", "power sum")


# -- correspondence -----------------------------------------------------------


def _prop2(seed: int) -> Iterator[dict]:
    for n in range(0, BOUNDS["correspondence_n"] + 1):
        for m in range(0, BOUNDS["correspondence_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            restricted, box_sum = restrict_tau(un, vn, m), schur_pair_sum(un, vn, m)
            pairing = scalar_product(n, m, un, vn, "fock_pairing")
            ok = restricted == box_sum and boundary_monomial(vn, un, m) * restricted == pairing
            witness = None if ok else (
                f"N={n} M={m}: restricted tau={_clip(restricted.to_str())} "
                f"pair sum={_clip(box_sum.to_str())} pairing={_clip(pairing.to_str())}"
            )
            yield _item("restricted-tau-scalar-product", {"N": n, "M": m}, ok, witness)


def _limits(seed: int) -> Iterator[dict]:
    for n in range(1, BOUNDS["correspondence_n"] + 1):
        for m in range(1, BOUNDS["correspondence_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            kinds = (
                ("hole-limit-correspondence", "v1_to_infinity", m),
                ("seed-limit-correspondence", "u_tail_to_zero", min(n, m)),
            )
            for identity, kind, k_max in kinds:
                for k in range(0, k_max + 1):
                    yield _two_sided(identity, {"N": n, "M": m, "k": k}, [
                        (f"{kind} k={k}", *limit_sides(kind, k, n, m, un, vn))
                    ], "limit", "correlator side")


def _determinant_forms(seed: int) -> Iterator[dict]:
    for n in range(1, BOUNDS["correspondence_n"] + 1):
        for m in range(1, BOUNDS["correspondence_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            # the n-point seeds: r_1, then 0s and 1s, weakly decreasing
            seeds = (
                (r1,) + tail
                for order in range(1, min(n, BOUNDS["npoint_order"]) + 1)
                for r1 in range(0, m + 1)
                for tail in itertools.product((0, 1), repeat=order - 1)
                if all(a >= b for a, b in zip((r1,) + tail, tail))
            )
            forms = (
                ("hole-determinant-form", (
                    (f"q={q}", one_hole_det(q, n, m, un, vn),
                     correlator_one_hole(q, n, m, un, vn, "pairing"))
                    for q in range(0, m + 1))),
                ("npoint-determinant-form", (
                    (f"rs={list(rs)}", npoint_det(rs, n, m, un, vn),
                     correlator_npoint(rs, n, m, un, vn))
                    for rs in seeds)),
            )
            for identity, cases in forms:
                yield _two_sided(identity, {"N": n, "M": m}, cases, "determinant", "pairing")
            pairing = scalar_product(n, m, un, vn, "fock_pairing")
            for kind in ("hole", "point"):
                stack = [(f"{kind} stack", determinant_stack(kind, n, m, un, vn), pairing)]
                yield _two_sided(f"{kind}-stack-reassembly", {"N": n, "M": m}, stack, "stack", "pairing")
            recursions = (
                (f"rs={list(rs)} {label}", got, want)
                for order in range(1, min(n - 1, BOUNDS["npoint_order"]) + 1)
                for rs in ((1,) * (order - q) + (0,) * q for q in range(0, order + 1))
                for label, got, want in recursion_sides(rs, n, m, un, vn)
            )
            yield _two_sided("expansion-recursions", {"N": n, "M": m}, recursions, "expansion", "recursion")


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    suite: str
    generate: Callable[[int], Iterator[dict]]
    identities: tuple


# One row per verify name, in report order: a suite's items are its rows'
# items in this order.  Only single-determinant and recursions share a
# generator, because their items alternate per (N, M).
FAMILIES = {
    name: Family(suite, generate, tuple(identities.split()))
    for name, suite, generate, identities in (
        ("bijections", "combinatorics", _bijections,
         "plane-partition-count-macmahon path-pp-round-trip half-tableau-round-trip"),
        ("triple-agreement", "combinatorics", _triple_agreement,
         "state-coefficient-triple-agreement hole-coefficient-triple-agreement "
         "seed-coefficient-triple-agreement"),
        ("scalar-equivalence", "phase", _scalar_equivalence,
         "scalar-three-way-symbolic scalar-three-way-numeric"),
        ("state-coefficients", "phase", _state_coefficients, "state-coefficients-schur-form"),
        ("rtt", "phase", _rtt, "monodromy-intertwining"),
        ("tau-expansion", "toda", _tau_expansion, "tau-character-expansion"),
        ("prop1", "toda", _prop1, "wave-derivative-identities shifted-tau-weighted-sums"),
        ("bilinear", "toda", _bilinear, "bilinear-residue-identity"),
        ("linear", "toda", _linear,
         "wave-inverse-identities initial-value-relation linear-flow-equation "
         "zakharov-shabat-identities"),
        ("power-sums", "toda", _power_sums, "power-sum-append-zeros"),
        ("prop2", "correspondence", _prop2, "restricted-tau-scalar-product"),
        ("limits", "correspondence", _limits,
         "hole-limit-correspondence seed-limit-correspondence"),
        ("single-determinant", "correspondence", _determinant_forms,
         "hole-determinant-form npoint-determinant-form hole-stack-reassembly "
         "point-stack-reassembly"),
        ("recursions", "correspondence", _determinant_forms, "expansion-recursions"),
    )
}

SUITES = tuple(dict.fromkeys(fam.suite for fam in FAMILIES.values()))


# The identity of the failed item that ends a generator which raised.
RAISED = "check-raised"


def _run(generate: Callable[[int], Iterator[dict]], seed: int, timings: list | None) -> list:
    """The items of one generator.  An exception other than a configuration
    error ends the generator with one failed item that names the error and
    the families it feeds, so the other generators still run.  When
    ``timings`` is a list, one record of the run is appended to it: the
    families, the seconds, and the counts of items and failed items."""
    families = [name for name, fam in FAMILIES.items() if fam.generate is generate]
    items = []
    start = time.perf_counter()
    try:
        for item in generate(seed):
            items.append(item)
    except ConfigError:
        raise
    except Exception as exc:
        items.append(_item(RAISED, {"families": families}, False, f"{type(exc).__name__}: {exc}"))
    if timings is not None:
        timings.append({
            "families": families,
            "seconds": round(time.perf_counter() - start, 6),
            "items": len(items),
            "failed": sum(1 for it in items if not it["pass"]),
        })
    return items


def run_suite(name: str, seed: int, timings: list | None = None) -> list:
    """Items of one suite, or of every suite for ``all``; a generator that
    two rows share runs once.  ``timings`` as in ``_run``."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    generators = [fam.generate for fam in FAMILIES.values() if name in ("all", fam.suite)]
    return [item for gen in dict.fromkeys(generators) for item in _run(gen, seed, timings)]


def run_family(name: str, seed: int, timings: list | None = None) -> list:
    """Items of one family, from its own generator only.  ``timings`` as in
    ``_run``: its record counts every item the generator made."""
    if name not in FAMILIES:
        raise ConfigError(f"unknown identity {name!r}; choose from {sorted(FAMILIES)}")
    fam = FAMILIES[name]
    wanted = (*fam.identities, RAISED)
    return [item for item in _run(fam.generate, seed, timings) if item["identity"] in wanted]
