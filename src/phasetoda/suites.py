"""The table of identity families behind the CLI and the acceptance tests.

``FAMILIES`` has one row per ``verify`` name: the suite the family belongs
to, the generator that checks it and the identity strings that generator
emits.  A suite runs the generators of its rows in table order, ``all`` runs
every row, and ``verify <name>`` runs its own row's generator only.

Each item is a dict {identity, parameters, pass, witness} where witness is
only present on failure and carries canonically serialized polynomials.
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
    build_conj_state,
    build_state,
    correlator_npoint,
    correlator_one_hole,
    limit_sides,
    npoint_det,
    one_hole_det,
    one_hole_stack_check,
    one_point_stack_check,
    recursion_expand_check,
    scalar_product,
    verify_rtt,
)
from .toda import (
    TauContext,
    WAVE_KINDS,
    bilinear_check,
    check_initial_value_relation,
    check_linear_flow,
    check_wave_inverses,
    check_zakharov_shabat,
    h20_expected_coefficients,
    power_sum_append_zeros_check,
    restrict_tau,
    schur_pair_sum,
    shifted_tau,
    tau,
    tau_schur_expand,
    verify_prop1,
)

def _item(identity: str, parameters: dict, ok: bool, witness: str | None = None) -> dict:
    out = {"identity": identity, "parameters": parameters, "pass": bool(ok)}
    if not ok and witness:
        out["witness"] = witness
    return out


def _clip(text: str, width: int = 160) -> str:
    """Canonical text cut to a witness-sized prefix."""
    return text if len(text) <= width else text[:width] + f"... ({len(text)} chars)"


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
    pref = MultiPoly.monomial(1, {nm: -m for nm in _names("u", n)}) if n else MultiPoly.const(1)
    return pref * sf.schur(lam, gens)


def _closed_g(lam, n, m):
    gens = sf.alphabet(_names("v", n), "inverse-squared")
    pref = MultiPoly.monomial(1, {nm: m for nm in _names("v", n)}) if n else MultiPoly.const(1)
    return pref * sf.schur(lam, gens)


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
            round_trip = all(
                pp_to_path(path_to_pp(cfg)) == cfg and path_to_pp(cfg).diagonal() == cfg.diagonal()
                for cfg in enumerate_path_configs(n, m)
            )
            yield _item("path-pp-round-trip", {"N": n, "M": m}, round_trip)
            halves_ok = True
            for lam in partitions_in_box(n, m):
                for half in itertools.chain(
                    upper_diagonal(lam, n, m), lower_diagonal(lam, n, m)
                ):
                    tab = pp_half_to_tableau(half)
                    if tableau_to_pp_half(tab, n, m) != half:
                        halves_ok = False
            yield _item("half-tableau-round-trip", {"N": n, "M": m}, halves_ok)


PICTURES = ("paths", "pp", "tableaux")


def _first_miss(cases) -> str | None:
    """Witness for the first (label, weighted sum, closed form) case whose
    weighted sum differs from the closed form in some picture, else None.
    ``cases`` is lazy, so the closed forms after the first miss are never
    built."""
    for label, weighted, want in cases:
        for pic in PICTURES:
            got = weighted(pic)
            if got != want:
                return (
                    f"{label} picture={pic}: weighted sum={_clip(got.to_str())} "
                    f"closed form={_clip(want.to_str())}"
                )
    return None


def _triple_agreement(seed: int) -> Iterator[dict]:
    nmax, mmax = BOUNDS["combi_n"], BOUNDS["combi_m"]

    for n in range(1, nmax + 1):
        for m in range(0, mmax + 1):
            un, vn = _names("u", n), _names("v", n)
            for lam in partitions_in_box(n, m):
                witness = _first_miss((
                    ("f", lambda pic: weighted_sum_f(lam, n, m, un, pic), _closed_f(lam, n, m)),
                    ("g", lambda pic: weighted_sum_g(lam, n, m, vn, pic), _closed_g(lam, n, m)),
                ))
                yield _item(
                    "state-coefficient-triple-agreement",
                    {"N": n, "M": m, "lambda": list(lam.parts)},
                    witness is None,
                    witness,
                )
            tail = vn[1:]
            pref = MultiPoly.monomial(1, {nm: m for nm in tail}) if tail else MultiPoly.const(1)
            gens = sf.alphabet(tail, "inverse-squared")
            for k in range(0, m + 1):
                witness = _first_miss(
                    (
                        f"lambda={list(lam.parts)}",
                        lambda pic, lam=lam: weighted_sum_psi1(k, lam, n, m, tail, pic),
                        pref * sf.schur(SkewShape(lam, hook(k)), gens),
                    )
                    for lam in psi1_support(k, n, m)
                )
                yield _item(
                    "hole-coefficient-triple-agreement", {"N": n, "M": m, "k": k}, witness is None, witness
                )
            for k in range(0, n + 1):
                head = un[: n - k]
                pref = MultiPoly.monomial(1, {nm: -m for nm in head}) if head else MultiPoly.const(1)
                gens = sf.alphabet(head, "squared")
                witness = _first_miss(
                    (
                        f"lambda={list(lam.parts)}",
                        lambda pic, lam=lam: weighted_sum_psi2(k, lam, n, m, head, pic),
                        pref * sf.schur(SkewShape(lam, column(k)), gens),
                    )
                    for lam in psi2_support(k, n, m)
                )
                yield _item(
                    "seed-coefficient-triple-agreement", {"N": n, "M": m, "k": k}, witness is None, witness
                )


# -- phase model -------------------------------------------------------------


def _scalar_equivalence(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)

    for n in range(0, BOUNDS["scalar_symbolic_n"] + 1):
        for m in range(0, BOUNDS["scalar_symbolic_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            a = scalar_product(n, m, un, vn, "fock_pairing")
            b = scalar_product(n, m, un, vn, "schur_sum")
            c = scalar_product(n, m, un, vn, "determinant")
            yield _item(
                "scalar-three-way-symbolic",
                {"N": n, "M": m},
                a == b == c,
                witness=f"pairing={a.to_str()} schur={b.to_str()} det={c.to_str()}",
            )

    for n in BOUNDS["scalar_numeric_n"]:
        for m in range(0, BOUNDS["scalar_numeric_m"] + 1):
            witness = None
            for _ in range(BOUNDS["scalar_numeric_points"]):
                vals = _distinct_rationals(rng, 2 * n)
                us, vs = vals[:n], vals[n:]
                a = scalar_product(n, m, us, vs, "fock_pairing")
                b = scalar_product(n, m, us, vs, "schur_sum")
                c = scalar_product(n, m, us, vs, "determinant")
                if not (a == b == c) and witness is None:
                    witness = (
                        f"u={','.join(map(str, us))} v={','.join(map(str, vs))}: "
                        f"pairing={_clip(a.to_str())} schur={_clip(b.to_str())} "
                        f"det={_clip(c.to_str())}"
                    )
            yield _item("scalar-three-way-numeric", {"N": n, "M": m}, witness is None, witness)


def _state_coefficients(seed: int) -> Iterator[dict]:
    for n in range(0, BOUNDS["state_coeff_n"] + 1):
        for m in range(0, BOUNDS["state_coeff_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            lams = partitions_in_box(n, m)
            witness = None
            for side, coeffs, closed in (
                ("ket", build_state(un, m).partition_coefficients(), _closed_f),
                ("bra", build_conj_state(vn, m).partition_coefficients(), _closed_g),
            ):
                # off the box the closed form is 0
                for lam in lams + [lam for lam in coeffs if lam not in lams]:
                    got = coeffs.get(lam, MultiPoly.zero())
                    want = closed(lam, n, m) if lam in lams else MultiPoly.zero()
                    if got != want and witness is None:
                        witness = (
                            f"{side} lambda={list(lam.parts)}: state={_clip(got.to_str())} "
                            f"schur form={_clip(want.to_str())}"
                        )
            yield _item("state-coefficients-schur-form", {"N": n, "M": m}, witness is None, witness)


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
        ok = all(tau(ctx, s) == tau_schur_expand(ctx, s) for s in range(0, size + 1))
        yield _item("tau-character-expansion", {"size": size}, ok)


def _prop1(seed: int) -> Iterator[dict]:
    for size in range(2, BOUNDS["prop1_size"] + 1):
        ctx = TauContext.generic(0, size, seed=seed + size)
        ok = True
        for s in range(1, size):
            for kind in WAVE_KINDS:
                kmax = s if kind in ("w_inf", "w_star_zero") else size - s - 1
                for k in range(0, kmax + 1):
                    if not verify_prop1(ctx, s, k, kind):
                        ok = False
        yield _item("wave-derivative-identities", {"size": size}, ok)

        ok = True
        for s in range(0, size + 1):
            for which in ("x_minus", "y_plus"):
                if s > size - 1:
                    continue
                st = shifted_tau(ctx, s, which)
                want = h20_expected_coefficients(ctx, s, which)
                if [st.coeff_of("lam", k) for k in range(len(want))] != want:
                    ok = False
                if st.degree_in("lam") > len(want) - 1:
                    ok = False
            for which in ("x_plus", "y_minus"):
                if s < 1:
                    continue
                st = shifted_tau(ctx, s, which)
                want = h20_expected_coefficients(ctx, s, which)
                if [st.coeff_of("lam", k) for k in range(len(want))] != want:
                    ok = False
        yield _item("shifted-tau-weighted-sums", {"size": size}, ok)


def _bilinear(seed: int) -> Iterator[dict]:
    size = BOUNDS["bilinear_size"]
    yield _bilinear_residues(TauContext.generic(0, size, seed=seed), size, random.Random(seed))


def _linear(seed: int) -> Iterator[dict]:
    size = BOUNDS["linear_size"]
    ctx = TauContext.generic(0, size, seed=seed + 1)
    yield _item("wave-inverse-identities", {"size": size}, check_wave_inverses(ctx))
    yield _item("initial-value-relation", {"size": size}, check_initial_value_relation(ctx))
    for j in range(1, min(BOUNDS["linear_flows"], size - 1) + 1):
        for flow in ("x", "y"):
            for kind in ("w_inf", "w_zero"):
                yield _item(
                    "linear-flow-equation",
                    {"size": size, "j": j, "flow": flow, "wave": kind},
                    check_linear_flow(ctx, j, flow, kind),
                )
    for j in range(1, min(BOUNDS["linear_flows"], size - 1) + 1):
        for k in range(1, min(BOUNDS["linear_flows"], size - 1) + 1):
            yield _item(
                "zakharov-shabat-identities",
                {"size": size, "j": j, "k": k},
                check_zakharov_shabat(ctx, j, k),
            )


def _power_sums(seed: int) -> Iterator[dict]:
    yield _item(
        "power-sum-append-zeros",
        {"letters": 2, "zeros": 2, "horizon": 6},
        power_sum_append_zeros_check(_names("m", 2), 2, 6),
    )


# -- correspondence -----------------------------------------------------------


def _prop2(seed: int) -> Iterator[dict]:
    for n in range(0, BOUNDS["correspondence_n"] + 1):
        for m in range(0, BOUNDS["correspondence_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            lhs = restrict_tau(un, vn, m)
            mid = schur_pair_sum(un, vn, m)
            yield _item(
                "restricted-tau-scalar-product",
                {"N": n, "M": m},
                lhs == mid and _prop2_ok(n, m, un, vn, lhs),
            )


def _prop2_ok(n, m, un, vn, restricted) -> bool:
    if n == 0:
        return restricted == MultiPoly.const(1)
    pref = MultiPoly.const(1)
    for a, b in zip(vn, un):
        pref = pref * MultiPoly.var(a) * MultiPoly.var(b, -1)
    return (pref ** m) * restricted == scalar_product(n, m, un, vn, "fock_pairing")


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
                    limit, rhs = limit_sides(kind, k, n, m, un, vn)
                    ok = limit == rhs
                    witness = None if ok else (
                        f"{kind} k={k}: limit={_clip(limit.to_str())} "
                        f"correlator side={_clip(rhs.to_str())}"
                    )
                    yield _item(identity, {"N": n, "M": m, "k": k}, ok, witness)


def _determinant_forms(seed: int) -> Iterator[dict]:
    for n in range(1, BOUNDS["correspondence_n"] + 1):
        for m in range(1, BOUNDS["correspondence_m"] + 1):
            un, vn = _names("u", n), _names("v", n)
            ok = all(
                one_hole_det(q, n, m, un, vn) == correlator_one_hole(q, n, m, un, vn, "pairing")
                for q in range(0, m + 1)
            )
            yield _item("hole-determinant-form", {"N": n, "M": m}, ok)
            ok = True
            for order in range(1, min(n, BOUNDS["npoint_order"]) + 1):
                for r1 in range(0, m + 1):
                    for tail in itertools.product((0, 1), repeat=order - 1):
                        rs = (r1,) + tail
                        if any(rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
                            continue
                        if npoint_det(rs, n, m, un, vn) != correlator_npoint(rs, n, m, un, vn):
                            ok = False
            yield _item("npoint-determinant-form", {"N": n, "M": m}, ok)
            yield _item("hole-stack-reassembly", {"N": n, "M": m}, one_hole_stack_check(n, m, un, vn))
            yield _item("point-stack-reassembly", {"N": n, "M": m}, one_point_stack_check(n, m, un, vn))
            ok = True
            for order in range(1, min(n - 1, BOUNDS["npoint_order"]) + 1):
                for q in range(0, order + 1):
                    rs = (1,) * (order - q) + (0,) * q
                    if not recursion_expand_check(rs, n, m, un, vn):
                        ok = False
            yield _item("expansion-recursions", {"N": n, "M": m}, ok)


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
