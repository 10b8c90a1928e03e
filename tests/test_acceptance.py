"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every identity is checked with exact equality (tolerance zero).  The
stated time targets are asserted where the criteria pin them.  Batteries
shared between criteria run once in a module fixture, and a criterion
names the families it checks from the table in ``phasetoda.suites``;
criteria with their own time budgets re-run their checks directly under
the clock.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from phasetoda.cli import make_parser, vars_of
from phasetoda.reports import build_report, serialize_report
from phasetoda.suites import FAMILIES, RAISED, SUITES, run_suite

SEED = 20260809
SRC = str(Path(__file__).resolve().parent.parent / "src")


def announce(number, label, ok):
    print(f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """``suite all`` in a fresh interpreter, started before the batteries so
    that the two runs overlap; yields the process, its arguments and its
    report path."""
    out = tmp_path_factory.mktemp("cold") / "suite-all.json"
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = ["suite", "all", "--seed", str(SEED), "--output", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "phasetoda.cli", *argv],
        env=env, stdout=subprocess.DEVNULL,
    )
    yield proc, argv, out
    if proc.poll() is None:
        proc.kill()
        proc.wait()


@pytest.fixture(scope="module")
def batteries(cold_run):
    return {name: run_suite(name, SEED) for name in SUITES}


def _items(batteries, family):
    row = FAMILIES[family]
    items = [
        it for it in batteries[row.suite]
        if it["identity"] in row.identities
        or (it["identity"] == RAISED and family in it["parameters"]["families"])
    ]
    assert items, f"no items for {family}"
    return items


def _all_pass(batteries, *families):
    return all(it["pass"] for family in families for it in _items(batteries, family))


def test_criterion_01_scalar_three_way():
    import random

    from phasetoda.phase import scalar_product

    t0 = time.time()
    ok = True
    for n in range(0, 3):
        for m in range(0, 4):
            un = [f"u{i}" for i in range(1, n + 1)]
            vn = [f"v{i}" for i in range(1, n + 1)]
            a = scalar_product(n, m, un, vn, "fock_pairing")
            b = scalar_product(n, m, un, vn, "schur_sum")
            c = scalar_product(n, m, un, vn, "determinant")
            ok = ok and a == b == c
    # desk anchor at (1, 1)
    from phasetoda.algebra import MultiPoly

    u, v = MultiPoly.var("u1"), MultiPoly.var("v1")
    ok = ok and scalar_product(1, 1, ["u1"], ["v1"], "schur_sum") == (
        v * u.monomial_inverse() + u * v.monomial_inverse()
    )
    rng = random.Random(SEED)
    for n in (3, 4):
        for m in range(0, 4):
            for _ in range(20):
                seen, vals = set(), []
                while len(vals) < 2 * n:
                    f = Fraction(rng.randint(1, 12), rng.randint(1, 6))
                    if f not in seen:
                        seen.add(f)
                        vals.append(f)
                us, vs = vals[:n], vals[n:]
                a = scalar_product(n, m, us, vs, "fock_pairing")
                b = scalar_product(n, m, us, vs, "schur_sum")
                c = scalar_product(n, m, us, vs, "determinant")
                ok = ok and a == b == c
    elapsed = time.time() - t0
    announce(1, f"scalar-three-way ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_02_state_coefficient_forms():
    from phasetoda.algebra import MultiPoly
    from phasetoda.combinatorics import partitions_in_box
    from phasetoda.phase import build_conj_state, build_state
    from phasetoda import symfunc as sf

    t0 = time.time()
    ok = True
    for n in range(0, 4):
        for m in range(0, 4):
            un = [f"u{i}" for i in range(1, n + 1)]
            vn = [f"v{i}" for i in range(1, n + 1)]
            lams = partitions_in_box(n, m)
            kets = build_state(un, m).partition_coefficients()
            bras = build_conj_state(vn, m).partition_coefficients()
            ok = ok and set(kets) == set(lams) == set(bras)
            for lam in lams:
                pref_u = (
                    MultiPoly.monomial(1, {nm: -m for nm in un}) if n else MultiPoly.const(1)
                )
                pref_v = (
                    MultiPoly.monomial(1, {nm: m for nm in vn}) if n else MultiPoly.const(1)
                )
                ok = ok and kets[lam] == pref_u * sf.schur(lam, sf.alphabet(un, "squared"))
                ok = ok and bras[lam] == pref_v * sf.schur(
                    lam, sf.alphabet(vn, "inverse-squared")
                )
    elapsed = time.time() - t0
    announce(2, f"state-coefficients-schur ({elapsed:.1f}s < 30s)", ok and elapsed < 30)


def test_criterion_03_combinatorial_triple_agreement(batteries):
    ok = _all_pass(batteries, "triple-agreement")
    announce(3, "three-picture-weighted-sums", ok)


def test_criterion_04_bijections_and_weights(batteries):
    from phasetoda.combinatorics import (
        enumerate_path_configs,
        path_to_pp,
        pp_half_to_tableau,
    )

    ok = _all_pass(batteries, "bijections")
    # per-configuration weight preservation across the exhaustive universes
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            for cfg in enumerate_path_configs(n, m):
                pp = path_to_pp(cfg)
                up, lo = pp.upper_half(), pp.lower_half()
                d_up = up.diagonal_sums() + [0]
                d_lo = lo.diagonal_sums() + [0]
                t_desc = pp_half_to_tableau(up).weight(n)
                t_asc = pp_half_to_tableau(lo).weight(n)
                for l in range(1, n + 1):
                    ok = ok and cfg.creation_exponent(l) == 2 * (d_up[l - 1] - d_up[l]) - m
                    ok = ok and cfg.creation_exponent(l) == 2 * t_desc[l - 1] - m
                    ok = ok and cfg.annihilation_exponent(l) == m - 2 * t_asc[l - 1]
                    ok = ok and cfg.annihilation_exponent(l) == m - 2 * (
                        d_lo[n - l] - d_lo[n + 1 - l]
                    )
    announce(4, "bijections-and-weight-preservation", ok)


def test_criterion_05_wave_derivative_identities():
    from phasetoda.toda import TauContext, WAVE_KINDS, verify_prop1

    t0 = time.time()
    ok = True
    for size in (2, 3, 4):
        ctx = TauContext.generic(0, size, seed=SEED + size)
        for s in range(1, size):
            for kind in WAVE_KINDS:
                kmax = s if kind in ("w_inf", "w_star_zero") else size - s - 1
                for k in range(0, kmax + 1):
                    ok = ok and verify_prop1(ctx, s, k, kind)
    elapsed = time.time() - t0
    announce(5, f"wave-derivative-identities ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_06_bilinear(batteries):
    ok = _all_pass(batteries, "bilinear")
    tuples = [it["parameters"]["tuples"] for it in _items(batteries, "bilinear")]
    announce(6, f"bilinear-residues ({tuples[0]} tuples)", ok and tuples[0] >= 50)


def test_criterion_07_linear_problem(batteries):
    ok = _all_pass(batteries, "linear")
    announce(7, "linear-problem-lax-consistency", ok)


def test_criterion_08_restricted_tau(batteries):
    ok = _all_pass(batteries, "prop2")
    announce(8, "restricted-tau-equals-scalar", ok)


def test_criterion_09_limit_correspondences(batteries):
    ok = _all_pass(batteries, "limits")
    # the sign matters: dropping it must break an odd-k seed identity
    from phasetoda.algebra import as_poly
    from phasetoda.phase import correlator_seeded, prefactor
    from phasetoda.toda import restricted_context, wave_numerator

    n = m = 2
    un = [f"u{i}" for i in range(1, n + 1)]
    vn = [f"v{i}" for i in range(1, n + 1)]
    ctx = restricted_context(un, vn, m)
    cleared = wave_numerator(ctx, ctx.m + n, "w_inf", 1).subs({un[-1]: 0})
    us, vs = list(map(as_poly, un)), list(map(as_poly, vn))
    pref = prefactor(us[:1]) * prefactor(vs).monomial_inverse()
    unsigned = (pref ** m) * correlator_seeded(1, n, m, un, vn, "pairing")
    sign_essential = cleared == -unsigned and cleared != unsigned
    announce(9, "wave-correlator-limits", ok and sign_essential)


def test_criterion_10_single_determinant_forms(batteries):
    ok = _all_pass(batteries, "single-determinant", "recursions")
    announce(10, "single-determinant-forms", ok)


def test_criterion_11_intertwining(batteries):
    ok = _all_pass(batteries, "rtt")
    announce(11, "monodromy-intertwining", ok)


def test_criterion_12_deterministic_reports(batteries, cold_run):
    # the report of a cold interpreter equals the one the batteries make
    proc, argv, out = cold_run
    proc.wait(timeout=600)
    items = [it for name in SUITES for it in batteries[name]]
    report = build_report("suite all", vars_of(make_parser().parse_args(argv)), items, SEED)
    ok = proc.returncode == 0 and out.read_text() == serialize_report(report)
    announce(12, "byte-identical-reports", ok)
