"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every identity is checked with exact equality (tolerance zero).  The
stated time targets are asserted where the criteria pin them.  Batteries
shared between criteria run once in a module fixture, and a criterion
names the families it checks from the table in ``phasetoda.suites``;
a criterion with a time budget reads its generator's seconds from the
same run.
"""

import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from phasetoda.cli import make_parser, vars_of
from phasetoda.reports import build_report, serialize_report
from phasetoda.suites import BOUNDS, FAMILIES, RAISED, SUITES, run_suite

SEED = 20260809
SRC = str(Path(__file__).resolve().parent.parent / "src")
# every suite's items by suite name, and each family's generator seconds
Batteries = namedtuple("Batteries", "suites seconds")
# what criteria 1, 2 and 5 check at the least, whatever bounds.py says: these
# (identity, parameters) items, and 20 points per numeric scalar item
GRID = [{"N": n, "M": m} for n in range(5) for m in range(4)]
PINNED = {
    "scalar-equivalence": [("scalar-three-way-symbolic", p) for p in GRID[:12]]
    + [("scalar-three-way-numeric", p) for p in GRID[12:]],
    "state-coefficients": [("state-coefficients-schur-form", p) for p in GRID[:16]],
    "prop1": [("wave-derivative-identities", {"size": size}) for size in (2, 3, 4)],
}


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
    timings = []
    suites = {name: run_suite(name, SEED, timings) for name in SUITES}
    return Batteries(suites, {family: run["seconds"] for run in timings for family in run["families"]})


def _items(batteries, family, identities=None):
    row = FAMILIES[family]
    items = [
        it for it in batteries.suites[row.suite]
        if it["identity"] in (identities or row.identities)
        or (it["identity"] == RAISED and family in it["parameters"]["families"])
    ]
    assert items, f"no items for {family}"
    reached = [(it["identity"], it["parameters"]) for it in items]
    assert all(pin in reached for pin in PINNED.get(family, ())), f"{family} checks less than the gate pins"
    return items


def _all_pass(batteries, *families):
    return all(it["pass"] for family in families for it in _items(batteries, family))


def test_criterion_01_scalar_three_way(batteries):
    from phasetoda.algebra import MultiPoly
    from phasetoda.phase import scalar_product

    ok = _all_pass(batteries, "scalar-equivalence") and BOUNDS["scalar_numeric_points"] >= 20
    # desk anchor at (1, 1)
    u, v = MultiPoly.var("u1"), MultiPoly.var("v1")
    ok = ok and scalar_product(1, 1, ["u1"], ["v1"], "schur_sum") == (
        v * u.monomial_inverse() + u * v.monomial_inverse()
    )
    elapsed = batteries.seconds["scalar-equivalence"]
    announce(1, f"scalar-three-way ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_02_state_coefficient_forms(batteries):
    ok = _all_pass(batteries, "state-coefficients")
    elapsed = batteries.seconds["state-coefficients"]
    announce(2, f"state-coefficients-schur ({elapsed:.1f}s < 30s)", ok and elapsed < 30)


def test_criterion_03_combinatorial_triple_agreement(batteries):
    ok = _all_pass(batteries, "triple-agreement")
    announce(3, "three-picture-weighted-sums", ok)


def test_criterion_04_bijections_and_weights(batteries):
    from phasetoda.combinatorics import enumerate_path_configs, path_to_pp, pp_half_to_tableau

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
                    ok = ok and cfg.annihilation_exponent(l) == m - 2 * (d_lo[n - l] - d_lo[n + 1 - l])
    announce(4, "bijections-and-weight-preservation", ok)


def test_criterion_05_wave_derivative_identities(batteries):
    ok = all(it["pass"] for it in _items(batteries, "prop1", ("wave-derivative-identities",)))
    elapsed = batteries.seconds["prop1"]
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
    from phasetoda.algebra import MultiPoly
    from phasetoda.phase import correlator_seeded
    from phasetoda.toda import restricted_context, wave_numerator

    n = m = 2
    un = [f"u{i}" for i in range(1, n + 1)]
    vn = [f"v{i}" for i in range(1, n + 1)]
    ctx = restricted_context(un, vn, m)
    cleared = wave_numerator(ctx, ctx.m + n, "w_inf", 1).subs({un[-1]: 0})
    pref = MultiPoly.monomial(1, {**{nm: m for nm in un[:1]}, **{nm: -m for nm in vn}})
    unsigned = pref * correlator_seeded(1, n, m, un, vn, "pairing")
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
    items = [it for name in SUITES for it in batteries.suites[name]]
    report = build_report("suite all", vars_of(make_parser().parse_args(argv)), items, SEED)
    ok = proc.returncode == 0 and out.read_text() == serialize_report(report)
    announce(12, "byte-identical-reports", ok)
