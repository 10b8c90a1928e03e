"""Cold-run benchmark of the phasetoda verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload is a fresh
interpreter (worker.py) that imports ``phasetoda`` from ``src``, generates
the workload's inputs from the seed and runs its checks one after another:
a closed loop of one process and one thread.  Fresh interpreters keep the
program's caches from carrying results from one pass into the next.  Passes
repeat for about S seconds, each followed by a set-up-only interpreter, and
every figure is a median over them.  Times are scaled to a reference
machine by calibration slices run between checks (calibrate.py, worker.py),
because the raw times of one pass swing by half on a shared machine; the
raw pass times are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (spans.py), at least two of each, reports the per-layer
metrics, and fails the run unless the traced passes agree on every count.
Every verdict is checked: a run is correct only when every check of every
pass returned True.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit status is 0 only for a
correct run: 1 when a check, a pass or the set-up failed, 2 when there is
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workloads.WORKLOADS, which is not imported here because it imports the
# program, and this file must run (and refuse) where the program is missing
WORKLOADS = ("limits", "numeric", "hierarchy", "combinatorial")
# A run must end within 180 s; no interpreter is started or kept past this.
HARD_LIMIT_S = 170.0
TAIL_BEYOND = 10  # checks slower than the tail figure, per pass
# Workers always use bytecode caches, which the unmeasured first interpreter
# of a run writes, as an installed package would have them.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class PassFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, limit: float) -> dict:
    """Start one worker interpreter and wait for its JSON line."""
    timeout = limit - time.monotonic()
    if timeout <= 0:
        raise PassFailed("time limit reached")
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} interpreter killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"{mode} interpreter exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise PassFailed(f"{mode} interpreter printed no result") from None


def tail_level(n: int) -> float:
    """Highest quantile of a pass of n checks with TAIL_BEYOND checks beyond it."""
    return max(n - TAIL_BEYOND, 1) / n


def quantile(values: list, level: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(level * len(ordered)) - 1, 0)]


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced pass, by name: (value, unit)."""

    def get(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "counts": {}, "with_child": {}, "raised": {}})

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {}

    def calls_self(name, calls=True):
        rec = get(name)
        if calls:
            out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        return rec

    mul = calls_self("algebra.mul")
    out["algebra.mul.term_products"] = (mul["counts"].get("term_products", 0), "count")
    out["algebra.mul.terms_out"] = (mul["counts"].get("terms_out", 0), "count")
    for name in ("algebra.add", "algebra.divide_exact", "algebra.ratio"):
        calls_self(name)
    det = calls_self("algebra.det_exact")
    out["algebra.det_exact.bareiss_calls"] = (det["counts"].get("bareiss_calls", 0), "count")
    calls_self("algebra.subs")

    minor = get("toda.minor")
    out["toda.minor.calls"] = (minor["calls"], "count")
    misses = minor["with_child"].get("algebra.det_exact", 0)
    out["toda.minor.hit_ratio"] = (share(minor["calls"] - misses, minor["calls"]), "ratio")
    ctx = get("toda.restricted_context")
    out["toda.restricted_context.builds"] = (ctx["calls"], "count")
    out["toda.restricted_context.self_s"] = (ctx["self_s"], "s")
    for name in ("toda.dressed", "toda.tau", "toda.wave_numerator", "toda.shifted_tau"):
        calls_self(name)
    calls_self("toda.linear", calls=False)
    bil = calls_self("toda.bilinear")
    useful = bil["calls"] - bil["raised"].get("DegenerateDenominator", 0)
    out["toda.bilinear.useful_ratio"] = (share(useful, bil["calls"]), "ratio")

    for name in ("phase.build_state", "phase.pair", "phase.verify_rtt"):
        calls_self(name)
    for method in ("fock_pairing", "schur_sum", "determinant"):
        calls_self(f"phase.scalar_product.{method}", calls=False)
    limit = calls_self("phase.limit")
    built = limit["with_child"].get("toda.restricted_context", 0)
    out["phase.limit.ctx_hit_ratio"] = (share(limit["calls"] - built, limit["calls"]), "ratio")
    calls_self("phase.correlator")
    calls_self("phase.single_det", calls=False)

    for name in ("schur", "hk", "zeta_all", "char_poly", "miwa_map"):
        calls_self(f"symfunc.{name}")

    enum = calls_self("combinatorics.enumerate")
    out["combinatorics.enumerate.objects"] = (enum["counts"].get("objects", 0), "count")
    for name in ("bijection", "weighted_sum", "partitions_in_box"):
        calls_self(f"combinatorics.{name}")
    return out


def count_signature(layers: dict) -> dict:
    """Everything in a traced pass that must repeat exactly."""
    return {
        name: (rec["calls"], rec["counts"], rec["with_child"], rec["raised"])
        for name, rec in sorted(layers.items())
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "phasetoda" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'phasetoda'} is missing", file=sys.stderr)
        return 2

    begun = time.monotonic()
    limit = begun + HARD_LIMIT_S
    wl, seed = args.workload, args.seed
    try:
        # the first interpreter compiles the bytecode caches; it is not measured
        expected = spawn(wl, seed, "setup", limit)["checks"]
    except PassFailed as exc:
        print(f"{wl}: set-up failed: {exc}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + args.seconds

    passes, setups, problems = [], [], []
    attempted = failed = 0
    reference = None

    def run_pass(mode: str):
        nonlocal attempted, failed, reference
        attempted += expected
        try:
            res = spawn(wl, seed, mode, limit)
        except PassFailed as exc:
            failed += expected
            problems.append(f"{mode} pass: {exc}")
            return None
        ran = len(res["verdicts"])
        failed += (expected - ran) + res["verdicts"].count(False)
        if ran != expected or res["checks"] != expected:
            problems.append(f"{mode} pass ran {ran} of {expected} checks")
        for label, witness in res["failures"]:
            problems.append(f"{mode} pass: {label}: {witness}")
        if reference is None:
            reference = res["verdicts"]
        elif res["verdicts"] != reference:
            problems.append(f"{mode} pass gave another verdict sequence")
        setups.append(res["setup_s"])
        return res

    def more(done: list) -> bool:
        last = [p for p in done if p is not None]
        half = statistics.median(p["wall_s"] for p in last) / 2 if last else 0.0
        return time.monotonic() + half <= deadline and time.monotonic() < limit - 2 * half

    if args.trace == 0:
        while True:
            passes.append(run_pass("pass"))
            if passes[-1] is None:
                break
            try:
                setups.append(spawn(wl, seed, "setup", limit)["setup_s"])
            except PassFailed as exc:
                problems.append(f"set-up: {exc}")
            if not more(passes):
                break
        metrics = end_to_end(wl, seed, expected, [p for p in passes if p is not None], setups)
    else:
        plain, traced = [], []
        while len(traced) < 2 or more(plain + traced):
            plain.append(run_pass("pass"))
            traced.append(run_pass("traced"))
            if plain[-1] is None or traced[-1] is None:
                break
        plain = [p for p in plain if p is not None]
        traced = [p for p in traced if p is not None]
        if len({json.dumps(count_signature(p["layers"])) for p in traced}) > 1:
            problems.append("traced passes of one seed counted different work")
        metrics = per_layer(wl, seed, plain, traced)

    for line in problems:
        print(f"FAILED {line}")
    frac = failed / attempted if attempted else 1.0
    print(f"  checks_failed_frac  {frac:.6g} (failed {failed} of {attempted} checks attempted)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(wl: str, seed: int, expected: int, passes: list, setups: list) -> dict:
    """Medians over the passes; check times pooled over the passes."""

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    pooled = [d for p in passes for d in p["durations"]]
    level = tail_level(expected)
    metrics = {
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "setup_s": (med(setups), "s"),
        "checks_per_s": (len(pooled) / sum(pooled) if pooled else 0.0, "1/s"),
        "check_p50_s": (med(pooled), "s"),
        "check_tail_s": (quantile(pooled, level) if pooled else 0.0, "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }
    print(f"workload {wl} seed {seed}: {len(passes)} cold passes of {expected} checks, "
          f"{len(setups)} set-ups; times scaled to the reference machine (calibrate.py)")
    print("  pass wall scaled " + " ".join(f"{p['wall_s']:.2f}" for p in passes) + " s")
    print("  pass wall raw    " + " ".join(f"{p['wall_raw_s']:.2f}" for p in passes) + " s")
    notes = {
        "wall_s": "median pass, process start to last verdict",
        "setup_s": "median set-up: interpreter start, import, seeded inputs",
        "checks_per_s": f"{len(pooled)} checks per second of their time",
        "check_p50_s": f"median of {len(pooled)} check times",
        "check_tail_s": f"p{100 * level:.1f} of {len(pooled)} check times, "
                        f"{TAIL_BEYOND} of {expected} checks beyond it per pass",
        "peak_rss_mb": "median pass, peak resident memory",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<19} {value:.6g} {unit}  ({notes[name]})")
    return metrics


def per_layer(wl: str, seed: int, plain: list, traced: list) -> dict:
    per_pass = [layer_metrics(p["layers"]) for p in traced]
    metrics = {}
    for name, (_, unit) in (per_pass[0].items() if per_pass else layer_metrics({}).items()):
        values = [m[name][0] for m in per_pass]
        metrics[name] = (statistics.median_low(values) if values else 0.0, unit)
    overhead = 0.0
    if plain and traced:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"workload {wl} seed {seed}: {len(plain)} untraced and {len(traced)} traced cold passes, "
          "alternating; per-layer medians over the traced passes, times scaled to the reference "
          "machine; trace.overhead_s is the traced minus the untraced median wall time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
