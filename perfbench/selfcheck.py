"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload, each step in a fresh interpreter:

1. a second seed: an untraced pass of seed 1 passes every check;
2. coverage: one traced pass of seed 0 also runs under cProfile, and for
   every function the tracer wraps, the calls (for generators, the
   resumptions) that reached it through the tracer's wrappers must equal
   cProfile's count of calls of the function itself.  A count cProfile sees
   and the tracer does not means some module called the function under a
   name the tracer did not replace.

Determinism is checked by every ``run.py --trace 1`` run, not here: it runs
at least two traced passes of its seed, each in a fresh interpreter, and
fails unless they give identical verdict sequences and identical counts.

Exits 1 when any check fails.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED, SECOND_SEED = 0, 1


def profile_one(workload: str, seed: int) -> dict:
    """Traced and profiled pass in this interpreter: {function: [traced, profiled]}."""
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    checks = workloads.build(workload, seed)
    tracer = spans.Tracer()
    tracer.install()
    profiler = cProfile.Profile()
    profiler.enable()
    verdicts = [thunk() is True for _, thunk in checks]
    profiler.disable()
    tracer.uninstall()
    stats = pstats.Stats(profiler).stats
    out = {}
    for fn, traced in tracer.entries.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        out[f"{fn.__module__}.{fn.__qualname__}"] = [traced, profiled]
    return {"verdicts": verdicts, "counts": out}


def main() -> int:
    if sys.argv[1:2] == ["--profile-one"]:
        print(json.dumps(profile_one(sys.argv[2], int(sys.argv[3]))))
        return 0

    ok = True

    def report(workload, step, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print(f"{workload:<14} {step:<12} {'ok' if passed else 'FAILED'}  {detail}", flush=True)

    for wl in run.WORKLOADS:
        limit = time.monotonic() + 600
        other = run.spawn(wl, SECOND_SEED, "pass", limit)
        report(wl, "second-seed", all(other["verdicts"]),
               f"seed {SECOND_SEED}: {sum(other['verdicts'])} of {len(other['verdicts'])} checks pass")

        cmd = [sys.executable, str(Path(__file__).resolve()), "--profile-one", wl, str(SEED)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        mismatched = {k: v for k, v in res["counts"].items() if v[0] != v[1]}
        reached = sum(1 for v in res["counts"].values() if v[1])
        report(wl, "coverage", not mismatched and all(res["verdicts"]),
               f"seed {SEED}: {len(res['counts'])} wrapped functions, {reached} called, "
               f"{sum(v[1] for v in res['counts'].values())} profiled calls, "
               f"mismatches: {mismatched or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
