"""One cold pass of a workload, in a fresh interpreter started by run.py.

    worker.py --workload NAME --seed N --mode setup|pass|traced --spawned T

``--spawned`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this interpreter, so set-up and wall times include the
interpreter's start.  Set-up ends once ``phasetoda`` is imported and the
seeded inputs exist; mode ``setup`` stops there.  The other modes run every
check in order, one after another, and ``traced`` wraps the layers first.

Times are reported scaled to the reference machine (calibrate.py): set-up
by a calibration right after it, and each check by the slice that follows
it, which runs once at least SLICE_EVERY_S of check time has passed.  The
wall time is the scaled set-up plus the scaled check times, so the slices
themselves are not in it; raw times are reported beside the scaled ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Check time between calibration slices (see calibrate.py).
SLICE_EVERY_S = 0.05


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import phasetoda

    if not Path(phasetoda.__file__).resolve().is_relative_to(SRC):
        print(f"phasetoda imported from {phasetoda.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import workloads

    checks = workloads.build(args.workload, args.seed)
    setup_raw = time.monotonic() - args.spawned
    setup_factor = statistics.median(calibrate.factor() for _ in range(3))
    out = {"checks": len(checks), "setup_s": setup_raw * setup_factor, "setup_raw_s": setup_raw}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    raw, scaled, verdicts, failures = [], [], [], []
    pending = 0.0  # check time since the last calibration slice
    for index, (label, thunk) in enumerate(checks):
        start = time.perf_counter()
        try:
            ok = thunk() is True
            witness = None if ok else "returned a value other than True"
        except Exception as exc:  # a raising check is a failed check, never skipped
            ok = False
            witness = type(exc).__name__
            traceback.print_exc()
        raw.append(time.perf_counter() - start)
        verdicts.append(ok)
        if not ok:
            failures.append([label, witness])
        pending += raw[-1]
        if pending >= SLICE_EVERY_S or index == len(checks) - 1:
            f = calibrate.factor()
            scaled += [d * f for d in raw[len(scaled):]]
            pending = 0.0
    if tracer is not None:
        tracer.uninstall()
        pass_factor = sum(scaled) / sum(raw) if raw else 1.0
        out["layers"] = tracer.report()
        for rec in out["layers"].values():
            rec["self_s"] *= pass_factor
    out.update(
        wall_s=out["setup_s"] + sum(scaled),
        wall_raw_s=setup_raw + sum(raw),
        durations=scaled,
        verdicts=verdicts,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
