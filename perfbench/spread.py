"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 0]

Runs ``run.py --trace 0`` for ten seeds from ``--first-seed`` on every
workload of BENCHMARK.json, with its run length, and prints for each metric
its median and the distance between the first and third quartiles of the
runs (``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  A benchmark is steady when every spread is below
its bound, ``setup_s`` excepted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for wl in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {wl:<14} {name:<13} median {med:<11.5g} spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bound}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
