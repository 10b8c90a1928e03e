"""Command-line front end: compute, verify, enumerate, suite.

Exit codes: 0 all checks passed, 1 at least one identity failed,
2 configuration or I/O error.  Reports are deterministic JSON for a fixed
(command, seed); timing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from .algebra import RingMatrix, det_exact
from .combinatorics import (
    OccupationSequence,
    Partition,
    enumerate_path_configs,
    enumerate_plane_partitions,
    enumerate_tableaux,
    partitions_in_box,
    SkewShape,
)
from .errors import ConfigError, PhaseTodaError
from .phase import boundary_correlator, scalar_product
from .reports import build_report, emit_report
from .suites import FAMILIES, SUITES, run_family, run_suite
from .toda import TauContext, generic_constant_matrix, tau, tau_schur_expand


def _names(prefix, count):
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _int_list(text: str) -> str:
    """argparse type: comma-separated integers (or empty), kept as text so the
    report echoes the argument as given."""
    for part in text.split(",") if text else ():
        try:
            int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return text


def _ints(text: str) -> tuple:
    """The integers of a comma-separated list that ``_int_list`` accepted."""
    return tuple(int(p) for p in text.split(",")) if text else ()


def _load_matrix(path: str, size: int) -> RingMatrix:
    try:
        with open(path) as fh:
            rows = [[int(cell) for cell in row] for row in csv.reader(fh) if row]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix file: {exc}")
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ConfigError(f"matrix file must be {size}x{size} integers")
    mat = RingMatrix.from_rows(rows)
    for s in range(1, size + 1):
        if det_exact(mat.submatrix(range(s), range(s))).is_zero():
            raise ConfigError(f"leading principal minor {s} vanishes")
    return mat


def _context(args) -> TauContext:
    size = args.n - args.m
    if size <= 0:
        raise ConfigError("need n > m")
    if args.matrix == "identity" or args.matrix == "delta":
        mat = RingMatrix.identity(size)
    elif args.matrix == "seeded-random":
        mat = generic_constant_matrix(size, args.seed)
    else:
        mat = _load_matrix(args.matrix, size)
    return TauContext.symbolic(args.m, args.n, mat)


def cmd_compute(args) -> int:
    t0 = time.time()
    items = []
    if args.object == "tau":
        ctx = _context(args)
        sites = range(args.m, args.n + 1) if args.s is None else [args.s]
        for s in sites:
            value = tau(ctx, s)
            ok = value == tau_schur_expand(ctx, s)
            items.append(
                {
                    "identity": "tau",
                    "parameters": {"s": s},
                    "pass": ok,
                    "value": value.to_str(),
                }
            )
    elif args.object == "scalar":
        un, vn = _names("u", args.N), _names("v", args.N)
        methods = ["fock_pairing", "schur_sum", "determinant"]
        values = {meth: scalar_product(args.N, args.M, un, vn, meth) for meth in methods}
        ok = len({v.to_str() for v in values.values()}) == 1
        items.append(
            {
                "identity": "scalar-product",
                "parameters": {"N": args.N, "M": args.M},
                "pass": ok,
                "value": values["fock_pairing"].to_str(),
            }
        )
    elif args.object == "correlator":
        un, vn = _names("u", args.N), _names("v", args.N)
        if args.kind == "n_point":
            rs = _ints(args.r)
            value = boundary_correlator("n_point", args.N, args.M, un, vn, rs=rs)
        else:
            value = boundary_correlator(args.kind, args.N, args.M, un, vn, k=args.k)
        items.append(
            {
                "identity": f"correlator-{args.kind}",
                "parameters": {"N": args.N, "M": args.M, "k": args.k, "r": args.r},
                "pass": True,
                "value": value.to_str(),
            }
        )
    elif args.object == "state":
        from .phase import build_conj_state, build_state

        un, vn = _names("u", args.N), _names("v", args.N)
        sv = build_conj_state(vn, args.M) if args.dual else build_state(un, args.M)
        for occ, coeff in sorted(sv.terms.items()):
            items.append(
                {
                    "identity": "state-vector",
                    "parameters": {"occupation": list(occ)},
                    "pass": True,
                    "value": coeff.to_str(),
                }
            )
    else:
        raise ConfigError(f"unknown object {args.object!r}")
    report = build_report(f"compute {args.object}", vars_of(args), items, args.seed)
    emit_report(report, args.output, time.time() - t0)
    return 0 if report["failed"] == 0 else 1


def cmd_enumerate(args) -> int:
    t0 = time.time()
    items = []
    if args.object == "pp":
        contains = None
        if args.contains:
            contains = Partition(_ints(args.contains))
        for pp in enumerate_plane_partitions(args.N, args.M):
            if contains is not None and pp.diagonal() != contains:
                continue
            items.append({"array": [list(r) for r in pp.array]})
        if args.svg:
            from .svg import pp_to_svg

            if not items:
                raise ConfigError("no plane partition to render")
            first = next(
                pp
                for pp in enumerate_plane_partitions(args.N, args.M)
                if contains is None or pp.diagonal() == contains
            )
            with open(args.svg, "w") as fh:
                fh.write(pp_to_svg(first))
    elif args.object == "partitions":
        for lam in partitions_in_box(args.N, args.M):
            items.append({"partition": list(lam.parts)})
    elif args.object == "paths":
        occupation = None
        if args.occupation:
            occupation = OccupationSequence(_ints(args.occupation))
        for cfg in enumerate_path_configs(args.N, args.M, occupation):
            items.append({"turning_rows": [list(t) for t in cfg.turns]})
    elif args.object == "tableaux":
        shape = SkewShape(Partition(_ints(args.shape)), Partition(_ints(args.inner)))
        for tab in enumerate_tableaux(shape, args.entries, args.convention):
            items.append({"rows": [list(r) for r in tab.rows]})
    else:
        raise ConfigError(f"unknown object {args.object!r}")
    payload = {
        "schema": "1",
        "command": f"enumerate {args.object}",
        "parameters": vars_of(args),
        "count": len(items),
        "items": items,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"enumerate {args.object}: {len(items)} objects [{time.time()-t0:.2f}s]", file=sys.stderr)
    return 0


def _checked_run(command: str, args, run) -> int:
    """Run ``run(timings)`` into a report.  With ``--timings`` the per-run
    records go to that side file as JSON, never into the report; the file is
    opened before the run, so a bad path fails before any check runs."""
    t0 = time.time()
    with open(args.timings, "w") if args.timings else contextlib.nullcontext() as side:
        timings = [] if side else None
        items = run(timings)
        report = build_report(command, vars_of(args), items, args.seed)
        emit_report(report, args.output, time.time() - t0)
        if side:
            json.dump({"command": command, "seed": args.seed, "runs": timings}, side, indent=2)
            side.write("\n")
    return 0 if report["failed"] == 0 else 1


def cmd_verify(args) -> int:
    return _checked_run(
        f"verify {args.identity}", args, lambda timings: run_family(args.identity, args.seed, timings)
    )


def cmd_suite(args) -> int:
    return _checked_run(
        f"suite {args.name}", args, lambda timings: run_suite(args.name, args.seed, timings)
    )


def vars_of(args) -> dict:
    skip = {"func", "output", "timings"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetoda",
        description="Exact verification of phase-model / finite 2-Toda identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute objects and print them")
    pc.add_argument("object", choices=["tau", "scalar", "correlator", "state"])
    pc.add_argument("--dual", action="store_true", help="conjugate state vector")
    pc.add_argument("--m", type=int, default=0)
    pc.add_argument("--n", type=int, default=3)
    pc.add_argument("--s", type=int, default=None, help="site (default: all)")
    pc.add_argument("--N", type=_count, default=2)
    pc.add_argument("--M", type=_count, default=2)
    pc.add_argument("--k", type=int, default=0)
    pc.add_argument("--r", type=_int_list, default="0", help="n-point indices, comma separated")
    pc.add_argument("--kind", choices=["one_hole", "seeded", "n_point"], default="one_hole")
    pc.add_argument(
        "--matrix",
        default="identity",
        help="identity | delta | seeded-random | path to CSV of integers",
    )
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=cmd_compute)

    pe = sub.add_parser("enumerate", help="enumerate combinatorial objects as JSON")
    pe.add_argument("object", choices=["pp", "partitions", "paths", "tableaux"])
    pe.add_argument("--N", type=_count, required=True)
    pe.add_argument("--M", type=_count, required=True)
    pe.add_argument("--contains", type=_int_list, default=None, help="diagonal partition filter")
    pe.add_argument("--occupation", type=_int_list, default=None, help="n_0,..,n_M")
    pe.add_argument("--shape", type=_int_list, default="")
    pe.add_argument("--inner", type=_int_list, default=None)
    pe.add_argument("--entries", type=_count, default=1)
    pe.add_argument("--convention", choices=["ascending", "descending"], default="ascending")
    pe.add_argument("--svg", type=str, default=None)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--output", default=None)
    pe.set_defaults(func=cmd_enumerate)

    pv = sub.add_parser("verify", help="run one identity family")
    pv.add_argument("identity", help="one of: " + ", ".join(FAMILIES))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--output", default=None)
    pv.add_argument("--timings", default=None, help="JSON side file of per-run seconds and counts")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("suite", help="run a verification battery")
    ps.add_argument("name", choices=[*SUITES, "all"])
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--output", default=None)
    ps.add_argument("--timings", default=None, help="JSON side file of per-run seconds and counts")
    ps.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except PhaseTodaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
