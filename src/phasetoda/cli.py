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
from collections import Counter
from math import comb, prod

from .algebra import MultiPoly, RingMatrix
from .combinatorics import (
    OccupationSequence,
    Partition,
    enumerate_path_configs,
    enumerate_plane_partitions,
    enumerate_tableaux,
    macmahon_count,
    partitions_in_box,
    SkewShape,
)
from .errors import ConfigError, PhaseTodaError
from .phase import METHODS, boundary_correlator, build_conj_state, build_state, scalar_product
from .reports import REPORT_SCHEMA_VERSION, build_report, emit
from .suites import FAMILIES, SUITES, _item, _names, run_family, run_suite
from .symfunc import _reach, jacobi_trudi
from .toda import TauContext, generic_constant_matrix, tau, tau_schur_expand, vanishing_leading_minor


# The most objects `enumerate` lists, counted before listing (MacMahon's
# product row by row for pp and paths, C(N+M, N) partitions, the
# hook-content or Jacobi-Trudi count of tableaux), each count in well under
# a second: the N = 4, M = 4 box (232,848 plane partitions or path
# configurations) takes about 3.4 s on 2 CPUs with --output, 0.6 s of it
# enumerating and most of the rest writing the JSON; N = 5, M = 3 (731,808)
# is refused.  A listing as deep as N = 1000 rows needs no recursion.
ENUMERATE_CAP = 250_000

# The counts behind the cap are exact up to this bound and end past it:
# int gives no decimal text past its digit limit (640 digits at the least).
COUNT_LIMIT = 10 ** 600

# The largest M that `compute scalar` (all three routes) runs at N = 0..4, a
# larger N is refused: each row stands where a run takes about 10 s on 2 CPUs
# (README), shared by the three routes (pairing / Schur / determinant 3.5 /
# 3.5 / 2.2 s at N = 2, M = 67; 1.4 / 2.8 / 4.3 s at N = 3, M = 12).
SCALAR_MAX_M = (700, 700, 67, 12, 5)

# The largest M that `compute state` (either side) runs at N = 0..18, a
# larger N is refused: from N = 1 each row stands where a run takes about
# 10 s on 2 CPUs (README); at N = 0 the work is linear in M and a million
# takes about 1 s.  At N = 1 the time is the monodromy sweep's: M = 1500
# takes 8.2 s, 1600 over 10 s.
STATE_MAX_M = (1_000_000, 1500, 90, 24, 12, 7, 5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1)

# The same for `compute correlator` at N = 0..10, taken over its kinds,
# whose slowest is the seeded pairing at k = 0 (N = 1, M = 1200: 8.4 s,
# 1300 over 10 s).
CORRELATOR_MAX_M = (1_000_000, 1200, 68, 13, 6, 3, 2, 1, 1, 1, 1)

# The largest size n - m that `compute tau` runs: size 7 over a seeded
# random matrix takes about 4.7 s on 2 CPUs, size 8 over 60 s (README).
TAU_MAX_N = 7


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
    s = vanishing_leading_minor(mat)
    if s is not None:
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


def _refuse_over_m_cap(what: str, args, caps: tuple) -> None:
    """Refuse (a ConfigError, exit 2) before any work an N beyond the table
    ``caps`` or an M above its row."""
    if args.N >= len(caps) or args.M > caps[args.N]:
        raise ConfigError(f"compute {what} refuses N={args.N}, M={args.M}: the largest M "
                          f"it runs at N = 0..{len(caps) - 1} is {caps}")


def _value_item(identity: str, parameters: dict, value: MultiPoly, ok: bool = True) -> dict:
    """A report item carrying the canonical text of ``value``."""
    return {**_item(identity, parameters, ok), "value": value.to_str()}


def _compute_items(args) -> list:
    """The items of ``compute``; an over-cap size is refused before any work."""
    if args.object == "tau":
        if args.n - args.m > TAU_MAX_N:
            raise ConfigError(f"compute tau refuses m={args.m}, n={args.n}: the largest size "
                              f"n - m it runs is {TAU_MAX_N}")
        ctx = _context(args)
        sites = range(args.m, args.n + 1) if args.s is None else [args.s]
        items = []
        for s in sites:
            value = tau(ctx, s)
            items.append(_value_item("tau", {"s": s}, value, value == tau_schur_expand(ctx, s)))
        return items
    if args.object == "scalar":
        _refuse_over_m_cap("scalar", args, SCALAR_MAX_M)
        un, vn = _names("u", args.N), _names("v", args.N)
        a, b, c = (scalar_product(args.N, args.M, un, vn, method) for method in METHODS)
        return [_value_item("scalar-product", {"N": args.N, "M": args.M}, a, a == b == c)]
    if args.object == "correlator":
        _refuse_over_m_cap("correlator", args, CORRELATOR_MAX_M)
        un, vn = _names("u", args.N), _names("v", args.N)
        value = boundary_correlator(args.kind, args.N, args.M, un, vn, k=args.k, rs=_ints(args.r))
        parameters = {"N": args.N, "M": args.M, "k": args.k, "r": args.r}
        return [_value_item(f"correlator-{args.kind}", parameters, value)]
    if args.object == "state":
        _refuse_over_m_cap("state", args, STATE_MAX_M)
        un, vn = _names("u", args.N), _names("v", args.N)
        sv = build_conj_state(vn, args.M) if args.dual else build_state(un, args.M)
        return [_value_item("state-vector", {"occupation": list(occ)}, coeff)
                for occ, coeff in sorted(sv.terms.items())]
    raise ConfigError(f"unknown object {args.object!r}")


def cmd_compute(args) -> int:
    return _checked_run(f"compute {args.object}", args, lambda timings: _compute_items(args))


def _tableau_count(shape: SkewShape, n: int) -> int:
    """s_shape(1^n), the number of tableaux with entries in 1..n: for a
    straight shape the hook-content product of (n + content) / hook, equal
    factors cancelled first; for a skew one the Jacobi-Trudi determinant
    over h_d(1^n) = C(n + d - 1, d), or, when it has fewer columns than
    rows, the dual one of its conjugate over e_d(1^n) = C(n, d)."""
    if not shape.inner.parts:
        lam, conj, cells = shape.outer, shape.outer.conjugate(), shape.cells()
        factors = Counter(n + j - i for i, j in cells)
        factors.subtract(lam.get(i) - j + conj.get(j) - i + 1 for i, j in cells)
        return prod(v ** e for v, e in factors.items() if e > 0) // prod(
            v ** -e for v, e in factors.items() if e < 0)
    dual = shape.outer.get(1) < shape.outer.length()
    if dual:
        shape = SkewShape(shape.outer.conjugate(), shape.inner.conjugate())
    h = [MultiPoly.const(comb(n, d) if dual else comb(n + d - 1, d) if d else 1)
         for d in range(_reach(shape) + 1)]
    return int(jacobi_trudi(shape, h).constant_value())


def _refuse_over_cap(count: int, where: str, what: str) -> None:
    """Refuse (a ConfigError, exit 2) before anything is listed when count
    exceeds the cap; a count that was ended past COUNT_LIMIT is named by it."""
    if count > ENUMERATE_CAP:
        shown = count if count <= COUNT_LIMIT else "more than 10^600"
        raise ConfigError(f"{where} holds {shown} {what}, more than the {ENUMERATE_CAP} that enumerate lists")


def cmd_enumerate(args) -> int:
    t0 = time.time()
    if args.object != "tableaux" and (args.N is None or args.M is None):
        raise ConfigError(f"enumerate {args.object} needs --N and --M")
    box = f"the N={args.N}, M={args.M} box"
    if args.object in ("pp", "paths"):
        _refuse_over_cap(macmahon_count(args.N, args.M, COUNT_LIMIT), box, "plane partitions")
    elif args.object == "partitions":
        # C(N + M, N) >= 2^min(N, M), past COUNT_LIMIT once the shorter side passes 2000
        count = comb(args.N + args.M, args.N) if min(args.N, args.M) <= 2000 else COUNT_LIMIT + 1
        _refuse_over_cap(count, box, "partitions")
    items = []
    if args.object == "pp":
        contains = Partition(_ints(args.contains)) if args.contains else None
        first = None
        for pp in enumerate_plane_partitions(args.N, args.M):
            if contains is not None and pp.diagonal() != contains:
                continue
            first = first or pp
            items.append({"array": [list(r) for r in pp.array]})
        if args.svg:
            from .svg import pp_to_svg

            if first is None:
                raise ConfigError("no plane partition to render")
            with open(args.svg, "w") as fh:
                fh.write(pp_to_svg(first))
    elif args.object == "partitions":
        for lam in partitions_in_box(args.N, args.M):
            items.append({"partition": list(lam.parts)})
    elif args.object == "paths":
        occupation = OccupationSequence(_ints(args.occupation)) if args.occupation else None
        for cfg in enumerate_path_configs(args.N, args.M, occupation):
            items.append({"turning_rows": [list(t) for t in cfg.turns]})
    elif args.object == "tableaux":
        shape = SkewShape(Partition(_ints(args.shape)), Partition(_ints(args.inner)))
        count = _tableau_count(shape, args.entries)
        _refuse_over_cap(count, f"the shape {shape}", f"tableaux over {args.entries} letters")
        for tab in enumerate_tableaux(shape, args.entries, args.convention):
            items.append({"rows": [list(r) for r in tab.rows]})
    else:
        raise ConfigError(f"unknown object {args.object!r}")
    payload = {
        "schema": REPORT_SCHEMA_VERSION,
        "command": f"enumerate {args.object}",
        "parameters": vars_of(args),
        "count": len(items),
        "items": items,
    }
    emit(payload, args.output, f"enumerate {args.object}: {len(items)} objects [{time.time()-t0:.2f}s]")
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
        emit(report, args.output,
             f"{command}: {report['passed']} passed, {report['failed']} failed [{time.time() - t0:.2f}s]")
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
    pc.set_defaults(func=cmd_compute, timings=None)

    pe = sub.add_parser("enumerate", help="enumerate combinatorial objects as JSON")
    pe.add_argument("object", choices=["pp", "partitions", "paths", "tableaux"])
    pe.add_argument("--N", type=_count, default=None, help="box size (all but tableaux)")
    pe.add_argument("--M", type=_count, default=None, help="box size (all but tableaux)")
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
