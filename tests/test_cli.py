"""CLI contract: exit codes, determinism, enumeration payloads."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda import cli
from phasetoda.algebra import MultiPoly
from phasetoda.cli import main
from phasetoda.combinatorics import Partition, SkewShape, enumerate_tableaux, macmahon_count
from phasetoda.phase import StateVector


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out


def test_compute_tau_identity(tmp_path):
    code, out = run_cli(["compute", "tau", "--m", "0", "--n", "3"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    first = payload["items"][0]
    assert first["parameters"]["s"] == 0 and first["value"] == "1"


def test_compute_scalar(tmp_path):
    code, out = run_cli(["compute", "scalar", "--N", "1", "--M", "1"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["items"][0]["value"] == "1*u1*v1^-1 + 1*u1^-1*v1"


def test_enumerate_pp_contains_running_example(tmp_path):
    code, out = run_cli(
        ["enumerate", "pp", "--N", "3", "--M", "4", "--contains", "3,1,1"], tmp_path
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [[3, 1, 1], [3, 1, 1], [2, 1, 1]] in [it["array"] for it in payload["items"]]


def test_enumerate_pp_stdout_bytes(capsys):
    # the one JSON writer: sorted keys, two-space indent, a final newline
    assert main(["enumerate", "pp", "--N", "1", "--M", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ENUMERATE_PP_1_1
    assert captured.err.startswith("enumerate pp: 2 objects [")


ENUMERATE_PP_1_1 = """{
  "command": "enumerate pp",
  "count": 2,
  "items": [
    {
      "array": [
        [
          1
        ]
      ]
    },
    {
      "array": [
        [
          0
        ]
      ]
    }
  ],
  "parameters": {
    "M": 1,
    "N": 1,
    "command": "enumerate",
    "convention": "ascending",
    "entries": 1,
    "object": "pp",
    "seed": 0,
    "shape": ""
  },
  "schema": "1"
}
"""


@pytest.mark.parametrize("skewed", ["fock_pairing", "schur_sum", "determinant"])
def test_compute_scalar_fails_when_one_route_disagrees(skewed, monkeypatch, tmp_path):
    real = cli.scalar_product

    def route(n, m, us, vs, method):
        value = real(n, m, us, vs, method)
        return value + 1 if method == skewed else value

    monkeypatch.setattr(cli, "scalar_product", route)
    code, out = run_cli(["compute", "scalar", "--N", "1", "--M", "1"], tmp_path)
    item = json.loads(out.read_text())["items"][0]
    assert code == 1 and item["pass"] is False
    assert item["value"] == route(1, 1, ["u1"], ["v1"], "fock_pairing").to_str()


def test_enumerate_partitions_count(tmp_path):
    code, out = run_cli(["enumerate", "partitions", "--N", "2", "--M", "1"], tmp_path)
    payload = json.loads(out.read_text())
    assert payload["count"] == 3
    assert payload["items"][0]["partition"] == []


def test_enumerate_svg(tmp_path):
    svg = tmp_path / "tiling.svg"
    code, _ = run_cli(
        ["enumerate", "pp", "--N", "2", "--M", "2", "--svg", str(svg)], tmp_path
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polygon" in text


def test_suite_report_deterministic(tmp_path):
    code1, out1 = run_cli(["suite", "combinatorics", "--seed", "11"], tmp_path, "r1.json")
    code2, out2 = run_cli(["suite", "combinatorics", "--seed", "11"], tmp_path, "r2.json")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", [["suite", "combinatorics"], ["verify", "bijections"]])
def test_timings_side_file_leaves_report_bytes_alone(tmp_path, command):
    side = tmp_path / "timings.json"
    code1, plain = run_cli([*command, "--seed", "3"], tmp_path, "plain.json")
    code2, timed = run_cli([*command, "--seed", "3", "--timings", str(side)], tmp_path, "timed.json")
    assert code1 == code2 == 0
    assert plain.read_bytes() == timed.read_bytes()
    payload = json.loads(side.read_text())
    assert payload["command"] == " ".join(command) and payload["seed"] == 3
    runs = payload["runs"]
    report = json.loads(timed.read_text())
    assert sum(r["items"] for r in runs) == len(report["items"])
    for r in runs:
        assert r["families"] and r["failed"] == 0 and r["seconds"] >= 0


def test_timings_in_missing_directory_exit_2(tmp_path):
    side = tmp_path / "no-such-dir" / "timings.json"
    code, out = run_cli(["verify", "power-sums", "--timings", str(side)], tmp_path)
    assert code == 2
    assert not out.exists() and not side.exists()


def test_verify_unknown_identity_exit_2(tmp_path):
    code, _ = run_cli(["verify", "does-not-exist"], tmp_path)
    assert code == 2


def test_matrix_file_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,0\n")  # vanishing leading minor
    code = main(
        ["compute", "tau", "--m", "0", "--n", "2", "--matrix", str(bad), "--output",
         str(tmp_path / "o.json")]
    )
    assert code == 2
    good = tmp_path / "good.csv"
    good.write_text("2,1\n1,1\n")
    code = main(
        ["compute", "tau", "--m", "0", "--n", "2", "--matrix", str(good), "--output",
         str(tmp_path / "o2.json")]
    )
    assert code == 0


@pytest.mark.parametrize("obj, n, m", [("pp", 6, 6), ("pp", 5, 3), ("paths", 5, 3)])
def test_enumerate_refuses_a_box_above_the_cap(obj, n, m, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a refused box was enumerated")

    monkeypatch.setattr(cli, "enumerate_plane_partitions", never)
    monkeypatch.setattr(cli, "enumerate_path_configs", never)
    assert macmahon_count(n, m) > cli.ENUMERATE_CAP
    assert main(["enumerate", obj, "--N", str(n), "--M", str(m)]) == 2
    captured = capsys.readouterr()
    assert str(macmahon_count(n, m)) in captured.err and captured.out == ""


@pytest.mark.parametrize("obj", ["pp", "paths"])
def test_enumerate_lists_the_largest_box_under_the_cap(obj, monkeypatch, tmp_path):
    # N = 4, M = 4 is listed; the stub stands in for its 232,848 objects
    monkeypatch.setattr(cli, "enumerate_plane_partitions", lambda n, m: iter(()))
    monkeypatch.setattr(cli, "enumerate_path_configs", lambda n, m, occupation: iter(()))
    assert macmahon_count(4, 4) <= cli.ENUMERATE_CAP
    code, out = run_cli(["enumerate", obj, "--N", "4", "--M", "4"], tmp_path)
    assert code == 0 and json.loads(out.read_text())["count"] == 0


def hook_content(shape, n):
    """s_shape(1^n) of a straight shape: prod over its cells (n + content) / hook."""
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1
    return num // den


def never(*args):
    raise AssertionError("a refused count was enumerated")


@pytest.mark.parametrize(
    "args, count",
    [
        (["partitions", "--N", "30", "--M", "30"], comb(60, 30)),
        (["partitions", "--N", "1", "--M", "250000"], 250_001),
        (["tableaux", "--shape", "3,2,1", "--entries", "16"], hook_content((3, 2, 1), 16)),
        (["tableaux", "--shape", "5", "--entries", "30"], hook_content((5,), 30)),
        # the skew shape (4,3,2)/(2,1): 273,988 tableaux over 12 letters
        (["tableaux", "--shape", "4,3,2", "--inner", "2,1", "--entries", "12"], 273_988),
    ],
)
def test_enumerate_refuses_a_count_above_the_cap(args, count, monkeypatch, capsys):
    monkeypatch.setattr(cli, "partitions_in_box", never)
    monkeypatch.setattr(cli, "enumerate_tableaux", never)
    assert count > cli.ENUMERATE_CAP
    argv = ["enumerate", *args] + (["--N", "0", "--M", "0"] if "--N" not in args else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(count) in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["partitions", "--N", "1", "--M", "249999"],
        ["tableaux", "--shape", "3,2,1", "--entries", "15"],
        ["tableaux", "--shape", "4,3,2", "--inner", "2,1", "--entries", "11"],
    ],
)
def test_enumerate_lists_a_count_under_the_cap(args, monkeypatch, tmp_path):
    # the stubs stand in for the 250,000, 247,520 and 163,372 objects
    monkeypatch.setattr(cli, "partitions_in_box", lambda n, m: [])
    monkeypatch.setattr(cli, "enumerate_tableaux", lambda shape, n, convention: iter(()))
    code, out = run_cli(["enumerate", *args], tmp_path)
    assert code == 0 and json.loads(out.read_text())["count"] == 0


def test_tableau_count_matches_the_enumeration():
    shapes = [((2, 1), ()), ((3, 3), (1,)), ((2, 2, 1), (1, 1)), ((4, 1), (2,)), ((), ()), ((1, 1, 1), ())]
    for outer, inner in shapes:
        shape = SkewShape(Partition(outer), Partition(inner))
        for n in range(5):
            for convention in ("ascending", "descending"):
                listed = sum(1 for _ in enumerate_tableaux(shape, n, convention))
                assert cli._tableau_count(shape, n) == listed, (outer, inner, n)
        if not inner:
            assert cli._tableau_count(shape, 7) == hook_content(outer, 7)


def test_enumerate_a_tall_shape_counts_and_lists_its_one_tableau(tmp_path):
    # (1^30) over 30 letters: the count is a 30x30 triangular Jacobi-Trudi
    # determinant, and the one tableau fills the column with 1..30
    shape = ",".join(["1"] * 30)
    code, out = run_cli(["enumerate", "tableaux", "--shape", shape, "--entries", "30"], tmp_path)
    payload = json.loads(out.read_text())
    assert code == 0 and payload["count"] == 1
    assert payload["items"][0]["rows"] == [[v] for v in range(1, 31)]


@pytest.mark.parametrize("n, m", [(4, 6), (5, 0), (3, 13), (2, 68), (1, 701), (0, 701)])
def test_compute_scalar_refuses_a_size_above_the_cap(n, m, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a refused size was computed")

    monkeypatch.setattr(cli, "scalar_product", never)
    assert main(["compute", "scalar", "--N", str(n), "--M", str(m)]) == 2
    captured = capsys.readouterr()
    assert f"N={n}, M={m}" in captured.err and captured.out == ""


@pytest.mark.parametrize("n", range(len(cli.SCALAR_MAX_M)))
def test_compute_scalar_runs_the_largest_size_under_the_cap(n, monkeypatch, tmp_path):
    # the stub stands in for the three routes at the capped size
    monkeypatch.setattr(cli, "scalar_product", lambda n, m, un, vn, meth: MultiPoly.const(1))
    code, out = run_cli(["compute", "scalar", "--N", str(n), "--M", str(cli.SCALAR_MAX_M[n])], tmp_path)
    assert code == 0 and json.loads(out.read_text())["items"][0]["pass"]


@pytest.mark.parametrize("m, n", [(0, 8), (2, 10), (-1, 7), (0, 10**6)])
def test_compute_tau_refuses_a_size_above_the_cap(m, n, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a refused size was computed")

    for name in ("tau", "tau_schur_expand", "generic_constant_matrix"):
        monkeypatch.setattr(cli, name, never)
    argv = ["compute", "tau", "--m", str(m), "--n", str(n), "--matrix", "seeded-random"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"m={m}, n={n}" in captured.err and captured.out == ""


def test_compute_tau_runs_the_largest_size_under_the_cap(monkeypatch, tmp_path):
    # the stubs stand in for the minors and the character sums at the capped size
    monkeypatch.setattr(cli, "tau", lambda ctx, s: MultiPoly.const(1))
    monkeypatch.setattr(cli, "tau_schur_expand", lambda ctx, s: MultiPoly.const(1))
    code, out = run_cli(["compute", "tau", "--m", "1", "--n", str(1 + cli.TAU_MAX_N)], tmp_path)
    assert code == 0 and len(json.loads(out.read_text())["items"]) == cli.TAU_MAX_N + 1


# (object, extra arguments, cap table)
_M_CAPPED = [
    ("state", [], cli.STATE_MAX_M),
    ("state", ["--dual"], cli.STATE_MAX_M),
    ("correlator", ["--kind", "one_hole"], cli.CORRELATOR_MAX_M),
    ("correlator", ["--kind", "seeded"], cli.CORRELATOR_MAX_M),
    ("correlator", ["--kind", "n_point", "--r", "0"], cli.CORRELATOR_MAX_M),
]
# every row one above its cap, the first N past the table, and a huge size
_OVER_CAP = [
    (obj, extra, n, m)
    for obj, extra, caps in _M_CAPPED
    for n, m in [*((n, cap + 1) for n, cap in enumerate(caps)), (len(caps), 0), (10**9, 10**9)]
]
_AT_CAP = [(obj, extra, n, cap) for obj, extra, caps in _M_CAPPED for n, cap in enumerate(caps)]


def _ids(cases):
    return [f"{obj}{''.join(extra)}-N{n}-M{m}" for obj, extra, n, m in cases]


@pytest.mark.parametrize("obj, extra, n, m", _OVER_CAP, ids=_ids(_OVER_CAP))
def test_compute_state_and_correlator_refuse_a_size_above_the_cap(obj, extra, n, m, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a refused size was computed")

    for name in ("build_state", "build_conj_state", "boundary_correlator"):
        monkeypatch.setattr(cli, name, never)
    assert main(["compute", obj, "--N", str(n), "--M", str(m), *extra]) == 2
    captured = capsys.readouterr()
    assert f"compute {obj} refuses N={n}, M={m}" in captured.err and captured.out == ""


@pytest.mark.parametrize("obj, extra, n, m", _AT_CAP, ids=_ids(_AT_CAP))
def test_compute_state_and_correlator_run_the_largest_size_under_the_cap(obj, extra, n, m, monkeypatch, tmp_path):
    # the stubs stand in for the state or the pairing at the capped size
    monkeypatch.setattr(cli, "build_state", lambda names, m: StateVector(m, {}))
    monkeypatch.setattr(cli, "build_conj_state", lambda names, m: StateVector(m, {}, dual=True))
    monkeypatch.setattr(cli, "boundary_correlator", lambda *args, **kwargs: MultiPoly.const(1))
    code, out = run_cli(["compute", obj, "--N", str(n), "--M", str(m), *extra], tmp_path)
    assert code == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_enumerate_tableaux_lines_run(tmp_path):
    # the tableaux take no box, so the README lines give no --N or --M
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith("phasetoda enumerate tableaux")]
    assert lines
    for line in lines:
        code, out = run_cli(shlex.split(line)[1:], tmp_path)
        assert code == 0 and json.loads(out.read_text())["count"] > 0, line


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "phasetoda.cli", "enumerate", "partitions", "--N", "1", "--M", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["count"] == 2


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "scalar", "--N", "-1", "--M", "1"],
        ["compute", "state", "--N", "1", "--M", "-1"],
        ["enumerate", "pp", "--N", "2", "--M", "2", "--contains", "x"],
        ["compute", "correlator", "--kind", "n_point", "--r", ""],
        ["compute", "correlator", "--kind", "one_hole", "--N", "0"],
        ["enumerate", "tableaux", "--N", "1", "--M", "1", "--shape", "1", "--entries", "-1"],
        ["enumerate", "pp", "--M", "2"],
        ["enumerate", "paths", "--N", "2"],
    ],
)
def test_invalid_arguments_exit_2_without_traceback(args):
    proc = subprocess.run(
        [sys.executable, "-m", "phasetoda.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# -- fuzzed argument lists -----------------------------------------------------

_small = st.integers(-2, 3).map(str)
_int_lists = st.sampled_from(["", "0", "1,0", "2,1", "-1", "x", "1,,0"])
_seeds = st.one_of(st.integers(-3, 50).map(str), st.just("x"))


@st.composite
def _options(draw, table, flags=()):
    """Some of the options in ``table`` (flag -> value strategy) with drawn
    values, plus some of the bare ``flags``, in a drawn order."""
    chosen = draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=5))
    argv = [x for flag in chosen for x in (flag, draw(table[flag]))]
    return argv + draw(st.lists(st.sampled_from(flags), unique=True)) if flags else argv


# a box over every cap of compute scalar, state and correlator, refused unrun
_over_cap = st.integers(10**7, 10**9).map(str)
_COMPUTE = {
    "--N": st.one_of(_small, _over_cap), "--M": st.one_of(_small, _over_cap),
    "--k": _small, "--s": _small, "--r": _int_lists,
    # n - m stays at most 3 or goes over the cap, which refuses it unrun
    "--m": st.integers(0, 2).map(str),
    "--n": st.one_of(st.integers(0, 3), st.integers(cli.TAU_MAX_N + 3, 10**9)).map(str),
    "--kind": st.sampled_from(["one_hole", "seeded", "n_point", "bogus"]),
    "--matrix": st.sampled_from(["identity", "delta", "seeded-random", "no-such-file.csv"]),
    "--seed": _seeds,
}
_ENUMERATE = {
    "--contains": _int_lists, "--occupation": _int_lists,
    "--shape": _int_lists, "--inner": _int_lists, "--entries": st.integers(-1, 3).map(str),
    "--convention": st.sampled_from(["ascending", "descending", "sideways"]),
}
# the cheap families, and names no family has
_VERIFY_NAMES = ["bijections", "triple-agreement", "tau-expansion", "bilinear", "power-sums", "nope", ""]

_argv = st.one_of(
    st.tuples(
        st.just(["compute"]),
        st.sampled_from(["tau", "scalar", "correlator", "state", "bogus"]).map(lambda o: [o]),
        _options(_COMPUTE, ("--dual",)),
    ),
    st.tuples(
        st.just(["enumerate"]),
        st.sampled_from(["pp", "partitions", "paths", "tableaux", "bogus"]).map(lambda o: [o]),
        # --N and --M are required except for tableaux
        st.one_of(st.just([]), st.tuples(_small, _small).map(lambda nm: ["--N", nm[0], "--M", nm[1]])),
        _options(_ENUMERATE),
    ),
    st.tuples(
        st.just(["verify"]),
        st.sampled_from(_VERIFY_NAMES).map(lambda o: [o]),
        _options({"--seed": _seeds}),
    ),
).map(lambda parts: [x for part in parts for x in part])


@settings(max_examples=40, deadline=None)
@given(_argv)
def test_fuzzed_arguments_exit_0_1_2_without_traceback(argv):
    # in process: an exception escaping main() is the traceback a console
    # run would print
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "args, count",
    [
        (["pp", "--N", "500", "--M", "0"], 1),
        (["pp", "--N", "990", "--M", "0"], 1),
        (["pp", "--N", "1000", "--M", "0"], 1),
        (["paths", "--N", "1000", "--M", "0"], 1),
        (["partitions", "--N", "990", "--M", "0"], 1),
        (["tableaux", "--shape", ",".join(["1"] * 400), "--entries", "400"], 1),
        (["tableaux", "--shape", "990", "--entries", "1"], 1),
        (["tableaux", "--shape", ",".join(["1"] * 400), "--inner", "1", "--entries", "400"], 400),
        (["tableaux", "--shape", "600,600", "--entries", "2"], 1),
        (["pp", "--N", "1000", "--M", "1000"], None),
        (["partitions", "--N", "10000", "--M", "10000"], None),
        (["partitions", "--N", "1000000", "--M", "1000000"], None),
        (["tableaux", "--shape", ",".join(["200"] * 200), "--entries", "300"], None),
    ],
    ids=["pp-500", "pp-990", "pp-1000", "paths-1000", "partitions-990", "column-400", "row-990", "skew-column",
         "rows-600", "pp-huge", "partitions-6021-digits", "partitions-huge", "square-200"],
)
def test_deep_or_huge_enumerations_list_or_refuse(args, count, tmp_path, capsys):
    # a listing deeper than the recursion limit, and a count too large to
    # write out, end in exit 0 or 2, never in a traceback
    code, out = run_cli(["enumerate", *args], tmp_path)
    if count is None:
        assert code == 2 and not out.exists()
        assert "holds more than 10^600 " in capsys.readouterr().err
    else:
        assert code == 0 and json.loads(out.read_text())["count"] == count
