"""CLI contract: exit codes, determinism, enumeration payloads."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from phasetoda.cli import main


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


_COMPUTE = {
    "--N": _small, "--M": _small, "--k": _small, "--s": _small, "--r": _int_lists,
    # n - m stays at most 3: a symbolic size-5 tau takes half a minute
    "--m": st.integers(0, 2).map(str), "--n": st.integers(0, 3).map(str),
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
        # --N and --M are required
        st.tuples(_small, _small).map(lambda nm: ["--N", nm[0], "--M", nm[1]]),
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
