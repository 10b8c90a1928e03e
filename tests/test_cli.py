"""CLI contract: exit codes, determinism, enumeration payloads."""

import json
import subprocess
import sys

import pytest

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
    ],
)
def test_invalid_arguments_exit_2_without_traceback(args):
    proc = subprocess.run(
        [sys.executable, "-m", "phasetoda.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
