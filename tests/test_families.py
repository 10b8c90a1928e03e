"""The table of identity families: names, identity strings, and that
``verify <name>`` reports exactly its family's items of the suite report."""

import itertools
import json

import pytest

from phasetoda import suites
from phasetoda.algebra import MultiPoly, as_poly
from phasetoda.cli import main
from phasetoda.combinatorics import enumerate_path_configs
from phasetoda.errors import ConfigError, NotDivisible
from phasetoda.phase import determinants
from phasetoda.suites import FAMILIES, SUITES

CHEAP = ("bijections", "triple-agreement", "tau-expansion", "bilinear", "power-sums")
SEED = "11"


def report_items(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == 0
    return json.loads(out.read_text())["items"]


def test_no_identity_in_two_rows():
    identities = [ident for fam in FAMILIES.values() for ident in fam.identities]
    assert len(identities) == len(set(identities))


def test_suites_follow_table_order():
    # rows of one suite are contiguous, so a suite's report is a slice of all
    runs = [suite for suite, _ in itertools.groupby(fam.suite for fam in FAMILIES.values())]
    assert runs == list(SUITES)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_name_accepted_by_verify(name, tmp_path, monkeypatch):
    # each generator is replaced by one passing item per identity of the rows
    # that share it, so that the test runs the dispatch and not the checks
    def stub(row):
        shared = [ident for fam in FAMILIES.values() if fam.generate is row.generate
                  for ident in fam.identities]
        return lambda seed: [{"identity": i, "parameters": {}, "pass": True} for i in shared]

    stubbed = {n: suites.Family(f.suite, stub(f), f.identities) for n, f in FAMILIES.items()}
    monkeypatch.setattr(suites, "FAMILIES", stubbed)
    items = report_items(tmp_path, ["verify", name])
    assert [it["identity"] for it in items] == list(FAMILIES[name].identities)


@pytest.fixture(scope="module")
def suite_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("suites")
    wanted = {FAMILIES[name].suite for name in CHEAP}
    return {suite: report_items(tmp, ["suite", suite, "--seed", SEED]) for suite in wanted}


@pytest.mark.parametrize("name", CHEAP)
def test_verify_equals_suite_items(name, suite_reports, tmp_path):
    fam = FAMILIES[name]
    got = report_items(tmp_path, ["verify", name, "--seed", SEED])
    want = [it for it in suite_reports[fam.suite] if it["identity"] in fam.identities]
    assert got and got == want
    # the generator emits every identity of its row
    assert {it["identity"] for it in got} == set(fam.identities)


def test_suite_emits_only_its_rows_identities(suite_reports):
    for suite, items in suite_reports.items():
        known = {i for fam in FAMILIES.values() if fam.suite == suite for i in fam.identities}
        assert {it["identity"] for it in items} <= known, suite


def test_raising_generator_fails_one_item_and_the_rest_still_run(tmp_path, monkeypatch):
    check_raising_generator(tmp_path, monkeypatch, NotDivisible("remainder 1"))


def test_plain_python_error_in_a_generator_fails_one_item(tmp_path, monkeypatch):
    check_raising_generator(tmp_path, monkeypatch, ZeroDivisionError("remainder 1"))


def check_raising_generator(tmp_path, monkeypatch, error):
    # an exception other than ConfigError (a package error or a plain Python
    # one) ends its generator with one failed item naming the error; the run
    # writes its report and exits 1
    def raising(seed):
        yield {"identity": "path-pp-round-trip", "parameters": {}, "pass": True}
        raise error

    row = FAMILIES["bijections"]
    monkeypatch.setitem(FAMILIES, "bijections", suites.Family(row.suite, raising, row.identities))
    monkeypatch.setitem(suites.BOUNDS, "combi_n", 1)
    monkeypatch.setitem(suites.BOUNDS, "combi_m", 1)
    out = tmp_path / "report.json"
    assert main(["suite", "combinatorics", "--seed", SEED, "--output", str(out)]) == 1
    items = json.loads(out.read_text())["items"]
    raised = [it for it in items if it["identity"] == suites.RAISED]
    assert raised == [{
        "identity": suites.RAISED,
        "parameters": {"families": ["bijections"]},
        "pass": False,
        "witness": f"{type(error).__name__}: remainder 1",
    }]
    assert items[0]["identity"] == "path-pp-round-trip"
    others = FAMILIES["triple-agreement"].identities
    assert {it["identity"] for it in items if it["identity"] in others} == set(others)


def test_raised_item_survives_the_filter_of_a_shared_generator(monkeypatch):
    def raising(seed):
        raise NotDivisible("remainder 1")

    for name in ("single-determinant", "recursions"):
        row = FAMILIES[name]
        monkeypatch.setitem(FAMILIES, name, suites.Family(row.suite, raising, row.identities))
    for name in ("single-determinant", "recursions"):
        (item,) = suites.run_family(name, 0)
        assert item["identity"] == suites.RAISED and not item["pass"]
        assert item["parameters"]["families"] == ["single-determinant", "recursions"]


def test_keyboard_interrupt_in_a_generator_propagates(monkeypatch):
    def raising(seed):
        raise KeyboardInterrupt

    row = FAMILIES["power-sums"]
    monkeypatch.setitem(FAMILIES, "power-sums", suites.Family(row.suite, raising, row.identities))
    with pytest.raises(KeyboardInterrupt):
        suites.run_family("power-sums", 0)


def test_config_error_in_a_generator_still_exits_2(monkeypatch, capsys):
    def raising(seed):
        raise ConfigError("bad bound")

    row = FAMILIES["power-sums"]
    monkeypatch.setitem(FAMILIES, "power-sums", suites.Family(row.suite, raising, row.identities))
    assert main(["verify", "power-sums"]) == 2
    assert "bad bound" in capsys.readouterr().err


def test_failed_path_round_trip_names_the_configuration(monkeypatch):
    # every plane partition is read back as the first configuration of its box
    monkeypatch.setattr(suites, "pp_to_path", lambda pp: next(enumerate_path_configs(pp.n, pp.m)))
    monkeypatch.setitem(suites.BOUNDS, "combi_n", 1)
    monkeypatch.setitem(suites.BOUNDS, "combi_m", 1)
    failed = [it for it in suites.run_family("bijections", 0) if not it["pass"]]
    assert failed == [{
        "identity": "path-pp-round-trip",
        "parameters": {"N": 1, "M": 1},
        "pass": False,
        "witness": "turns=[[0]] diagonal=() -> pp=[[0]] diagonal=() -> turns=[[1]]",
    }]


def test_failed_restricted_tau_names_its_three_sides(monkeypatch):
    # a pair sum off by one fails every (N, M) with the restricted tau, the
    # pair sum and the pairing in the witness
    right = suites.schur_pair_sum
    monkeypatch.setattr(suites, "schur_pair_sum", lambda *args: right(*args) + 1)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_n", 1)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_m", 1)
    items = suites.run_family("prop2", 0)
    assert len(items) == 4
    for it in items:
        assert not it["pass"]
        n, m = it["parameters"]["N"], it["parameters"]["M"]
        assert it["witness"].startswith(f"N={n} M={m}: restricted tau=")
        assert " pair sum=" in it["witness"] and " pairing=" in it["witness"]


def test_failed_npoint_form_names_the_first_seed(monkeypatch):
    # an n-point determinant off by one fails at the first seed, rs = [0]
    right = suites.npoint_det
    monkeypatch.setattr(suites, "npoint_det", lambda *args: right(*args) + 1)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_n", 1)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_m", 1)
    items = suites.run_family("single-determinant", 0)
    failed = [it for it in items if not it["pass"]]
    assert [it["identity"] for it in failed] == ["npoint-determinant-form"]
    assert failed[0]["witness"].startswith("rs=[0]: determinant=")
    assert " pairing=" in failed[0]["witness"]


def test_failed_recursion_names_the_first_seed_and_j(monkeypatch):
    # every two-point determinant doubled: the one-point seed rs = [1] fails
    # at its first coefficient, j = 0
    right = determinants.npoint_det
    monkeypatch.setattr(
        determinants, "npoint_det",
        lambda rs, *args: right(rs, *args) * (2 if len(rs) == 2 else 1),
    )
    monkeypatch.setitem(suites.BOUNDS, "correspondence_n", 2)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_m", 1)
    failed = [it for it in suites.run_family("recursions", 0) if not it["pass"]]
    assert [it["parameters"] for it in failed] == [{"N": 2, "M": 1}]
    assert failed[0]["witness"] == (
        "rs=[1] j=0: expansion=1*v1*v2^-1 + 1*v1^-1*v2 recursion=2*v1*v2^-1 + 2*v1^-1*v2"
    )


def test_failed_recursion_window_names_the_stray_power(monkeypatch):
    # a one-point determinant with a power of u1 beyond u1^M: every
    # coefficient agrees, the degree window does not
    right = determinants.npoint_det
    monkeypatch.setattr(
        determinants, "npoint_det",
        lambda rs, n, m, us, vs: right(rs, n, m, us, vs)
        + (as_poly(us[0]) ** (m + 2) if len(rs) == 1 else 0),
    )
    monkeypatch.setitem(suites.BOUNDS, "correspondence_n", 2)
    monkeypatch.setitem(suites.BOUNDS, "correspondence_m", 1)
    items = suites.run_family("recursions", 0)
    failed = [it for it in items if it["identity"] == "expansion-recursions" and not it["pass"]]
    assert [it["parameters"] for it in failed] == [{"N": 2, "M": 1}]
    assert failed[0]["witness"].startswith("rs=[1] window: expansion=")
    assert " recursion=" in failed[0]["witness"]


def test_failed_symbolic_scalar_product_names_its_three_sides_cut(monkeypatch):
    # the determinant route off by a long polynomial: only the symbolic
    # items carry a witness, each side cut like every other witness
    right = suites.scalar_product
    junk = sum((MultiPoly.var(f"w{i}") for i in range(60)), MultiPoly.zero())
    monkeypatch.setattr(
        suites, "scalar_product",
        lambda n, m, us, vs, method: right(n, m, us, vs, method)
        + (junk if method == "determinant" and n == 1 else 0),
    )
    monkeypatch.setitem(suites.BOUNDS, "scalar_symbolic_n", 1)
    monkeypatch.setitem(suites.BOUNDS, "scalar_symbolic_m", 1)
    monkeypatch.setitem(suites.BOUNDS, "scalar_numeric_n", ())
    items = suites.run_family("scalar-equivalence", 0)
    assert [it["pass"] for it in items] == [True, True, False, False]
    assert "witness" not in items[0] and "witness" not in items[1]
    for it in items[2:]:
        pairing, rest = it["witness"].split(" schur=")
        schur, det = rest.split(" det=")
        assert pairing.startswith("pairing=") and schur == pairing[len("pairing="):]
        assert det.endswith(" chars)") and len(det) < 200
