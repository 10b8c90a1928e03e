"""The table of identity families: names, identity strings, and that
``verify <name>`` reports exactly its family's items of the suite report."""

import itertools
import json

import pytest

from phasetoda import suites
from phasetoda.cli import main
from phasetoda.errors import ConfigError, NotDivisible
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
