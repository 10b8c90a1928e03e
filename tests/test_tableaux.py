"""Semi-standard tableau enumeration in both conventions."""

from itertools import product

import pytest

from phasetoda.combinatorics import Partition, SkewShape, Tableau, enumerate_tableaux, tableaux
from phasetoda.errors import ShapeViolation


def shape(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


def test_single_cell():
    tabs = list(enumerate_tableaux(shape((1,)), 2, "ascending"))
    assert [t.rows for t in tabs] == [((1,),), ((2,),)]


def test_shape_21_two_letters():
    tabs = list(enumerate_tableaux(shape((2, 1)), 2, "ascending"))
    assert len(tabs) == 2
    assert {t.rows for t in tabs} == {((1, 1), (2,)), ((1, 2), (2,))}


def test_descending_contains_running_example():
    tabs = {t.rows for t in enumerate_tableaux(shape((3, 1, 1)), 3, "descending")}
    assert ((3, 1, 1), (2,), (1,)) in tabs


def test_skew_enumeration():
    tabs = list(enumerate_tableaux(shape((1, 1), (1,)), 1, "ascending"))
    assert [t.rows for t in tabs] == [((), (1,))]


def test_weight():
    tab = Tableau(shape((3, 1, 1)), ((3, 1, 1), (2,), (1,)), "descending")
    assert tab.weight(3) == (3, 1, 1)


def test_validation_rejects_bad_fillings():
    with pytest.raises(ShapeViolation):
        Tableau(shape((2,)), ((2, 1),), "ascending")
    with pytest.raises(ShapeViolation):
        Tableau(shape((1, 1)), ((1,), (1,)), "ascending")
    with pytest.raises(ShapeViolation):
        Tableau(shape((1, 1)), ((1,), (2,)), "descending")


def test_conventions_count_equal():
    # content-reversal bijection: both conventions have the same cardinality
    for outer in ((2, 1), (2, 2), (3, 1)):
        asc = sum(1 for _ in enumerate_tableaux(shape(outer), 3, "ascending"))
        desc = sum(1 for _ in enumerate_tableaux(shape(outer), 3, "descending"))
        assert asc == desc


def test_stream_is_restartable():
    gen = enumerate_tableaux(shape((2, 1)), 2, "ascending")
    first = list(gen)
    second = list(enumerate_tableaux(shape((2, 1)), 2, "ascending"))
    assert [t.rows for t in first] == [t.rows for t in second]


def _all_fillings(sk, n, convention):
    """Every filling of the cells by 1..n in reading-word order, kept when
    it validates (an oracle without the enumeration's pruning)."""
    cells = sk.cells()
    out = []
    for word in product(range(1, n + 1), repeat=len(cells)):
        rows = [[] for _ in range(sk.outer.length())]
        for (i, _), v in zip(cells, word):
            rows[i - 1].append(v)
        try:
            out.append(Tableau(sk, tuple(map(tuple, rows)), convention).rows)
        except ShapeViolation:
            pass
    return out


@pytest.mark.parametrize(
    "outer, inner",
    [((1, 1, 1), ()), ((2, 1, 1), ()), ((2, 2, 1), (1,)), ((1, 1, 1, 1), (1,)), ((2, 2, 2), (1,)),
     ((3, 2, 2), (2, 1))],
)
@pytest.mark.parametrize("convention", ["ascending", "descending"])
def test_enumeration_matches_every_valid_filling_on_tall_shapes(outer, inner, convention):
    # a column longer than the alphabet leaves nothing; the pruning by
    # column depth and by the cell above must skip only values that lead
    # nowhere, in order
    sk = shape(outer, inner)
    for n in range(5):
        listed = [t.rows for t in enumerate_tableaux(sk, n, convention)]
        assert listed == _all_fillings(sk, n, convention), (outer, inner, n)


def test_one_column_as_tall_as_the_alphabet_is_listed_at_once():
    # the only filling of (1^30) by 1..30 is 1..30 down the column; without
    # pruning by column depth the search tried every dead prefix
    tabs = list(enumerate_tableaux(shape((1,) * 30), 30, "ascending"))
    assert [t.rows for t in tabs] == [tuple((v,) for v in range(1, 31))]


@pytest.mark.parametrize("convention", ["ascending", "descending"])
def test_tall_skew_column_checks_each_cell_a_bounded_number_of_times(monkeypatch, convention):
    # (1^400) / (1) by 1..400: 400 tableaux of 399 cells.  Each cell's range
    # starts past the cell above it, so the cell checks stay within the
    # cells listed; from the column depth alone they were about 21 million
    calls = 0
    real = tableaux._cell_ok

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tableaux, "_cell_ok", counted)
    tabs = list(enumerate_tableaux(shape((1,) * 400, (1,)), 400, convention))
    assert len(tabs) == 400
    assert calls <= 400 * 399


@pytest.mark.parametrize("outer, inner", [((2, 1), ()), ((3, 3), (1,)), ((2, 2, 1), (1, 1)), ((4, 2, 1), (2,)), ((3, 1, 1), ())])
@pytest.mark.parametrize("convention", ["ascending", "descending"])
def test_every_enumerated_tableau_passes_the_constructor(outer, inner, convention):
    # the enumerator builds its tableaux unchecked: the constructor's checks
    # must accept each of them and give an equal, hash-equal tableau
    sk = shape(outer, inner)
    for n in range(5):
        for tab in enumerate_tableaux(sk, n, convention):
            checked = Tableau(sk, tab.rows, convention)
            assert checked == tab and hash(checked) == hash(tab)


def test_deep_shapes_list_without_recursion():
    assert [t.rows for t in enumerate_tableaux(shape((990,)), 1, "ascending")] == [((1,) * 990,)]
    assert [t.rows for t in enumerate_tableaux(shape((600, 600)), 2, "descending")] == [((2,) * 600, (1,) * 600)]
