"""Mutant gate: each planted fault must make the checks fail, with witnesses.

Every row of ``FAULTS`` replaces one function with a wrong copy in every
module that holds it.  Under each fault, every family of its row must yield
at least one failed item of its own identities that carries a witness, and
``run_family`` must return rather than raise.  ``BOUNDS`` is shrunk for
speed; the same small bounds pass without the fault.
"""

import sys

import pytest

from phasetoda import suites, symfunc
from phasetoda.algebra import MultiPoly, RingMatrix, det_exact
from phasetoda.combinatorics import Partition, SkewShape

# M = 2 puts (2, 1) in the box: a flipped Jacobi-Trudi offset still gives
# the right S_(1,1), so a 2x1 box cannot see it
SMALL = dict(
    scalar_symbolic_n=2, scalar_symbolic_m=2, scalar_numeric_n=(2,), scalar_numeric_m=1,
    scalar_numeric_points=2, combi_n=2, combi_m=1,
)
FAMILIES = ("scalar-equivalence", "triple-agreement")


def jacobi_trudi_offset_flipped(shape, h):
    # the Jacobi-Trudi offset + j - i written as + i - j
    skew = shape if isinstance(shape, SkewShape) else SkewShape(shape, Partition(()))
    n = len(skew.outer.parts)
    if n == 0:
        return MultiPoly.const(1)
    rows = [
        [h[d] if d >= 0 else MultiPoly.zero()
         for d in (skew.outer.get(i) - skew.inner.get(j) + i - j for j in range(1, n + 1))]
        for i in range(1, n + 1)
    ]
    return det_exact(RingMatrix.from_rows(rows))


def h_row_without_last_letter(kmax, gens):
    return RIGHT["h_row"](kmax, list(gens)[:-1])


RIGHT = {"h_row": symfunc.h_row, "jacobi_trudi": symfunc.jacobi_trudi}
FAULTS = {
    "jacobi-trudi-offset": ("jacobi_trudi", jacobi_trudi_offset_flipped),
    "h-row-drops-last-letter": ("h_row", h_row_without_last_letter),
}


def plant(monkeypatch, name, fake):
    """Replace the function in every phasetoda module that imported it."""
    planted = 0
    for modname, module in list(sys.modules.items()):
        if modname.startswith("phasetoda") and getattr(module, name, None) is RIGHT[name]:
            monkeypatch.setattr(module, name, fake)
            planted += 1
    assert planted


@pytest.fixture
def small_bounds(monkeypatch):
    for key, value in SMALL.items():
        monkeypatch.setitem(suites.BOUNDS, key, value)


@pytest.mark.parametrize("family", FAMILIES)
def test_small_bounds_pass_without_a_fault(small_bounds, family):
    items = suites.run_family(family, 7)
    assert items and all(it["pass"] for it in items)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_family_with_witness(small_bounds, monkeypatch, fault, family):
    name, fake = FAULTS[fault]
    plant(monkeypatch, name, fake)
    items = suites.run_family(family, 7)
    own = suites.FAMILIES[family].identities
    caught = [it for it in items if not it["pass"] and it["identity"] in own]
    assert caught, (fault, family)
    for it in items:
        assert it["pass"] or it.get("witness"), it
