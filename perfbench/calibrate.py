"""The machine's speed at the moment, from a fixed slice of pure-Python work.

On a shared machine the same pass of a workload can take half as long again
from one minute to the next, and each CPU speeds up and slows down on its
own within seconds.  The worker therefore runs a short slice of fixed work
after every 50 ms or so of checks, and scales the time of those checks by
``factor()``: the reference time of the slice over its time now.  Times so
scaled are seconds on the reference machine, and they stay put while the
raw times swing.

The slice does what the program does most, sparse products and sums with
Fraction coefficients keyed by exponent tuples, but it uses no code of the
program, so that a change to the program never changes the slice.  The
garbage collector is off during a slice, so that a large heap left by the
program does not slow the slice and flatter the program.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Seconds of a slice on the reference machine: a round figure inside the
# 4 to 7 ms one slice took on 2 CPUs, Linux, Python 3.11.7, as the speed
# varied.  It only sets the scale of the reported times.
REFERENCE_S = 0.005


def _operand(shift: int) -> dict:
    out = {}
    for i in range(7):
        for j in range(7 - i):
            out[(i, j, (i + j + shift) % 3)] = Fraction(i - 2 * j + shift, j + 1 + shift % 2)
    return out


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return out


def slice_seconds() -> float:
    """Time of one slice: the product of two 28-term polynomials."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        product = _product(_operand(1), _operand(2))
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(product) < 2:
        raise AssertionError("calibration slice computed nothing")
    return elapsed


def factor() -> float:
    """Reference time over current time of a slice."""
    return REFERENCE_S / slice_seconds()
