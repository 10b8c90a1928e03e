"""Ratios of polynomials, used for wave-matrix entries and Lax data.

A RatioPoly keeps its denominator as an unexpanded list of polynomial
factors (the taus of the linear problem, in practice).  Nothing is divided
out of a numerator: a product joins the two lists whole, a sum brings both
numerators over their common denominator (the factors the lists share,
then each side's leftovers), and a constant factor folds into the
numerator.  A context keeps its taus, so the shared ones match by identity
before any term is compared.  Identity checks cross-multiply, so no
verdict depends on which factors two lists share.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ..errors import NotDivisible
from .multipoly import MultiPoly, as_poly


def reduce_pair(num: MultiPoly, den: MultiPoly) -> tuple:
    """Reduced (numerator, denominator): content-normalized, cancelled when
    the division is exact, zero in the canonical form 0/1."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return MultiPoly.zero(), MultiPoly.const(1)
    try:
        return num.divide_exact(den), MultiPoly.const(1)
    except NotDivisible:
        pass
    c = den.content()
    if den.leading_term()[1] < 0:
        c = -c
    den = den.divide_exact(MultiPoly.const(c))
    num = num * MultiPoly.const(Fraction(1) / c)
    return num, den


class RatioPoly:
    """Exact rational function num / prod(den_factors)."""

    __slots__ = ("num", "factors")

    def __init__(self, num, den=None, _factors=None):
        num = as_poly(num)
        factors = list(_factors or ())
        if den is not None:
            den = as_poly(den)
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            factors.append(den)
        self.num = num
        self.factors = factors
        self._cancel()

    def _cancel(self):
        """A zero numerator drops every factor, and the constant factors fold
        into the numerator by one scaling; every other factor is kept."""
        if self.num.is_zero():
            self.factors = []
            return
        consts = [f.constant_value() for f in self.factors if not f.vars]
        if consts:
            self.num = self.num * (1 / prod(consts))
            self.factors = [f for f in self.factors if f.vars]

    # -- helpers -------------------------------------------------------------

    def den(self) -> MultiPoly:
        out = MultiPoly.const(1)
        for f in self.factors:
            out = out * f
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _cross(self, other: "RatioPoly") -> tuple:
        """(left, right, factors): the two numerators over the common
        denominator ``factors``, the multiset intersection of both factor
        lists followed by this side's leftovers and then the other's."""
        remaining = list(other.factors)
        common = []
        a_only = []
        for f in self.factors:
            if f in remaining:
                remaining.remove(f)
                common.append(f)
            else:
                a_only.append(f)
        left = self.num
        for f in remaining:
            left = left * f
        right = other.num
        for f in a_only:
            right = right * f
        return left, right, common + a_only + remaining

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RatioPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        left, right, factors = self._cross(other)
        return RatioPoly(left + right, _factors=factors)

    __radd__ = __add__

    def __neg__(self) -> "RatioPoly":
        out = RatioPoly.__new__(RatioPoly)
        out.num = -self.num
        out.factors = list(self.factors)
        return out

    def __sub__(self, other) -> "RatioPoly":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "RatioPoly":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else (-self) + other

    def __mul__(self, other) -> "RatioPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return RatioPoly(MultiPoly.zero())
        return RatioPoly(self.num * other.num, _factors=self.factors + other.factors)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatioPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError
        num = self.num
        for f in other.factors:
            num = num * f
        return RatioPoly(num, den=other.num, _factors=self.factors)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        left, right, _ = self._cross(other)
        return left == right

    def __hash__(self):
        raise TypeError("RatioPoly is not hashable")

    def diff(self, name: str) -> "RatioPoly":
        """Quotient rule, one denominator factor at a time."""
        total = RatioPoly(self.num.diff(name), _factors=list(self.factors))
        for f in self.factors:
            if name not in f.vars:
                continue
            total = total + RatioPoly(
                -(self.num * f.diff(name)), _factors=self.factors + [f]
            )
        return total

    def __repr__(self) -> str:
        if not self.factors:
            return f"({self.num})"
        den = " * ".join(f"({f})" for f in self.factors)
        return f"({self.num})/[{den}]"


def _coerce(value) -> RatioPoly:
    """A RatioPoly as is, a MultiPoly, an int or a Fraction over 1; anything
    else is NotImplemented, which each operator passes on."""
    if isinstance(value, RatioPoly):
        return value
    if isinstance(value, (MultiPoly, int, Fraction)):
        return RatioPoly(value)
    return NotImplemented
