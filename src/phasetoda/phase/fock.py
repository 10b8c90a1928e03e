"""Truncated bosonic Fock space: occupation states and linear combinations.

A basis state is an occupation tuple (n_0, .., n_M); per-site occupations
are unbounded, so vectors stay exact for any total particle number.  Bras
and kets share the StateVector container, distinguished by the ``dual``
flag; the pairing contracts matching occupation states with weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..algebra import MultiPoly, as_poly, poly_sum
from ..combinatorics.partitions import OccupationSequence, occupation_to_partition

FockState = Tuple[int, ...]


@dataclass
class StateVector:
    m: int
    terms: Dict[FockState, MultiPoly] = field(default_factory=dict)
    dual: bool = False

    def __post_init__(self):
        clean = {}
        for occ, coeff in self.terms.items():
            coeff = as_poly(coeff)
            if coeff.is_zero():
                continue
            if len(occ) != self.m + 1 or any(c < 0 for c in occ):
                raise ValueError(f"bad occupation {occ} for M={self.m}")
            clean[tuple(occ)] = coeff
        self.terms = clean

    def copy_with(self, terms) -> "StateVector":
        """A vector of the same kind over ``terms``, trusted: the keys must be
        valid occupation tuples and the values MultiPolys.  Only the zero
        coefficients (a cancelled sum, a scaling by 0) are dropped."""
        out = object.__new__(StateVector)
        out.m = self.m
        out.terms = {occ: c for occ, c in terms.items() if c.nums}
        out.dual = self.dual
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.m != other.m or self.dual != other.dual:
            raise ValueError("incompatible state vectors")
        return self.copy_with(_add_into(dict(self.terms), other.terms.items()))

    def scale(self, c) -> "StateVector":
        c = as_poly(c)
        return self.copy_with({occ: c * coeff for occ, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.m == other.m and self.dual == other.dual and self.terms == other.terms

    def partition_coefficients(self) -> dict:
        """Coefficients keyed by the partition of each occupation state."""
        groups: dict = {}
        for occ, coeff in self.terms.items():
            groups.setdefault(occupation_to_partition(OccupationSequence(occ)), []).append(coeff)
        return {lam: c for lam, cs in groups.items() if (c := poly_sum(cs)).nums}

    def __repr__(self) -> str:
        kind = "bra" if self.dual else "ket"
        body = ", ".join(f"{occ}: {c}" for occ, c in sorted(self.terms.items()))
        return f"StateVector[{kind}]({body})"


def _add_into(terms: dict, pairs) -> dict:
    """Add each (occupation, coefficient) of ``pairs`` into ``terms``, dropping
    a sum that cancels, and return ``terms``."""
    get = terms.get
    for occ, coeff in pairs:
        prev = get(occ)
        if prev is None:
            terms[occ] = coeff
        elif (coeff := prev + coeff).nums:
            terms[occ] = coeff
        else:
            del terms[occ]
    return terms


def vacuum(m: int, dual: bool = False) -> StateVector:
    return StateVector(m, {(0,) * (m + 1): MultiPoly.const(1)}, dual)


def pair(bra: StateVector, ket: StateVector) -> MultiPoly:
    """Orthonormal pairing: matching occupation states contract to 1; the
    products are added by one ``poly_sum``, so the cost is linear in them."""
    if not bra.dual or ket.dual:
        raise ValueError("pair() wants (bra, ket)")
    if bra.m != ket.m:
        raise ValueError("site-bound mismatch")
    small, large = (bra.terms, ket.terms) if len(bra.terms) < len(ket.terms) else (ket.terms, bra.terms)
    return poly_sum(coeff * large[occ] for occ, coeff in small.items() if occ in large)
