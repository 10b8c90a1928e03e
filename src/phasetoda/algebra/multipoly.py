"""Exact multivariate Laurent polynomials with rational coefficients.

A polynomial is a map from exponent vectors (integers, negative allowed) to
nonzero Fractions.  Instances are immutable and always canonical:

  * the variable tuple lists, in the global variable order, exactly the
    variables that occur with a nonzero exponent somewhere;
  * no zero coefficients are stored.

Two mathematically equal polynomials therefore have identical
representations, which makes equality, hashing and the text serialization
byte-stable.  The global variable order is a natural order on names: an
alphabetic prefix compared lexicographically, then a numeric suffix compared
numerically, so ``u2 < u10 < v1``.

The text form sorts terms by graded reverse-lexicographic order (highest
first) and prints each term as ``coeff*var^exp*...``, e.g.
``-2/3*u1^2*v2^-1``; the zero polynomial prints as ``0``.

Arithmetic keeps this representation at its surface only.  A product of two
multi-term polynomials runs on integers, with each exponent vector packed
into one int and the coefficients as numerators over a common denominator
(``_packed_product``).  Results that are canonical by construction go
through the trusted constructor ``_make`` instead of ``__init__``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Mapping, Sequence, Union

from ..errors import DivisionByZero, NegativeExponent, NotDivisible

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"^([^\W\d]+)(\d*)$")


def var_key(name: str) -> tuple:
    """Sort key implementing the global variable order."""
    m = _NAME_RE.match(name)
    if m is None:
        return (name, -1, name)
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1, name)


def grevlex_key(expvec: Sequence[int]) -> tuple:
    """Key whose natural tuple order is graded reverse-lexicographic."""
    return (sum(expvec), tuple(-e for e in reversed(expvec)))


class MultiPoly:
    """Immutable sparse Laurent polynomial over the rationals."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        cleaned = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != len(variables):
                raise ValueError("exponent vector length != variable count")
            cleaned[tuple(exps)] = coeff
        # prune unused variables, then sort the survivors into global order
        nvars = len(variables)
        used = [i for i in range(nvars) if any(e[i] != 0 for e in cleaned)]
        order = sorted(used, key=lambda i: var_key(variables[i]))
        object.__setattr__(self, "vars", tuple(variables[i] for i in order))
        object.__setattr__(
            self,
            "terms",
            {tuple(e[i] for i in order): c for e, c in cleaned.items()},
        )
        if len(self.terms) != len(cleaned):
            raise ValueError("duplicate exponent vectors")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor for results that are canonical by construction.

        ``variables`` must be in global order without duplicates, every key
        must be a tuple of their length and no coefficient may be zero; the
        dict is taken over, not copied.  Only variables whose exponent
        cancelled to 0 in every term are pruned.
        """
        self = object.__new__(cls)
        if not terms:
            variables = ()
        elif variables and not all(map(any, zip(*terms))):
            used = [i for i, col in enumerate(zip(*terms)) if any(col)]
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._make((), {})

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = Fraction(value)
        return cls._make((), {(): value} if value else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        if power == 0:
            return cls.const(1)
        return cls._make((name,), {(power,): Fraction(1)})

    @classmethod
    def monomial(cls, coeff: Scalar, powers: Mapping[str, int]) -> "MultiPoly":
        names = tuple(powers)
        return cls(names, {tuple(powers[n] for n in names): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    def degree_in(self, name: str) -> int:
        """Highest exponent of ``name`` (0 if absent or zero polynomial)."""
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def low_degree_in(self, name: str) -> int:
        """Lowest exponent of ``name`` (0 if absent or zero polynomial)."""
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- alignment helpers -------------------------------------------------

    def _embed(self, allvars: tuple) -> dict:
        """Re-key the term dict onto a superset variable tuple."""
        if allvars == self.vars:
            return dict(self.terms)
        pos = [allvars.index(v) for v in self.vars]
        n = len(allvars)
        out = {}
        for exps, coeff in self.terms.items():
            vec = [0] * n
            for p, e in zip(pos, exps):
                vec[p] = e
            out[tuple(vec)] = coeff
        return out

    @staticmethod
    def _union_vars(a: "MultiPoly", b: "MultiPoly") -> tuple:
        sa, sb = set(a.vars), set(b.vars)
        if sb <= sa:
            return a.vars
        if sa <= sb:
            return b.vars
        return tuple(sorted(sa | sb, key=var_key))

    @staticmethod
    def _coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.const(value)
        return NotImplemented

    def _scaled(self, c: Fraction) -> "MultiPoly":
        """Product with a nonzero rational."""
        return MultiPoly._make(self.vars, {e: k * c for e, k in self.terms.items()})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.vars == other.vars:
            allvars, big, small = self.vars, self.terms, other.terms
        else:
            allvars = self._union_vars(self, other)
            big, small = self._embed(allvars), other._embed(allvars)
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for exps, coeff in small.items():
            prev = terms.get(exps)
            if prev is None:
                terms[exps] = coeff
            else:
                coeff += prev
                if coeff:
                    terms[exps] = coeff
                else:
                    del terms[exps]
        return MultiPoly._make(allvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero()
        if not other.vars:
            return self._scaled(other.terms[()])
        if not self.vars:
            return other._scaled(self.terms[()])
        if len(other.terms) == 1:
            return _monomial_product(self, other)
        if len(self.terms) == 1:
            return _monomial_product(other, self)
        return _packed_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n == 0:
            return MultiPoly.const(1)
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = MultiPoly.const(1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monomial_inverse(self) -> "MultiPoly":
        """Inverse of a single-term polynomial; other inputs are not units."""
        if len(self.terms) != 1:
            raise NotDivisible(f"not an invertible monomial: {self}")
        ((exps, coeff),) = self.terms.items()
        return MultiPoly._make(self.vars, {tuple(-e for e in exps): 1 / coeff})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus and extraction -------------------------------------------

    def diff(self, name: str, order: int = 1) -> "MultiPoly":
        """Exact partial derivative; Laurent powers of ``name`` are refused."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        if any(e[i] < 0 for e in self.terms):
            raise NegativeExponent(f"cannot differentiate Laurent variable {name}")
        cur = self
        for _ in range(order):
            if name not in cur.vars:
                return MultiPoly.zero()
            i = cur.vars.index(name)
            terms = {}
            for exps, coeff in cur.terms.items():
                e = exps[i]
                if e == 0:
                    continue
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                terms[key] = coeff * e
            cur = MultiPoly(cur.vars, terms)
        return cur

    def coeff_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of ``name**power`` as a polynomial in the other vars."""
        if name not in self.vars:
            return self if power == 0 else MultiPoly.zero()
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                terms[exps[:i] + exps[i + 1 :]] = coeff
        return MultiPoly(rest, terms)

    def subs(self, assignment: Mapping[str, Union[Scalar, "MultiPoly"]]) -> "MultiPoly":
        """Substitute values for variables (partial assignments allowed).

        A variable occurring with negative exponents may receive a nonzero
        rational or an invertible monomial; assigning 0 there raises
        DivisionByZero.
        """
        relevant = {k: v for k, v in assignment.items() if k in self.vars}
        if not relevant:
            return self
        idx = {name: self.vars.index(name) for name in relevant}
        values = {}
        for name, val in relevant.items():
            val = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
            i = idx[name]
            if any(e[i] < 0 for e in self.terms) and val.is_zero():
                raise DivisionByZero(f"{name} assigned 0 but occurs with negative exponent")
            values[name] = val
        keep = [i for i, v in enumerate(self.vars) if self.vars[i] not in relevant]
        result = MultiPoly.zero()
        pow_cache: dict = {}
        for exps, coeff in self.terms.items():
            term = MultiPoly(
                tuple(self.vars[i] for i in keep),
                {tuple(exps[i] for i in keep): coeff},
            )
            for name, val in values.items():
                e = exps[idx[name]]
                if e == 0:
                    continue
                key = (name, e)
                if key not in pow_cache:
                    pow_cache[key] = val ** e
                term = term * pow_cache[key]
            result = result + term
        return result

    # -- division ----------------------------------------------------------

    def leading_term(self) -> tuple:
        """The grevlex-leading (exponent vector, coefficient) of a nonzero
        polynomial, by the packed keys that ``divide_exact`` orders by."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        # grevlex order is invariant under a common shift of all exponents
        low = [min(col) for col in zip(*self.terms)]
        shifted = {tuple(map(sub, e, low)): e for e in self.terms}
        weights, unpack = _grevlex_packing(len(self.vars), max(map(sum, shifted)))
        lead = shifted[unpack(max(sum(map(mul, e, weights)) for e in shifted))]
        return lead, self.terms[lead]

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises NotDivisible on a nonzero remainder.

        Each step removes the grevlex-leading term of the remainder, so the
        packed leading key falls at every step and, all keys lying in a
        finite box, the loop ends.

        The loop runs on integers.  The dividend is scaled to integer
        numerators and the divisor to a primitive integer polynomial; by
        Gauss's lemma a quotient over Q is then integral, so each step is one
        ``divmod`` by the divisor's leading coefficient and a nonzero
        remainder proves non-divisibility.  Exponent vectors are packed into
        grevlex-ordered int keys (``_grevlex_packing``), so the leading term
        is a plain ``max`` and shifting by the quotient term is an addition.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero()
        if divisor.is_constant():
            return self._scaled(1 / divisor.constant_value())
        if len(divisor.terms) == 1:
            return self * divisor.monomial_inverse()
        # a monomial is a unit of the Laurent ring: strip the lowest power of
        # every variable from each side, so that both become polynomials
        # without a monomial factor and polynomial division decides
        # divisibility (v1 + 1 over v1^2 + v1 is v1^-1)
        allvars = self._union_vars(self, divisor)
        nterms, dterms = self._embed(allvars), divisor._embed(allvars)
        low_n = [min(col) for col in zip(*nterms)]
        low_d = [min(col) for col in zip(*dterms)]
        nexps = [tuple(map(sub, e, low_n)) for e in nterms]
        dexps = [tuple(map(sub, e, low_d)) for e in dterms]
        # every remainder term has a total degree of at most top
        top = max(map(sum, nexps + dexps))
        weights, unpack = _grevlex_packing(len(allvars), top)
        dn, nums = _numerators(nterms.values())
        dd, dnums = _numerators(dterms.values())
        g = gcd(*dnums)
        rem = {sum(map(mul, e, weights)): c for e, c in zip(nexps, nums)}
        dpacked = {sum(map(mul, e, weights)): c // g for e, c in zip(dexps, dnums)}
        lead_dk = max(dpacked)
        lead_dc = dpacked.pop(lead_dk)
        lead_d = unpack(lead_dk)
        quot: dict = {}
        get = rem.get
        while rem:
            lk = max(rem)
            qexp = tuple(map(sub, unpack(lk), lead_d))
            if any(e < 0 for e in qexp):
                raise NotDivisible("leading term not divisible")
            qc, r = divmod(rem.pop(lk), lead_dc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quot[qexp] = qc
            qk = lk - lead_dk
            for dk, dc in dpacked.items():
                k = qk + dk
                v = get(k, 0) - qc * dc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        lift = list(map(sub, low_n, low_d))
        scale = g * dn
        return MultiPoly._make(
            allvars, {tuple(map(add, e, lift)): Fraction(c * dd, scale) for e, c in quot.items()}
        )

    def content(self) -> Fraction:
        """Positive rational content (gcd of numerators / lcm of denominators)."""
        if not self.terms:
            return Fraction(0)
        coeffs = self.terms.values()
        return Fraction(gcd(*[c.numerator for c in coeffs]), lcm(*[c.denominator for c in coeffs]))

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in canonical (grevlex-descending) order."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [str(coeff)]
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __str__ = to_str

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_str()!r})"


def as_poly(value) -> MultiPoly:
    """A MultiPoly as is, a name as that variable, anything else as a constant."""
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, str):
        return MultiPoly.var(value)
    return MultiPoly.const(value)


def _numerators(coeffs) -> tuple:
    """(d, numerators): the lcm d of the denominators and each c * d."""
    coeffs = list(coeffs)
    d = lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _grevlex_packing(n: int, top: int) -> tuple:
    """Grevlex-ordered int keys for exponent vectors e >= 0 of total degree
    at most ``top``: ``(weights, unpack)``.

    The key of e is sum(e[i] * weights[i]).  Shifted by a constant offset,
    it holds the total degree in its top field and top - e[i] in field i
    below it (fields of width top + 1, the last variable most significant);
    no field can carry, so the int order is the grevlex order.  The key is
    linear in e, so the key of a product of monomials is the sum of their
    keys.  ``unpack`` inverts it with n divmods.
    """
    b = top + 1
    radix = [b ** i for i in range(n)]
    weights = [b ** n - r for r in radix]
    offset = top * sum(radix)

    def unpack(key: int) -> tuple:
        key += offset
        out = []
        for _ in range(n):
            key, r = divmod(key, b)
            out.append(top - r)
        return tuple(out)

    return weights, unpack


def _monomial_product(a: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Product with a single-term ``m``: a shift of every exponent of ``a``,
    so no two terms collide and nothing needs packing."""
    allvars = MultiPoly._union_vars(a, m)
    ((em, cm),) = m._embed(allvars).items()
    return MultiPoly._make(
        allvars, {tuple(map(add, e, em)): c * cm for e, c in a._embed(allvars).items()}
    )


def _packed_product(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Product of two non-constant polynomials on integers.

    Each exponent vector is packed into one int in mixed radix: variable i
    gets the width span_a + span_b + 1 (spans of its exponents in each
    operand), so the sum of two packed keys is the packed key of the product
    monomial and no field can carry into the next.  Negative exponents need
    no shift before packing, because the map is injective on the box of
    product exponents; the box's low corner is subtracted when unpacking.
    Coefficients are integer numerators over the lcm of each operand's
    denominators, so the inner loop does one int multiply and one int add.
    """
    allvars = MultiPoly._union_vars(a, b)
    n = len(allvars)
    low = [0] * n
    width = [1] * n
    positions = []
    for p in (a, b):
        pos = range(n) if p.vars == allvars else [allvars.index(v) for v in p.vars]
        positions.append(pos)
        for i, col in zip(pos, zip(*p.terms)):
            lo = min(col)
            low[i] += lo
            width[i] += max(col) - lo
    radix = []
    r = 1
    for w in width:
        radix.append(r)
        r *= w
    packed = []
    den = 1
    for p, pos in zip((a, b), positions):
        rad = [radix[i] for i in pos]
        d, nums = _numerators(p.terms.values())
        den *= d
        packed.append([(sum(map(mul, e, rad)), c) for e, c in zip(p.terms, nums)])
    pa, pb = packed
    out: dict = {}
    get = out.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    base = sum(map(mul, low, radix))
    fields = list(zip(radix, width, low))
    terms = {
        tuple([(k - base) // r % w + lo for r, w, lo in fields]): Fraction(v, den)
        for k, v in out.items()
        if v
    }
    return MultiPoly._make(allvars, terms)


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)
