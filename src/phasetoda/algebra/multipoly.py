"""Exact multivariate Laurent polynomials with rational coefficients.

A polynomial is a map from exponent vectors (integers, negative allowed) to
nonzero rationals, stored as integer numerators over one positive common
denominator: ``nums`` maps each exponent vector to its nonzero int numerator
and ``den`` is the denominator.  Instances are immutable and always
canonical:

  * the variable tuple lists, in the global variable order, exactly the
    variables that occur with a nonzero exponent somewhere;
  * no zero numerator is stored, and ``gcd(den, *nums) == 1`` (the zero
    polynomial is ``{}`` over 1).

Two mathematically equal polynomials therefore have identical
representations, which makes equality, hashing and the text serialization
byte-stable.  The global variable order is a natural order on names: an
alphabetic prefix compared lexicographically, then a numeric suffix compared
numerically, so ``u2 < u10 < v1``.

``terms`` is a read-only view that maps each exponent vector to its
``Fraction`` coefficient; only its values build Fractions.  The text form
sorts terms by graded reverse-lexicographic order (highest first) and prints
each term as ``coeff*var^exp*...``, e.g. ``-2/3*u1^2*v2^-1``; the zero
polynomial prints as ``0``.

Every ring operation runs on the integers it stores.  A product, sum or
difference of two constants is one numerator and one denominator over
their gcd, with no exponent vectors touched.  A product of two
multi-term polynomials packs each exponent vector into one int
(``_packing``, which the determinant expansion shares); exact division
and substitution, which no workload runs, are plain loops on exponent
tuples.  Binary ``+`` and ``-`` merge the
smaller operand into a copy of the larger (``_combine``); a sum of many
terms is one ``poly_sum``, which merges them all into one dict and
normalises once; when every term is a constant it adds their numerators
over the lcm of their denominators, with no exponent vectors touched.
``series`` builds a polynomial in one variable from its coefficients by
placing their terms, with no product, merge or gcd.  Other results go
through the trusted constructor ``_make``, which prunes unused variables
and divides out ``gcd(den, *nums)``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence, Union

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


def _scalar(value) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"a coefficient must be an int or a Fraction, not {type(value).__name__}")


class _Terms(Mapping):
    """Read-only map from exponent vector to ``Fraction`` coefficient; its
    length, keys and membership read the numerators without building one."""

    __slots__ = ("_p",)

    def __init__(self, p: "MultiPoly"):
        self._p = p

    def __len__(self) -> int:
        return len(self._p.nums)

    def __iter__(self):
        return iter(self._p.nums)

    def __contains__(self, exps) -> bool:
        return exps in self._p.nums

    def __getitem__(self, exps) -> Fraction:
        return Fraction(self._p.nums[exps], self._p.den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class MultiPoly:
    """Immutable sparse Laurent polynomial over the rationals."""

    __slots__ = ("vars", "nums", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        nvars = len(variables)
        cleaned = []
        den = 1
        for exps, coeff in terms.items():
            if not _scalar(coeff):
                continue
            if len(exps) != nvars:
                raise ValueError("exponent vector length != variable count")
            cleaned.append((exps, coeff))
            den = lcm(den, coeff.denominator)
        # prune unused variables, then sort the survivors into global order
        used = [i for i in range(nvars) if any(e[i] != 0 for e, _ in cleaned)]
        order = sorted(used, key=lambda i: var_key(variables[i]))
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is canonical without a gcd
        nums = {
            tuple(e[i] for i in order): c.numerator * (den // c.denominator) for e, c in cleaned
        }
        if len(nums) != len(cleaned):
            raise ValueError("duplicate exponent vectors")
        kept = tuple(variables[i] for i in order)
        if len(set(kept)) != len(kept):
            raise ValueError("duplicate variable names")
        _set_vars(self, kept)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _make(cls, variables: tuple, nums: dict, den: int = 1) -> "MultiPoly":
        """Trusted constructor for results that are canonical up to pruning
        and one gcd.

        ``variables`` must be in global order without duplicates, every key
        must be a tuple of their length, no numerator may be zero and ``den``
        must be positive; the dict is taken over, not copied.  Variables whose
        exponent cancelled to 0 in every term are pruned, and when ``den`` is
        not 1 the numerators and ``den`` are divided by their gcd.
        """
        if not nums:
            return _new((), nums, 1)
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        return _pruned(variables, nums, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _new((), {}, 1)

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = _scalar(value)
        if not value:
            return _new((), {}, 1)
        return _new((), {(): value.numerator}, value.denominator)

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MultiPoly":
        if power == 0:
            return cls.const(1)
        return _new((name,), {(power,): 1}, 1)

    @classmethod
    def monomial(cls, coeff: Scalar, powers: Mapping[str, int]) -> "MultiPoly":
        names = tuple(powers)
        return cls(names, {tuple(powers[n] for n in names): coeff})

    @classmethod
    def series(cls, name: str, coeffs: Sequence["MultiPoly"]) -> "MultiPoly":
        """sum_k coeffs[k] * name**k, for coefficients in which ``name`` does
        not occur (ValueError otherwise).

        Each coefficient's terms, on the union of the coefficients'
        variables, get exponent k of ``name`` inserted, over the lcm of the
        coefficients' denominators: no two terms collide and, as in
        ``__init__``, numerators over the lcm of reduced denominators share
        no factor with it, so nothing is multiplied, merged or divided.
        """
        rest = tuple(sorted(set().union(*[c.vars for c in coeffs]), key=var_key))
        if name in rest:
            raise ValueError(f"{name} occurs in a coefficient")
        at = sum(var_key(v) < var_key(name) for v in rest)
        den = lcm(*[c.den for c in coeffs])
        nums = {}
        for k, c in enumerate(coeffs):
            f = den // c.den
            for e, v in c._embed(rest).items():
                nums[e[:at] + (k,) + e[at:]] = v * f
        return _pruned(rest[:at] + (name,) + rest[at:], nums, den) if nums else ZERO

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> _Terms:
        """The terms as a read-only map to ``Fraction`` coefficients."""
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not self.vars

    def is_monomial(self) -> bool:
        return len(self.nums) == 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.nums.get((), 0), self.den)

    def degree_in(self, name: str) -> int:
        """Highest exponent of ``name`` (0 if absent or zero polynomial)."""
        if name not in self.vars or not self.nums:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.nums)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    # -- alignment helpers -------------------------------------------------

    def _embed(self, allvars: tuple) -> dict:
        """The numerators keyed on a superset variable tuple; ``self.nums``
        itself when the tuples agree, so the result must not be mutated."""
        if allvars == self.vars:
            return self.nums
        pos = [allvars.index(v) for v in self.vars]
        n = len(allvars)
        out = {}
        for exps, c in self.nums.items():
            vec = [0] * n
            for p, e in zip(pos, exps):
                vec[p] = e
            out[tuple(vec)] = c
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

    def _scaled(self, num: int, den: int = 1) -> "MultiPoly":
        """Product with the nonzero rational num/den (coprime, den > 0)."""
        g, f, d = _scale_parts(self, num, den)
        return _new(self.vars, {e: c // g * f for e, c in self.nums.items()}, d)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _new(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.nums or not other.nums:
            return MultiPoly.zero()
        if not self.vars and not other.vars:
            # two constants: one numerator and one denominator product
            num, den = self.nums[()] * other.nums[()], self.den * other.den
            g = gcd(num, den)
            return _new((), {(): num // g}, den // g)
        if not other.vars:
            return self._scaled(other.nums[()], other.den)
        if not self.vars:
            return other._scaled(self.nums[()], self.den)
        if len(other.nums) == 1:
            return _monomial_product(self, other)
        if len(self.nums) == 1:
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
        if len(self.nums) != 1:
            raise NotDivisible(f"not an invertible monomial: {self}")
        ((exps, c),) = self.nums.items()
        inv = tuple(-e for e in exps)
        if c > 0:
            return _new(self.vars, {inv: self.den}, c)
        return _new(self.vars, {inv: -self.den}, -c)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.vars == other.vars and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    # -- calculus and extraction -------------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        """Exact partial derivative; Laurent powers of ``name`` are refused."""
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        if any(e[i] < 0 for e in self.nums):
            raise NegativeExponent(f"cannot differentiate Laurent variable {name}")
        nums = {exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: c * exps[i]
                for exps, c in self.nums.items() if exps[i]}
        return MultiPoly._make(self.vars, nums, self.den)

    def coeff_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of ``name**power`` as a polynomial in the other vars."""
        if name not in self.vars:
            return self if power == 0 else MultiPoly.zero()
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        nums = {
            exps[:i] + exps[i + 1 :]: c for exps, c in self.nums.items() if exps[i] == power
        }
        return MultiPoly._make(rest, nums, self.den)

    def subs(self, assignment: Mapping[str, Union[Scalar, "MultiPoly"]]) -> "MultiPoly":
        """Substitute values for variables (partial assignments allowed).

        A variable occurring with negative exponents may receive a nonzero
        rational or an invertible monomial; assigning 0 there raises
        DivisionByZero.  Each term's monomial in the kept variables is
        multiplied by ``val ** e`` for every substituted variable, and the
        terms are added by one ``poly_sum``.
        """
        values = []
        for name, val in assignment.items():
            if name not in self.vars:
                continue
            i = self.vars.index(name)
            val = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
            if val.is_zero() and any(e[i] < 0 for e in self.nums):
                raise DivisionByZero(f"{name} assigned 0 but occurs with negative exponent")
            values.append((i, val))
        if not values:
            return self
        gone = {i for i, _ in values}
        keep = [i for i in range(len(self.vars)) if i not in gone]
        kept_vars = tuple(self.vars[i] for i in keep)
        terms = []
        for exps, c in self.nums.items():
            term = MultiPoly._make(kept_vars, {tuple(exps[i] for i in keep): c}, self.den)
            for i, val in values:
                term = term * val ** exps[i]
            terms.append(term)
        return poly_sum(terms)

    # -- division ----------------------------------------------------------

    def leading_term(self) -> tuple:
        """The grevlex-leading (exponent vector, coefficient) of a nonzero
        polynomial."""
        if not self.nums:
            raise ValueError("the zero polynomial has no leading term")
        lead = max(self.nums, key=grevlex_key)
        return lead, Fraction(self.nums[lead], self.den)

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises NotDivisible on a nonzero remainder.

        Division by one polynomial under grevlex (Cox, Little & O'Shea,
        *Ideals, Varieties, and Algorithms*, 2.3): each step divides the
        remainder's leading term by the divisor's.  Both sides are keyed on
        (-degree, e_n, ..., e_1), which is linear, so keys add, and whose
        smallest key is the grevlex-leading term, so a heap of the
        remainder's keys yields the leading term in logarithmic time where
        a scan of the whole remainder would make the loop quadratic.
        Grevlex is translation-invariant on Laurent exponents, so the
        leading term falls at every step.  In each variable the lowest and
        highest exponents add under multiplication, so an exact quotient
        lies in the box [min(self) - min(divisor), max(self) - max(divisor)];
        a quotient term outside it is refused, which also bounds the loop (a
        divisor wider than the dividend has an empty box).

        The loop runs on the stored integer numerators, with the divisor
        made primitive; by Gauss's lemma a quotient over Q is then integral,
        so each step is one ``divmod`` by the divisor's leading coefficient
        and a nonzero remainder proves non-divisibility.  A divisor that is
        not a MultiPoly, int or Fraction is a TypeError, as in ``const``.
        """
        divisor = divisor if isinstance(divisor, MultiPoly) else MultiPoly.const(divisor)
        if not divisor.nums:
            raise ZeroDivisionError("division by zero polynomial")
        allvars = self._union_vars(self, divisor)
        num, dvs = self._embed(allvars), divisor._embed(allvars)
        box = [(min(a) - min(b), max(a) - max(b)) for a, b in zip(zip(*num), zip(*dvs))]
        rem = {(-sum(e), *e[::-1]): c for e, c in num.items()}
        g = gcd(*divisor.nums.values())
        dterms = {(-sum(e), *e[::-1]): c // g for e, c in dvs.items()}
        lead_dk = min(dterms)
        lead_dc = dterms.pop(lead_dk)
        # a remainder key is pushed whenever it appears; one that cancelled
        # stays in the heap and is skipped when popped
        heap = list(rem)
        heapify(heap)
        # with divisor = g * primitive / divisor.den and self = quot *
        # primitive / self.den, the quotient is quot * divisor.den / (g * self.den)
        dd = divisor.den
        quot: dict = {}
        get = rem.get
        while rem:
            lk = heappop(heap)
            if lk not in rem:
                continue
            qk = tuple(map(sub, lk, lead_dk))
            exps = qk[:0:-1]
            for (lo, hi), e in zip(box, exps):
                if not lo <= e <= hi:
                    raise NotDivisible("quotient term outside the box")
            qc, r = divmod(rem.pop(lk), lead_dc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quot[exps] = qc * dd
            for dk, dc in dterms.items():
                k = tuple(map(add, qk, dk))
                v = get(k)
                if v is None:
                    rem[k] = -qc * dc
                    heappush(heap, k)
                elif v != qc * dc:
                    rem[k] = v - qc * dc
                else:
                    del rem[k]
        return MultiPoly._make(allvars, quot, g * self.den)

    def content(self) -> Fraction:
        """Positive rational content (gcd of numerators / lcm of denominators)."""
        if not self.nums:
            return Fraction(0)
        return Fraction(gcd(*self.nums.values()), self.den)

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms in canonical (grevlex-descending) order."""
        den = self.den
        return [
            (e, Fraction(self.nums[e], den))
            for e in sorted(self.nums, key=grevlex_key, reverse=True)
        ]

    def to_str(self) -> str:
        if not self.nums:
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


_set_vars = MultiPoly.vars.__set__
_set_nums = MultiPoly.nums.__set__
_set_den = MultiPoly.den.__set__


def _new(variables: tuple, nums: dict, den: int) -> MultiPoly:
    """A polynomial from parts that are already canonical."""
    self = object.__new__(MultiPoly)
    _set_vars(self, variables)
    _set_nums(self, nums)
    _set_den(self, den)
    return self


def as_poly(value) -> MultiPoly:
    """A MultiPoly as is, a name as that variable, an int or a Fraction as a
    constant; anything else is a TypeError."""
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, str):
        return MultiPoly.var(value)
    return MultiPoly.const(value)


def _scale_parts(p: MultiPoly, num: int, den: int) -> tuple:
    """(g, f, d) such that p * num/den has the numerators c // g * f over d,
    canonical.  ``num`` and ``den`` must be coprime and den positive.

    A prime that divided d and every new numerator would have to divide
    p.den and every numerator of p, or den and every numerator of p, or
    num and den; ``f`` and ``d`` are cut so that none can."""
    g1 = gcd(num, p.den)
    g = gcd(den, *p.nums.values()) if den != 1 else 1
    return g, num // g1, p.den // g1 * (den // g)


def constants_over_lcm(consts: Sequence[MultiPoly]) -> tuple:
    """(numerators, d): constant polynomials as integer numerators over the
    lcm d of their denominators."""
    d = lcm(*[c.den for c in consts])
    return [c.nums[()] * (d // c.den) if c.nums else 0 for c in consts], d


def constant_over(num: int, den: int) -> MultiPoly:
    """The constant num/den of integers, den > 0: constants_over_lcm's inverse."""
    return MultiPoly._make((), {(): num} if num else {}, den)


def _combine(a: MultiPoly, b: MultiPoly, sign: int) -> MultiPoly:
    """a + sign * b (sign is 1 or -1), over the lcm of the denominators."""
    if not b.nums:
        return a
    if not a.nums:
        return b if sign == 1 else -b
    if not a.vars and not b.vars:
        # two constants: na*db + sign*nb*da over da*db
        da, db = a.den, b.den
        num = a.nums[()] * db + sign * b.nums[()] * da
        if not num:
            return _new((), {}, 1)
        den = da * db
        g = gcd(num, den)
        return _new((), {(): num // g}, den // g)
    if a.vars == b.vars:
        allvars, x, y = a.vars, a.nums, b.nums
    else:
        allvars = MultiPoly._union_vars(a, b)
        x, y = a._embed(allvars), b._embed(allvars)
    if a.den == b.den:
        den, fx, fy = a.den, 1, sign
    else:
        den = lcm(a.den, b.den)
        fx, fy = den // a.den, den // b.den * sign
    # copy the larger side, merge the smaller into it
    if len(x) < len(y):
        x, y, fx, fy = y, x, fy, fx
    nums = dict(x) if fx == 1 else {e: c * fx for e, c in x.items()}
    get = nums.get
    for e, c in y.items():
        c *= fy
        prev = get(e)
        if prev is None:
            nums[e] = c
        else:
            c += prev
            if c:
                nums[e] = c
            else:
                del nums[e]
    return MultiPoly._make(allvars, nums, den)


def poly_sum(polys) -> MultiPoly:
    """The sum of an iterable of polynomials, normalised once.

    Zero terms are dropped; two terms are one ``_combine``.  More are
    scaled to the lcm of their denominators.  Constants then add up to one
    numerator over it, as two constants do in ``_combine``; any other terms
    are merged on the union of their variables into one dict, which
    ``_make`` then takes over, so each term is copied once instead of the
    whole running sum per term.
    """
    terms = [p for p in polys if p.nums]
    if len(terms) < 3:
        if len(terms) == 2:
            return _combine(terms[0], terms[1], 1)
        return terms[0] if terms else ZERO
    names = set().union(*[p.vars for p in terms])
    if names:
        widest = max(terms, key=lambda p: len(p.vars)).vars
        allvars = widest if len(widest) == len(names) else tuple(sorted(names, key=var_key))
    den = lcm(*[p.den for p in terms])
    num = 0
    nums: dict = {}
    get = nums.get
    for p in terms:
        f = den // p.den
        if not names:
            num += p.nums[()] * f
            continue
        for e, c in p._embed(allvars).items():
            nums[e] = get(e, 0) + c * f
    if not names:
        return constant_over(num, den)
    return MultiPoly._make(allvars, {e: c for e, c in nums.items() if c}, den)


def _monomial_product(a: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Product with a single-term ``m``: a shift of every exponent of ``a``
    and a scaling, so no two terms collide and nothing needs packing."""
    allvars = MultiPoly._union_vars(a, m)
    ((em, cm),) = m._embed(allvars).items()
    g, f, d = _scale_parts(a, cm, m.den)
    nums = {tuple(map(add, e, em)): c // g * f for e, c in a._embed(allvars).items()}
    return _pruned(allvars, nums, d)


def _pruned(variables: tuple, nums: dict, den: int) -> MultiPoly:
    """``_make`` without the gcd, for nonzero numerators already reduced."""
    if variables and not all(map(any, zip(*nums))):
        used = [i for i, col in enumerate(zip(*nums)) if any(col)]
        variables = tuple(variables[i] for i in used)
        nums = {tuple(e[i] for i in used): c for e, c in nums.items()}
    return _new(variables, nums, den)


def _packing(allvars: tuple, groups: Sequence[Sequence[MultiPoly]]) -> tuple:
    """Int keys for the products that take one polynomial from each group:
    ``(packed, den, fields)``, for the two hot products, ``_packed_product``
    and the determinant's minor expansion.

    Each group is scaled to integer numerators over the lcm of its
    denominators, and ``den`` is the product of those lcms.  Each exponent
    vector is packed into one int in mixed radix: variable i gets the width
    sum over groups of the span of its exponents in the group, plus 1, and a
    polynomial is keyed on its exponents minus its group's low corner.  So the
    sum of one key from each group is the packed key of the product monomial,
    every field stays in its width and none can carry into the next.
    ``packed[g][t]`` lists the (key, numerator) pairs of ``groups[g][t]``;
    ``fields`` lists the (radix, width, low) of each variable of ``allvars``,
    what ``_unpack`` needs to map such key sums back to exponent vectors.
    """
    n = len(allvars)
    low = [0] * n
    width = [1] * n
    rows = []
    for group in groups:
        placed = []
        lo = hi = None
        for p in group:
            pos = range(n) if p.vars == allvars else [allvars.index(v) for v in p.vars]
            placed.append(pos)
            if not p.nums:
                continue
            # a variable that p lacks has exponent 0 in each of its terms
            plo, phi = [0] * n, [0] * n
            for i, col in zip(pos, zip(*p.nums)):
                plo[i] = min(col)
                phi[i] = max(col)
            if lo is None:
                lo, hi = plo, phi
            else:
                lo, hi = list(map(min, lo, plo)), list(map(max, hi, phi))
        if lo is None:
            lo = hi = [0] * n
        low = list(map(add, low, lo))
        width = [w + h - l for w, h, l in zip(width, hi, lo)]
        rows.append((group, placed, lo))
    radix = []
    r = 1
    for w in width:
        radix.append(r)
        r *= w
    packed = []
    den = 1
    for group, placed, lo in rows:
        d = lcm(*[p.den for p in group])
        den *= d
        off = sum(map(mul, lo, radix))
        keyed = []
        for p, pos in zip(group, placed):
            rad = [radix[i] for i in pos]
            f = d // p.den
            keyed.append([(sum(map(mul, e, rad)) - off, c * f) for e, c in p.nums.items()])
        packed.append(keyed)
    return packed, den, list(zip(radix, width, low))


def _unpack(fields: Sequence[tuple], out: dict) -> dict:
    """The dict from packed keys to numerators as the dict from exponent
    vectors to its nonzero numerators; ``fields`` lists each variable's
    (radix, width, low), as ``_packing`` returns them."""
    return {tuple([k // r % w + lo for r, w, lo in fields]): v for k, v in out.items() if v}


def _packed_product(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Product of two non-constant polynomials on integers.

    Both operands are packed as groups of one (``_packing``), so the sum of
    two keys is the key of the product monomial.  The numerators multiply as
    stored, over the product of the two denominators, so the inner loop does
    one int multiply and one int add.
    """
    allvars = MultiPoly._union_vars(a, b)
    ((pa,), (pb,)), den, fields = _packing(allvars, ((a,), (b,)))
    out: dict = {}
    get = out.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return MultiPoly._make(allvars, _unpack(fields, out), den)


ZERO = MultiPoly.zero()
