"""Exact sparse Laurent arithmetic with factored denominators.

Everything downstream (vertex amplitudes, coefficient functions, instanton
sums) runs on the classes in this module.  There is no floating point
anywhere: polynomial coefficients are ints or fractions.Fraction, and
every MultiQSeries coefficient is a LaurentFraction (the constructor
coerces ints, Fractions and LaurentPolys; a missing key reads as a zero
fraction), so each series operation has one code path.

Exponent conventions shared across the package:

* an exponent vector (e0, e1, ...) has axis 0 for the half-power variable t
  (t**2 is the loop weight q) and axis k >= 1 for the half-power s_k of the
  k-th box-count variable Q_k; at the public boundary (constructors, shift,
  the decoded view LaurentPoly.d, JSON) it is an int tuple with trailing
  zeros trimmed,
* inside LaurentPoly it is one packed int, sum(e_i * 2**(64*i)): balanced
  digits in [-2**63, 2**63), axis 0 least significant.  Trailing zeros
  vanish by themselves, adding keys is +, inverting all variables is unary
  -, and int order is s-major order (highest axis first, axis 0 last), a
  total order compatible with key addition, which is what makes exact
  division and the extremes of products predictable,
* pack() rejects an exponent of magnitude 2**31 or more, and so do **
  and subs_power, the operations that multiply exponents, so no digit can
  wrap into its neighbour unless 2**32 keys of the largest size are added
  up in one chain of products.

Denominators are kept as multisets of canonical factors (lowest key shifted
to the origin, constant coefficient 1).  Sums and products then never need a
polynomial gcd: identical factors cancel syntactically, and each binomial
factor 1 + v*X**k is divided out of the numerator exactly (synthetic
division) whenever it divides.  The paper's identities are products of such
binomials; a factor with more terms stays in the denominator, and equality
stays exact because == cross-multiplies (see Product, below).  Most
factors are 1 - X**k, which vanish at X = (1, ..., 1).  Evaluation at 1
is a ring map, so such a factor cannot divide a numerator whose
coefficients do not sum to 0; that division is not attempted, since it
could only fail, and the result is the same.
The reduction, _make, is one pass over the factor multiset: it builds
the factors left in the input's order, so each factor is hashed once, and
a fraction with no denominator comes back at once.
LaurentFraction.sum brings many terms over one lcm and reduces once, and
a + b is its two-term case.  MultiQSeries.sum is that path for series,
one LaurentFraction.sum per key, and series a + b is its two-term case.
A polynomial product or sum turns Fraction values of denominator 1 into
ints only when a Fraction is among its values; int arithmetic gives ints.
Scaling by a number, and a product with a one-term polynomial, keep int
coefficients in ints: an int v times p/q is (v * p) // q when q divides
v * p, and a Fraction only when it does not, so a scalar such as 1/2**k
costs no Fraction arithmetic on an int coefficient.  a / b by a divisor
whose numerator is one term, c * X**k / D, with every factor of D in
a's denominator, works on the factor multisets: D's factors are taken
off a's denominator before one reduction.  That normal form may differ
from the one a * b.inv() reaches, so a value that is rendered is built
with * inv(), not with /; any other divisor goes through a * b.inv().
The box is walked in one place, _room, a memo table of the keys a key
leaves room for in a box, in itertools.product order.  One enumerator,
_pairs, yields the pairs of keys of two series whose sum lies in the
box: for each key of the left operand it walks that key's room and
looks each key of the room up in the right operand; MultiQSeries.exp
walks the room of the origin.  Squaring by
symmetry lives there too: for x * x it yields each unordered pair of
keys once and marks the off-diagonal ones, whose products are doubled.
MultiQSeries * and the packed product in _cross_equal both loop over it.
An eager product's keys therefore first appear in room order, not in the
right operand's order; each key's parts still come in the left
operand's key order, as the right key that completes a pair is unique.

Canonical factors are interned: _canonical_parts and LaurentFraction's
constructor hand out one shared object per factor value, the first that
the memo table _FACTOR_CACHE stored, so a factor multiset finds a factor
by identity instead of comparing its terms.  Hash and equality stay
those of any equal polynomial, so set and dict orders over factors, and
with them every normal form, do not change.  Every factor multiset,
the packed comparison's included, is a dict keyed by the factor itself.

Product(*factors, scalar=None) is a product of series left unevaluated.
Its value() is the normal form (the factors multiplied left to right,
then scaled), for anything that is rendered.  A check that only compares
a product with a series, or with another product, does not need that
normal form: Product's == hands both sides to _cross_equal, which brings
each factor series over one factor multiset and both sides over a
common one, and compares the numerators as Python ints.  Every
coefficient it meets is a polynomial in t alone (one with an s exponent
raises ValueError), and each is Kronecker-packed once, at t = 2**w with
a slot width w that no coefficient of the difference can reach, so an
int product is a polynomial product and equal ints are equal
polynomials.  The series are then multiplied on their packed
coefficients through _pairs, one int product per pair of keys, so a
long product, a scaled one (the sinh side with its Q-free scalar) and
one whose factors cancel only after reduction all compare without a
reduction, a division attempt or a dict polynomial product.
LaurentFraction's == needs no kernel and takes any number of axes: over
equal factor multisets it compares the numerators, and otherwise it
cross-multiplies them, each times the expanded factors of the larger
multiset it lacks.

same(lhs, rhs) is the one comparator every check goes through: it returns
True when the sides are equal and otherwise raises Mismatch, naming the
first key, in sorted order, where two series, polynomials or dicts differ,
with both coefficients rendered as in the JSON output (a constant fraction
as its number).  Either side may be a Product; it is evaluated only on
the failure path, to build the same witness its value would give.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

CACHE_LIMIT = 1 << 20


def memo(table: dict):
    """Cache a function's results in `table`, keyed on its positional arguments.

    A hit returns the stored object itself.  Once the table holds
    CACHE_LIMIT entries, new results are still computed but not stored.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(*args):
            hit = table.get(args)
            if hit is not None:
                return hit
            out = fn(*args)
            if len(table) < CACHE_LIMIT:
                table[args] = out
            return out
        return cached
    return decorate


DIGIT_BITS = 64
_BASE = 1 << DIGIT_BITS
_MASK = _BASE - 1
_HALF = _BASE >> 1
EXP_LIMIT = 1 << 31


def pack(key) -> int:
    """Packed int key of an exponent tuple: axis i is the balanced digit of 2**(64*i)."""
    x = 0
    for e in reversed(key):
        if not -EXP_LIMIT < e < EXP_LIMIT:
            raise OverflowError(f"exponent {e} is out of the packed key range")
        x = (x << DIGIT_BITS) + e
    return x


def _digit0(x: int) -> int:
    """The axis-0 exponent of a packed key."""
    return ((x + _HALF) & _MASK) - _HALF


def unpack(x: int) -> tuple[int, ...]:
    """Exponent tuple of a packed key, trailing zeros trimmed."""
    out = []
    while x:
        e = _digit0(x)
        out.append(e)
        x = (x - e) >> DIGIT_BITS
    return tuple(out)


def _digits(keys: Iterable[int], axis: int) -> list[int]:
    """The exponents on one axis of packed keys, by one add, shift and mask each.

    Half a unit of the axis lifts the part below it into [0, 2**(64*axis))
    and 2**63 units lift the axis digit into [0, 2**64), so neither carries.
    """
    sh = DIGIT_BITS * axis
    off = (_HALF << sh) + (1 << sh >> 1)
    return [(((x + off) >> sh) & _MASK) - _HALF for x in keys]


def _normval(v):
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _normvals(t: dict) -> dict:
    """t with _normval applied to each value; t itself when no value is a
    Fraction, since only a Fraction can need it."""
    if Fraction in map(type, t.values()):
        return {k: _normval(v) for k, v in t.items()}
    return t


def _inverse(c):
    """1 / c for a nonzero number c; a unit +-1 is its own inverse."""
    return c if c == 1 or c == -1 else Fraction(1) / c


def _scaled(t: dict, c, x: int = 0) -> dict:
    """The terms of t times the nonzero number c, each key shifted by x.

    Values, value types and key order are those of
    {k + x: _normval(v * c) for k, v in t.items()}, but an int value times
    c = p/q stays in ints: n = v * p is n // q when q divides it and
    Fraction(n, q) only when it does not.  A Fraction c with denominator 1
    acts as its int.
    """
    if type(c) is Fraction:
        p, q = c.numerator, c.denominator
    else:
        p, q = c, 1
    if q == 1:
        return {k + x: v * p if type(v) is int else _normval(v * p) for k, v in t.items()}
    out = {}
    for k, v in t.items():
        if type(v) is int:
            n = v * p
            out[k + x] = Fraction(n, q) if n % q else n // q
        else:
            out[k + x] = _normval(v * c)
    return out


def _power(x, n: int, one):
    """x ** n for an int n >= 0 by square-and-multiply, starting from one."""
    out, base = one, x
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class LaurentPoly:
    """Sparse Laurent polynomial with packed int exponent keys and exact coefficients."""

    __slots__ = ("_t", "_h", "_k")

    def __init__(self, d: Mapping | None = None):
        dd = {}
        if d:
            for k, v in d.items():
                v = _normval(v)
                if v:
                    dd[pack(k)] = v
        self._t = dd

    @classmethod
    def _of(cls, t: dict):
        """Adopt t as the term dict: packed keys, values nonzero and normalized."""
        r = cls.__new__(cls)
        r._t = t
        return r

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({0: 1})

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def term(cls, c, key):
        return cls({tuple(key): c})

    @classmethod
    def var(cls, axis: int, exp: int = 1):
        return cls._of({pack((0,) * axis + (exp,)): 1})

    @property
    def d(self) -> Mapping:
        """Read-only view of the terms keyed by exponent tuples, for boundary
        code; decoded on each read."""
        return MappingProxyType({unpack(k): v for k, v in self._t.items()})

    @property
    def nvars(self) -> int:
        return max((len(unpack(k)) for k in self._t), default=0)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._t)
        for k, v in o._t.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = _normval(w)
            else:
                out.pop(k, None)
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({k: -v for k, v in self._t.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self._t) < len(o._t):
            self, o = o, self
        if len(o._t) == 1:
            # one term: no two products share a key, so none cancels
            (k2, v2), = o._t.items()
            return LaurentPoly._of(_scaled(self._t, v2, k2))
        out: dict = {}
        for k2, v2 in o._t.items():
            for k1, v1 in self._t.items():
                kk = k1 + k2
                w = out.get(kk, 0) + v1 * v2
                if w:
                    out[kk] = w
                else:
                    del out[kk]
        return LaurentPoly._of(_normvals(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        top = max((abs(e) for k in self._t for e in unpack(k)), default=0)
        if top * n >= EXP_LIMIT:
            raise OverflowError("an exponent of the power leaves the packed key range")
        return _power(self, n, LaurentPoly.one())

    def scale(self, c):
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._of(_scaled(self._t, c))

    def shift(self, key):
        """Multiply by the monomial with the given exponent tuple."""
        return self._shifted(pack(key))

    def _shifted(self, x: int):
        """Multiply by the monomial with packed key x."""
        if not x:
            return self
        return LaurentPoly._of({k + x: v for k, v in self._t.items()})

    def subs_power(self, n: int):
        """Replace the axis-0 variable t by t**n (n >= 1)."""
        if n < 1:
            raise ValueError("substitution power must be >= 1")
        if n == 1:
            return self
        out = {}
        for k, v in self._t.items():
            e = _digit0(k)
            if abs(e * n) >= EXP_LIMIT:
                raise OverflowError("a substituted exponent leaves the packed key range")
            out[k + (n - 1) * e] = v
        return LaurentPoly._of(out)

    def invert_vars(self):
        """Send every variable to its reciprocal."""
        return LaurentPoly._of({-k: v for k, v in self._t.items()})

    def fold_axes(self):
        """Identify all variables: key (e0, e1, ...) becomes (e0+e1+...,)."""
        out = {}
        for k, v in self._t.items():
            kk = pack((sum(unpack(k)),))
            w = out.get(kk, 0) + v
            if w:
                out[kk] = _normval(w)
            else:
                out.pop(kk, None)
        return LaurentPoly._of(out)

    def min_key(self) -> int:
        """The least packed key, that is, the s-major least exponent."""
        return min(self._t)

    def terms(self):
        """(exponent tuple, coeff) pairs in s-major order."""
        return [(unpack(k), self._t[k]) for k in sorted(self._t)]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        """Computed once and kept in the _h slot."""
        try:
            return self._h
        except AttributeError:
            pass
        if self._t.keys() <= {0}:
            self._h = hash(self._t.get(0, 0))  # equal to a number, so hash as one
        else:
            self._h = hash(frozenset((unpack(k), v) for k, v in self._t.items()))
        return self._h

    def __repr__(self):
        if not self._t:
            return "LaurentPoly(0)"
        bits = []
        for k, v in self.terms():
            bits.append(f"{v}*X{list(k)}")
        return "LaurentPoly(" + " + ".join(bits) + ")"


_FACTOR_CACHE: dict = {}


@memo(_FACTOR_CACHE)
def _interned(f: LaurentPoly) -> LaurentPoly:
    """The one shared object of the canonical factor f's value: the first
    one memo stored.

    Factor multisets then find a factor by identity, without comparing
    terms.  Hash and equality are those of any equal polynomial, so set
    and dict orders over factors do not change.
    """
    return f


def _canonical_parts(p: LaurentPoly):
    """Split p as coeff * monomial * canonical, canonical having constant 1.

    Returns (canonical_or_None, packed monomial key, coeff); canonical is
    None when p itself is a single term, and otherwise interned.
    """
    if not p._t:
        raise ZeroDivisionError("zero denominator")
    mk = p.min_key()
    c = p._t[mk]
    if len(p._t) == 1:
        return None, mk, c
    canon = p._shifted(-mk).scale(_inverse(c))
    return _interned(canon), mk, c


def _exact_div(num: LaurentPoly, f: LaurentPoly):
    """Quotient num / f when f = 1 + v*X**k divides num exactly, else None.

    f must be canonical; a factor with more than two terms is not divided.
    The quotient obeys q[m] = num[m] - v*q[m - k], so each chain of keys
    m, m + k, m + 2k, ... is walked from its least key, through any gaps,
    and the division is exact iff the running value is 0 at the chain's top
    key.  Chains are told apart by the digit of k's top axis, which is
    positive because the constant term is f's least key: a term's chain
    index is its own digit there, floor-divided by k's.
    """
    if len(f._t) != 2:
        return None
    k = max(f._t)
    v = f._t[k]
    ks = unpack(k)
    step = ks[-1]
    chains: dict = {}
    for (m, c), e in zip(num._t.items(), _digits(num._t, len(ks) - 1)):
        j = e // step
        chains.setdefault(m - j * k, {})[j] = c
    q = {}
    for base, cs in chains.items():
        lo, hi = min(cs), max(cs)
        m = base + lo * k
        acc = 0
        for j in range(lo, hi):
            acc = cs.get(j, 0) - v * acc
            if acc:
                q[m] = _normval(acc)
            m += k
        if cs[hi] != v * acc:
            return None
    return LaurentPoly._of(q)


_EXPAND_CACHE: dict = {}


def _den_expand(den: Mapping) -> LaurentPoly:
    """Expand a factor multiset into a single polynomial (cached); a lone
    factor of exponent 1 is its own expansion."""
    if not den:
        return LaurentPoly.one()
    if len(den) == 1:
        (f, e), = den.items()
        if e == 1:
            return f
    return _factor_product(frozenset(den.items()))


@memo(_EXPAND_CACHE)
def _factor_product(factors: frozenset) -> LaurentPoly:
    out = LaurentPoly.one()
    for f, e in factors:
        out = out * f ** e
    return out


def _lacks(den: Mapping, top: Mapping) -> dict:
    """The factors of top that den lacks, each with the exponent by which den falls short."""
    return {f: e - den.get(f, 0) for f, e in top.items() if e > den.get(f, 0)}


class LaurentFraction:
    """Quotient of Laurent polynomials with factored denominator.

    The denominator is a dict mapping canonical LaurentPoly factors to
    positive exponents.  Instances are treated as immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Mapping | None = None):
        den = dict(den) if den else {}
        for f, e in den.items():
            if not (isinstance(f, LaurentPoly) and len(f._t) > 1 and f._t.get(0) == 1
                    and f.min_key() == 0):
                raise ValueError(f"denominator factor {f!r} is not canonical")
            if not (isinstance(e, int) and e > 0):
                raise ValueError(f"denominator exponent {e!r} is not a positive int")
        self.num = num
        self.den = {_interned(f): e for f, e in den.items()} if den else den

    @classmethod
    def _of(cls, num: LaurentPoly, den: dict):
        """Adopt num and den unchecked: every factor canonical, every exponent positive."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def _make(cls, num: LaurentPoly, den: dict):
        """num / den reduced: each factor, in den's order, divided out of
        num while it divides; the factors left keep den's order."""
        out: dict = {}
        if not num._t:
            return cls._of(LaurentPoly.zero(), out)
        if not den:
            return cls._of(num, out)
        # Evaluation at X = 1 is a ring map, so f | num forces
        # num(1) = f(1) * q(1): a factor vanishing at 1 cannot divide a
        # numerator that does not, and the walk is not started.
        at_one = sum(num._t.values())
        for f, e in den.items():
            vanishes = not sum(f._t.values())
            while e > 0:
                if at_one and vanishes:
                    break
                qq = _exact_div(num, f)
                if qq is None:
                    break
                num = qq
                at_one = sum(num._t.values())
                e -= 1
            if e:
                out[f] = e
        return cls._of(num, out)

    @classmethod
    def from_poly(cls, p: LaurentPoly):
        return cls(p, {})

    @classmethod
    def const(cls, c):
        return cls(LaurentPoly.const(c), {})

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one(), {})

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero(), {})

    @classmethod
    def monomial(cls, c, key):
        return cls(LaurentPoly.term(c, key), {})

    @classmethod
    def ratio(cls, num: LaurentPoly, den: LaurentPoly):
        canon, mk, c = _canonical_parts(den)
        num2 = num._shifted(-mk).scale(_inverse(c))
        return cls._make(num2, {canon: 1} if canon is not None else {})

    def is_zero(self) -> bool:
        return not self.num._t

    def __bool__(self):
        return bool(self.num._t)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentFraction):
            return x
        if isinstance(x, LaurentPoly):
            return LaurentFraction(x, {})
        if isinstance(x, (int, Fraction)):
            return LaurentFraction(LaurentPoly.const(x), {})
        return None

    def __mul__(self, other):
        o = other if type(other) is LaurentFraction else self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction._make(self.num * o.num, _den_sum(self.den, o.den))

    __rmul__ = __mul__

    @classmethod
    def sum(cls, terms: Iterable[LaurentFraction]):
        """Sum of fractions over the lcm of their denominators, reduced once.

        Terms may also be ints, Fractions or LaurentPolys, as for +.  Zero
        terms are dropped; a lone nonzero term is returned as it is.  The
        lcm's factors are tried in the order of one set grown in place (for
        two terms, set(a.den) | set(b.den)): it decides which of two
        overlapping binomials divides first, and so the rendered bytes.
        """
        terms = [t if type(t) is LaurentFraction else cls._coerce(t) for t in terms]
        if any(t is None for t in terms):
            raise TypeError("LaurentFraction.sum takes fractions, polynomials and numbers")
        terms = [t for t in terms if t.num._t]
        if len(terms) < 2:
            return terms[0] if terms else cls.zero()
        factors = set(terms[0].den)
        for t in terms[1:]:
            factors |= set(t.den)
        den = {f: max(t.den.get(f, 0) for t in terms) for f in factors}
        acc: dict = {}
        for t in terms:
            missing = _lacks(t.den, den)
            num = t.num * _den_expand(missing) if missing else t.num
            for k, v in num._t.items():
                acc[k] = acc.get(k, 0) + v
        return cls._make(LaurentPoly._of(_normvals({k: v for k, v in acc.items() if v})), den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction.sum((self, o))

    __radd__ = __add__

    def __neg__(self):
        return LaurentFraction._of(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def inv(self):
        if not self.num._t:
            raise ZeroDivisionError("inverting zero")
        return LaurentFraction.ratio(_den_expand(self.den), self.num)

    def __truediv__(self, other):
        """self / other; a divisor c * X**k / D whose factors self's
        denominator all holds is divided in factored form: D's factors are
        taken off self's, and the numerator is shifted and scaled by
        1 / (c * X**k).  Any other divisor goes through self * other.inv()."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(o.num._t) != 1 or _lacks(self.den, o.den):
            return self * o.inv()
        (k, c), = o.num._t.items()
        den = dict(self.den)
        for f, e in o.den.items():
            left = den.get(f, 0) - e
            if left:
                den[f] = left
            else:
                del den[f]
        return LaurentFraction._make(LaurentPoly._of(_scaled(self.num._t, _inverse(c), -k)), den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, LaurentFraction.one())

    def scale(self, c):
        if not c:
            return LaurentFraction.zero()
        return LaurentFraction._of(self.num.scale(c), self.den)

    def shift(self, key):
        return LaurentFraction._of(self.num.shift(key), self.den)

    def _remap(self, fn):
        """Map numerator and factors through fn, re-canonicalizing each factor.

        A mapped factor's monomial and coefficient move into the numerator.
        A factor that fn collapses to a single term has no canonical form.
        """
        num = fn(self.num)
        den: dict = {}
        for f, e in self.den.items():
            g = fn(f)
            if len(g._t) < 2:
                raise ValueError("denominator factor degenerates under the substitution")
            canon, mk, c = _canonical_parts(g)
            den[canon] = den.get(canon, 0) + e
            num = num._shifted(-mk * e).scale(_inverse(c) ** e)
        return LaurentFraction._make(num, den)

    def subs_power(self, n: int):
        return self._remap(lambda p: p.subs_power(n))

    def invert_vars(self):
        return self._remap(LaurentPoly.invert_vars)

    def fold_axes(self):
        """Identify all variables with axis 0 (diagonal specialization)."""
        return self._remap(LaurentPoly.fold_axes)

    def den_poly(self) -> LaurentPoly:
        return _den_expand(self.den)

    def as_poly(self) -> LaurentPoly:
        """Return the numerator when the denominator is trivial."""
        if self.den:
            raise ValueError("fraction has a nontrivial denominator")
        return self.num

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num._t == o.num._t
        # both numerators over the larger of the two factor multisets
        return ((self.num * _den_expand(_lacks(self.den, o.den)))._t
                == (o.num * _den_expand(_lacks(o.den, self.den)))._t)

    __hash__ = None

    def expand_at_zero(self, deg: int) -> dict[int, Fraction]:
        """Series coefficients around t = 0 up to exponent deg (axis 0 only)."""
        dd = _uni(_den_expand(self.den))
        nn = _uni(self.num)
        if not nn:
            return {}
        lo_d = min(dd)
        inv0 = Fraction(1) / dd[lo_d]
        lo = min(nn) - lo_d
        c: dict[int, Fraction] = {}
        for k in range(lo, deg + 1):
            acc = nn.get(k + lo_d, 0)
            for j, bj in dd.items():
                if j == lo_d:
                    continue
                prev = c.get(k + lo_d - j)
                if prev:
                    acc -= bj * prev
            if acc:
                c[k] = _normval(acc * inv0)
        return c

    def expand_at_infinity(self, deg: int) -> dict[int, Fraction]:
        """Series coefficients in u = 1/t up to exponent deg (axis 0 only)."""
        return self.invert_vars().expand_at_zero(deg)

    def __repr__(self):
        if not self.den:
            return f"LaurentFraction({self.num!r})"
        return f"LaurentFraction({self.num!r} / {len(self.den)} factors)"


def _uni(p: LaurentPoly) -> dict[int, object]:
    """Terms keyed by the t exponent; a one-axis packed key is that exponent."""
    if any(not -_HALF <= k < _HALF for k in p._t):
        raise ValueError("needs a polynomial in t alone, with no s exponent")
    return p._t


_ROOM_CACHE: dict = {}


@memo(_ROOM_CACHE)
def _room(key: tuple, dims: tuple) -> list:
    """The room key leaves in the box dims: a (k2, key + k2) row for each
    k2 >= 0 whose sum with key stays inside, in itertools.product order."""
    return [(k2, tuple(x + y for x, y in zip(key, k2)))
            for k2 in itertools.product(*(range(d - x + 1) for x, d in zip(key, dims)))]


def _pairs(a: Mapping, b: Mapping | None, dims):
    """(summed key, value in a, value in b, twice) for each pair of keys of
    a and b whose sum lies in the box dims, a's keys outermost.

    For each key of a it walks only the _room that key leaves in the box
    and looks each of the room's keys up in b.

    With b None it squares a: each unordered pair of keys is yielded once,
    its first value that of the key a lists first, and twice is set off
    the diagonal.
    """
    square = b is None
    if square:
        order = {k: i for i, k in enumerate(a)}
    for i, (k1, v1) in enumerate(a.items()):
        room = _room(k1, dims)
        if square:
            for k2, kk in room:
                j = order.get(k2, -1)
                if j >= i:
                    yield kk, v1, a[k2], j > i
        else:
            for k2, kk in room:
                v2 = b.get(k2)
                if v2 is not None:
                    yield kk, v1, v2, False


class MultiQSeries:
    """Box-truncated series in several Q variables with LaurentFraction coefficients."""

    __slots__ = ("dims", "c")

    def __init__(self, dims: tuple[int, ...], coeffs: Mapping | None = None):
        self.dims = tuple(dims)
        cc = {}
        if coeffs:
            for k, v in coeffs.items():
                k = tuple(k)
                if len(k) != len(self.dims):
                    raise ValueError("key length does not match dims")
                if any(x < 0 for x in k):
                    raise ValueError("negative Q exponent")
                v = LaurentFraction._coerce(v)
                if v is None:
                    raise TypeError("series coefficients are fractions, polynomials or numbers")
                if v and all(x <= d for x, d in zip(k, self.dims)):
                    cc[k] = v
        self.c = cc

    @classmethod
    def _of(cls, dims: tuple[int, ...], c: dict):
        """Adopt c as the coefficients unchecked: keys inside the box, values nonzero."""
        r = cls.__new__(cls)
        r.dims = dims
        r.c = c
        return r

    def get(self, key):
        """The coefficient at key; a zero LaurentFraction when the key is absent."""
        return self.c.get(tuple(key)) or LaurentFraction.zero()

    def _check(self, other: "MultiQSeries"):
        if self.dims != other.dims:
            raise ValueError("dims differ")

    @classmethod
    def sum(cls, dims, terms: Iterable["MultiQSeries"]):
        """Sum of series on the box dims: each key's coefficients over all
        the terms go to one LaurentFraction.sum, the keys in the order they
        first appear, and a key whose sum is zero is dropped."""
        dims = tuple(dims)
        parts: dict = {}
        for s in terms:
            if not isinstance(s, MultiQSeries):
                raise TypeError("MultiQSeries.sum takes series")
            if s.dims != dims:
                raise ValueError("dims differ")
            for k, v in s.c.items():
                parts.setdefault(k, []).append(v)
        out = {k: LaurentFraction.sum(vs) for k, vs in parts.items()}
        return MultiQSeries._of(dims, {k: v for k, v in out.items() if v})

    def __add__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        return MultiQSeries.sum(self.dims, (self, other))

    def __sub__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        parts: dict = {}
        for kk, v1, v2, twice in _pairs(self.c, None if other is self else other.c, self.dims):
            p = v1 * v2
            parts.setdefault(kk, []).append(p.scale(2) if twice else p)
        out = {kk: LaurentFraction.sum(vs) for kk, vs in parts.items()}
        return MultiQSeries._of(self.dims, {k: v for k, v in out.items() if v})

    def scale(self, x):
        if not x:
            return MultiQSeries(self.dims)
        return MultiQSeries._of(self.dims, {k: x * v for k, v in self.c.items()})

    def shift(self, key):
        """Multiply by the Q monomial with exponent key, dropping terms that
        leave the box."""
        key = tuple(key)
        if any(x < 0 for x in key):
            raise ValueError("negative Q shift")
        return MultiQSeries(self.dims, {tuple(a + b for a, b in zip(k, key)): v
                                        for k, v in self.c.items()})

    def exp(self) -> "MultiQSeries":
        """exp of a series with zero constant term.

        Uses the Euler-operator recurrence |k| e_k = sum_j |j| a_j e_{k-j},
        |k| being the total degree, filling the box in lexicographic order
        so every e_{k-j} is known before e_k (a k - j with a negative entry
        is never a key of e).
        """
        origin = (0,) * len(self.dims)
        if self.get(origin):
            raise ValueError("exp needs zero constant term")
        terms = [(j, a.scale(sum(j))) for j, a in sorted(self.c.items())]
        e: dict = {origin: LaurentFraction.one()}
        for k, _ in _room(origin, self.dims):
            if k == origin:
                continue
            parts = []
            for j, ja in terms:
                prev = e.get(tuple(b - a for a, b in zip(j, k)))
                if prev is not None:
                    parts.append(ja * prev)
            acc = LaurentFraction.sum(parts)
            if acc:
                e[k] = acc.scale(Fraction(1, sum(k)))
        return MultiQSeries._of(self.dims, e)

    def __eq__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        return all(self.get(k) == other.get(k) for k in self.c.keys() | other.c.keys())

    __hash__ = None

    @classmethod
    def one(cls, dims):
        return cls(tuple(dims), {tuple(0 for _ in dims): LaurentFraction.one()})

    def __repr__(self):
        return f"MultiQSeries(dims={self.dims}, terms={len(self.c)})"


class Product:
    """The product of series factors times an optional scalar, unevaluated.

    value() is the product in normal form: the factors multiplied left to
    right (x * x squares by symmetry), then scaled by the scalar.  == and
    same() compare a Product with a series or another Product without
    that normal form: _cross_equal multiplies the factors on ints packed
    in t, each coefficient's numerator over its factor's common
    denominator, and compares the two sides' numerators over a common
    factor multiset exactly.  A coefficient or scalar with an s exponent
    raises ValueError.
    """

    __slots__ = ("factors", "scalar", "dims")

    def __init__(self, *factors: MultiQSeries, scalar=None):
        if not factors:
            raise ValueError("a product needs at least one factor")
        for f in factors:
            if not isinstance(f, MultiQSeries):
                raise TypeError("product factors are series")
            factors[0]._check(f)
        if scalar is not None and LaurentFraction._coerce(scalar) is None:
            raise TypeError("a product's scalar is a fraction, polynomial or number")
        self.factors = factors
        self.scalar = scalar
        self.dims = factors[0].dims

    def value(self) -> MultiQSeries:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out * f
        return out if self.scalar is None else out.scale(self.scalar)

    def __eq__(self, other):
        if isinstance(other, MultiQSeries):
            other = Product(other)
        elif not isinstance(other, Product):
            return NotImplemented
        self.factors[0]._check(other)
        return _cross_equal(*((LaurentFraction.one() if p.scalar is None
                               else LaurentFraction._coerce(p.scalar),
                               [f.c for f in p.factors], p.dims) for p in (self, other)))

    __hash__ = None

    def __repr__(self):
        return f"Product(dims={self.dims}, factors={len(self.factors)})"


def _den_sum(a: dict, b: dict) -> dict:
    """The sum of two factor multisets; an empty one returns the other as it is."""
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for f, e in b.items():
        out[f] = out.get(f, 0) + e
    return out


# What packing a polynomial in t needs, kept in its _k slot: its
# coefficients times their common denominator clear, as ints; their L1
# norm and largest magnitude; its least exponent lo; the gcd of its
# exponents above lo; and, in term order, each exponent above lo in units
# of that gcd.  Zero has norm 0 and no terms.
_Packing = namedtuple("_Packing", "ints clear norm peak lo gcd units")

# A product of (packing, power) parts, the first a numerator of power 1,
# before it is packed: the product of the parts' clears, bounds on its L1
# norm and on its largest coefficient, and its least exponent.
_Entry = namedtuple("_Entry", "parts clear norm peak lo")

# A coefficient dict over one factor multiset: top is that multiset, D_i,
# as {factor: exponent}; entries maps id(v) to the _Entry of v's
# numerator times the factors of D_i that v lacks; clear is the lcm of
# their clears, norm the sum of their L1 bounds at the scale clear, and
# ref the least exponent of the first entry, which the others' are
# counted from.
_Column = namedtuple("_Column", "top entries clear norm ref")

# One side of a comparison before packing: const is the _Entry of its
# scalar's numerator times the factors of the common multiset the side
# lacks, scale the product of its clears, bound a bound on its
# coefficients at every key, and ref the sum of const's least exponent
# and its columns' refs.
_Side = namedtuple("_Side", "const scale bound ref cols dims")


def _packing(p: LaurentPoly) -> _Packing:
    """p's _Packing, computed once and kept in p's _k slot; ValueError
    when p has an s exponent."""
    try:
        return p._k
    except AttributeError:
        pass
    t = _uni(p)
    if not t:
        p._k = _Packing([], 1, 0, 0, 0, 0, [])
        return p._k
    vals = list(t.values())
    clear = 1
    if Fraction in set(map(type, vals)):
        clear = math.lcm(*(v.denominator for v in vals if type(v) is Fraction))
        vals = [int(v * clear) for v in vals]
    mags = list(map(abs, vals))
    lo = min(t)
    steps = [e - lo for e in t]
    g = math.gcd(*steps)
    p._k = _Packing(vals, clear, sum(mags), max(mags), lo, g,
                    [e // g for e in steps] if g > 1 else steps)
    return p._k


def _entry(parts: list) -> _Entry:
    """The _Entry of the product of (packing, power) parts.

    Its largest coefficient is at most the first part's largest one times
    the other parts' L1 norms."""
    clear = norm = 1
    lo = 0
    for r, j in parts:
        clear *= r.clear ** j
        norm *= r.norm ** j
        lo += r.lo * j
    first = parts[0][0]
    return _Entry(parts, clear, norm, norm // first.norm * first.peak if norm else 0, lo)


def _column(c: dict) -> _Column:
    """The _Column of the coefficient dict c."""
    top: dict = {}
    for v in c.values():
        for f, e in v.den.items():
            if e > top.get(f, 0):
                top[f] = e
    packings = {f: _packing(f) for f in top}
    entries = {}
    for v in c.values():
        lack = dict(top)
        for f, e in v.den.items():
            lack[f] -= e
        entries[id(v)] = _entry([(_packing(v.num), 1)]
                                + [(packings[f], e) for f, e in lack.items() if e])
    if not entries:
        # an empty series is zero, of norm 0
        return _Column(top, entries, 1, 0, 0)
    xs = entries.values()
    clear = math.lcm(*(x.clear for x in xs))
    return _Column(top, entries, clear, sum(clear // x.clear * x.norm for x in xs),
                   next(iter(xs)).lo)


def _cross_equal(a: tuple, b: tuple) -> bool:
    """Whether two products of series agree at every key of their box.

    A side is (scalar, factors, dims): scalar is a LaurentFraction and
    factors a nonempty list of coefficient dicts of series on the box
    dims, whose product the scalar multiplies.  Every numerator and
    denominator factor is a polynomial in t alone: one with an s exponent
    raises ValueError, so it never compares equal.

    Common form.  Factor i goes over D_i, the largest exponent of each
    denominator factor over its coefficients, a side over the scalar's
    multiset plus the sum of its D_i, and both sides over D, the largest
    exponent of each denominator factor over the two.  One int scale
    clears every Fraction coefficient, the factors' included.

    Packing.  Each numerator and denominator factor is packed once into
    an int, its coefficients in slots of w bits: a term's slot is its
    exponent above the polynomial's least one in units of g, the gcd of
    every exponent step, so the int is the polynomial's value at
    t**g = 2**w (Kronecker substitution) and packing is a ring map on
    those products and sums.  A monomial t**k is the power of two at bit
    offset k / g * w; it may be negative.  A coefficient of factor i is
    packed as its numerator over D_i times the factors it lacks, times
    the monomial of its least exponent, and the factor's coefficients are
    shifted by one power of two to the least of those offsets; a side's
    scalar numerator, times the factors of D the side lacks, scales its
    product.  The factors' packed coefficients are then multiplied as the
    series are, through _pairs (x * x by symmetry, doubling each
    off-diagonal pair), so no product is reduced or multiplied out as a
    polynomial, and the side whose product carries the higher power of
    two is shifted up to the other's.

    w is chosen with 2 * B < 2**w, B bounding every coefficient of
    either side at any key: a product's coefficients are at most the
    largest magnitude of one factor times the L1 norms of the others, and
    each key's sum takes one coefficient of each factor per term.  Equal
    ints then mean equal numerators: every exponent of both sides has its
    own multiple of w as bit offset, so the lowest nonzero coefficient of
    a nonzero difference would be a multiple of 2**w.
    """
    columns: dict = {}
    dens = []
    for scalar, cols, _ in (a, b):
        den = dict(scalar.den)
        for c in cols:
            col = columns.get(id(c))
            if col is None:
                col = columns[id(c)] = _column(c)
            for f, e in col.top.items():
                den[f] = den.get(f, 0) + e
        dens.append(den)
    top = dict(dens[0])
    for f, e in dens[1].items():
        if e > top.get(f, 0):
            top[f] = e
    # every factor is packed, so an s exponent in any of them raises
    packings = {f: _packing(f) for f in top}
    sides = []
    for (scalar, cols, dims), den in zip((a, b), dens):
        const = _entry([(_packing(scalar.num), 1)] + [(packings[f], e - den.get(f, 0))
                                                      for f, e in top.items()
                                                      if e > den.get(f, 0)])
        scale, bound, ref = const.clear, const.peak, const.lo
        for c in cols:
            col = columns[id(c)]
            scale *= col.clear
            bound *= col.norm
            ref += col.ref
        sides.append(_Side(const, scale, bound, ref, cols, dims))
    big = math.lcm(sides[0].scale, sides[1].scale)
    w = (2 * sum(big // s.scale * s.bound for s in sides)).bit_length()
    # g divides every exponent step: each term of a packed polynomial
    # above its least, each coefficient above its series' ref, and one
    # side's ref above the other's
    entries = [s.const for s in sides]
    steps = [sides[0].ref - sides[1].ref]
    for col in columns.values():
        entries += col.entries.values()
        steps += [x.lo - col.ref for x in col.entries.values()]
    g = math.gcd(*steps, *{id(r): r.gcd for x in entries for r, _ in x.parts}.values()) or 1
    ints: dict = {}

    def packed(parts: list, scale: int, shift: int) -> int:
        """scale times the packed product of parts, shifted up by shift bits."""
        for r, j in parts:
            y = ints.get(id(r))
            if y is None:
                m = r.gcd // g * w
                y = ints[id(r)] = sum(map(operator.lshift, r.ints, [u * m for u in r.units]))
            scale *= y ** j if j > 1 else y
        return scale << shift

    coeffs: dict = {}
    lows: dict = {}
    for k, col in columns.items():
        ups = [(x.lo - col.ref) // g * w for x in col.entries.values()]
        low = lows[k] = min(ups, default=0)
        coeffs[k] = {i: packed(x.parts, col.clear // x.clear, up - low)
                     for (i, x), up in zip(col.entries.items(), ups)}
    # the bits by which side 0's power of two exceeds side 1's
    shift = ((sides[0].ref - sides[1].ref) // g * w + sum(lows[id(c)] for c in sides[0].cols)
             - sum(lows[id(c)] for c in sides[1].cols))
    verdicts = []
    for s, up in zip(sides, (max(shift, 0), max(-shift, 0))):
        (c, p), *fs = [(c, coeffs[id(c)]) for c in s.cols]
        if fs and fs[0][0] is c:
            fs = fs[1:]
            acc = {}
            for kk, v1, v2, twice in _pairs(c, None, s.dims):
                x = p[id(v1)] * p[id(v2)]
                acc[kk] = acc.get(kk, 0) + (2 * x if twice else x)
        else:
            acc = {k: p[id(v)] for k, v in c.items()}
        for c, p in fs:
            out: dict = {}
            for kk, x, v, _ in _pairs(acc, c, s.dims):
                out[kk] = out.get(kk, 0) + x * p[id(v)]
            acc = out
        verdicts.append((packed(s.const.parts, big // s.scale, up), acc))
    (ba, xa), (bb, xb) = verdicts
    return all(ba * xa.get(k, 0) == bb * xb.get(k, 0) for k in xa.keys() | xb.keys())


class QSeries(MultiQSeries):
    """Retired: one-axis series are MultiQSeries with dims (trunc,).

    No methods.  The name stays because perfbench/tracer.py looks it up
    on this module.
    """

    __slots__ = ()


class MultiPoly:
    """Retired: the Cauchy-type checks run on a MultiQSeries graded by total degree.

    No methods.  The name stays because perfbench/tracer.py looks it up
    on this module.
    """

    __slots__ = ()


def _svec(key, naxes: int) -> tuple[int, ...]:
    return tuple((key[i + 1] if i + 1 < len(key) else 0) for i in range(naxes))


def expand_in_q_multi(fr: LaurentFraction, dims) -> MultiQSeries:
    """Expand a fraction into a box-truncated series in the Q variables.

    The t coefficients stay exact.  The denominator must consist of pure-t
    factors plus binomials 1 + c * monomial whose monomial has a
    nonnegative, nonzero s part.  Every cell keeps the pure-t part of the
    denominator, so each cell is carried as its numerator alone, a dict
    from t exponent to coefficient; the binomials are expanded as
    geometric series on those numerators, and each output cell is reduced
    once, over the pure-t factors.  Raises ArithmeticError when the
    expression is not an honest Q series (odd s powers or negative Q
    powers that fail to cancel).
    """
    dims = tuple(dims)
    naxes = len(dims)
    hi = tuple(2 * d for d in dims)
    pure: dict = {}
    bins = []
    for f, e in fr.den.items():
        if all(-_HALF <= k < _HALF for k in f._t):
            pure[f] = pure.get(f, 0) + e
            continue
        if len(f._t) != 2 or f._t.get(0) != 1:
            raise ValueError("denominator factor is not an expandable binomial")
        other = max(f._t)
        sv = _svec(unpack(other), naxes)
        if any(v < 0 for v in sv) or not any(sv):
            raise ValueError("denominator binomial must raise the Q degree")
        bins.append((_digit0(other), sv, -f._t[other], e))
    cells: dict = {}
    for k, v in fr.num._t.items():
        sv = _svec(unpack(k), naxes)
        if not any(a > b for a, b in zip(sv, hi)):
            cells.setdefault(sv, {})[_digit0(k)] = v
    for texp, sv, base, g in bins:
        grown: dict = {}
        for w, num in cells.items():
            j = 0
            while True:
                ww = tuple(a + j * b for a, b in zip(w, sv))
                if any(x > h for x, h, b in zip(ww, hi, sv) if b):
                    break
                if not any(x > h for x, h in zip(ww, hi)):
                    coef = math.comb(g - 1 + j, j) * base ** j
                    sh = texp * j
                    acc = grown.setdefault(ww, {})
                    for e, c in num.items():
                        acc[e + sh] = acc.get(e + sh, 0) + coef * c
                j += 1
        cells = {}
        for w, acc in grown.items():
            num = {e: c for e, c in acc.items() if c}
            if num:
                cells[w] = num
    out = {}
    for w, num in cells.items():
        if any(v < 0 or v % 2 for v in w):
            raise ArithmeticError(f"stray s power {w} in expansion")
        num = LaurentPoly._of({e: _normval(c) for e, c in num.items()})
        out[tuple(v // 2 for v in w)] = LaurentFraction._make(num, dict(pure))
    return MultiQSeries(dims, out)


def expand_in_q(fr: LaurentFraction, trunc: int) -> MultiQSeries:
    return expand_in_q_multi(fr, (trunc,))


def poly_terms_json(p: LaurentPoly, nvars: int):
    out = []
    for x in sorted(p._t):
        k = unpack(x)
        row = [(k[i] if i < len(k) else 0) for i in range(nvars)]
        row.append(str(Fraction(p._t[x])))
        out.append(row)
    return out


def fraction_json(fr: LaurentFraction) -> dict:
    den = fr.den_poly()
    nv = max(fr.num.nvars, den.nvars, 1)
    return {"num": poly_terms_json(fr.num, nv), "den": poly_terms_json(den, nv)}


def coeff_json(x):
    if isinstance(x, LaurentFraction):
        return fraction_json(x)
    if isinstance(x, LaurentPoly):
        return fraction_json(LaurentFraction.from_poly(x))
    return str(Fraction(x))


def qseries_json(qs: MultiQSeries) -> dict:
    """Dense {"trunc", "coeffs"} form of a one-axis series; an absent key is "0"."""
    trunc = qs.dims[0]
    return {"trunc": trunc, "coeffs": [coeff_json(qs.c.get((d,), 0)) for d in range(trunc + 1)]}


def multiqseries_json(ms: MultiQSeries) -> dict:
    items = []
    for k in sorted(ms.c):
        items.append({"key": list(k), "coeff": coeff_json(ms.c[k])})
    return {"dims": list(ms.dims), "coeffs": items}


class Mismatch(AssertionError):
    """Two routes to one value disagree; the message is the witness."""


def _keyed(x):
    """The coefficient dict behind x and how to show one of its keys, or None."""
    if isinstance(x, MultiQSeries):
        return x.c, list
    if isinstance(x, LaurentPoly):
        return x._t, lambda k: list(unpack(k))
    if isinstance(x, dict):
        return x, lambda k: k
    return None


def _show(x) -> str:
    """Coefficients as coeff_json renders them, a constant fraction as its
    number; any other value, a bool included, whole."""
    if isinstance(x, LaurentFraction) and not x.den and x.num._t.keys() <= {0}:
        x = x.num._t.get(0, 0)
    if isinstance(x, (LaurentFraction, LaurentPoly, int, Fraction)) and type(x) is not bool:
        x = coeff_json(x)
    return json.dumps(x, default=repr, separators=(",", ":"))


def same(lhs, rhs) -> bool:
    """True when lhs == rhs; otherwise raise Mismatch with the first differing key.

    A Product side is evaluated on the failure path only, so its witness
    is the one its value would give; if the values then agree, the two
    comparisons disagree, and that raises ArithmeticError, never a pass.
    """
    if lhs == rhs:
        return True
    if isinstance(lhs, Product) or isinstance(rhs, Product):
        lhs, rhs = (x.value() if isinstance(x, Product) else x for x in (lhs, rhs))
        if lhs == rhs:
            raise ArithmeticError("the cross-multiplied comparison and the normal forms disagree")
    if type(lhs) is type(rhs) and _keyed(lhs):
        (ca, show), (cb, _) = _keyed(lhs), _keyed(rhs)
        for k in sorted(ca.keys() | cb.keys()):
            u, v = ca.get(k, 0), cb.get(k, 0)
            if not u == v:
                raise Mismatch(f"at {_show(show(k))}: {_show(u)} != {_show(v)}")
    raise Mismatch(f"{_show(lhs)} != {_show(rhs)}")
