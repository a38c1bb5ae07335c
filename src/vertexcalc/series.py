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
stays exact because == cross-multiplies.  Most factors are 1 - X**k, which
vanish at X = (1, ..., 1).  Evaluation at 1 is a ring map, so such a factor
cannot divide a numerator whose coefficients do not sum to 0; that division
is not attempted, since it could only fail, and the result is the same.
LaurentFraction.sum brings many terms over one lcm and reduces once, and
a + b is its two-term case.
MultiQSeries squares by symmetry: x * x forms each unordered pair of keys
once and doubles the off-diagonal products.

same(lhs, rhs) is the one comparator every check goes through: it returns
True when the sides are equal and otherwise raises Mismatch, naming the
first key, in sorted order, where two series, polynomials or dicts differ,
with both coefficients rendered as in the JSON output (a constant fraction
as its number).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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


class LaurentPoly:
    """Sparse Laurent polynomial with packed int exponent keys and exact coefficients."""

    __slots__ = ("_t", "_h", "_d")

    def __init__(self, d: Mapping | None = None):
        dd = {}
        if d:
            for k, v in d.items():
                v = _normval(v)
                if v:
                    dd[pack(k)] = v
        self._t = dd
        self._h = None
        self._d = None

    @classmethod
    def _of(cls, t: dict):
        """Adopt t as the term dict: packed keys, values nonzero and normalized."""
        r = cls.__new__(cls)
        r._t = t
        r._h = None
        r._d = None
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
        """Read-only view of the terms keyed by exponent tuples, for boundary code."""
        if self._d is None:
            self._d = {unpack(k): v for k, v in self._t.items()}
        return MappingProxyType(self._d)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self._t) < len(o._t):
            self, o = o, self
        out: dict = {}
        for k2, v2 in o._t.items():
            for k1, v1 in self._t.items():
                kk = k1 + k2
                w = out.get(kk, 0) + v1 * v2
                if w:
                    out[kk] = w
                else:
                    del out[kk]
        return LaurentPoly._of({k: _normval(v) for k, v in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        top = max((abs(e) for k in self._t for e in unpack(k)), default=0)
        if top * n >= EXP_LIMIT:
            raise OverflowError("an exponent of the power leaves the packed key range")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c):
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._of({k: _normval(v * c) for k, v in self._t.items()})

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
        if self._h is None:
            if self._t.keys() <= {0}:
                self._h = hash(self._t.get(0, 0))  # equal to a number, so hash as one
            else:
                self._h = hash(frozenset(self.d.items()))
        return self._h

    def __repr__(self):
        if not self._t:
            return "LaurentPoly(0)"
        bits = []
        for k, v in self.terms():
            bits.append(f"{v}*X{list(k)}")
        return "LaurentPoly(" + " + ".join(bits) + ")"


def _canonical_parts(p: LaurentPoly):
    """Split p as coeff * monomial * canonical, canonical having constant 1.

    Returns (canonical_or_None, packed monomial key, coeff); canonical is
    None when p itself is a single term.
    """
    if not p._t:
        raise ZeroDivisionError("zero denominator")
    mk = p.min_key()
    c = p._t[mk]
    if len(p._t) == 1:
        return None, mk, c
    inv = Fraction(1) / c
    canon = p._shifted(-mk).scale(inv)
    return canon, mk, c


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
    """Expand a factor multiset into a single polynomial (cached)."""
    if not den:
        return LaurentPoly.one()
    return _factor_product(frozenset(den.items()))


@memo(_EXPAND_CACHE)
def _factor_product(factors: frozenset) -> LaurentPoly:
    out = LaurentPoly.one()
    for f, e in factors:
        out = out * f ** e
    return out


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
        self.den = den

    @classmethod
    def _of(cls, num: LaurentPoly, den: dict):
        """Adopt num and den unchecked: every factor canonical, every exponent positive."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def _make(cls, num: LaurentPoly, den: dict):
        den = {f: e for f, e in den.items() if e}
        if not num._t:
            return cls(LaurentPoly.zero(), {})
        # Evaluation at X = 1 is a ring map, so f | num forces
        # num(1) = f(1) * q(1): a factor vanishing at 1 cannot divide a
        # numerator that does not, and the walk is not started.
        at_one = sum(num._t.values()) if den else 0
        for f in list(den):
            e = den[f]
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
                den[f] = e
            else:
                del den[f]
        return cls._of(num, den)

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
        num2 = num._shifted(-mk).scale(Fraction(1) / c)
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = dict(self.den)
        for f, e in o.den.items():
            den[f] = den.get(f, 0) + e
        return LaurentFraction._make(self.num * o.num, den)

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
        terms = [cls._coerce(t) for t in terms]
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
            missing = {f: e - t.den.get(f, 0) for f, e in den.items() if e > t.den.get(f, 0)}
            for k, v in (t.num * _den_expand(missing) if missing else t.num)._t.items():
                acc[k] = acc.get(k, 0) + v
        num = LaurentPoly._of({k: _normval(v) for k, v in acc.items() if v})
        return cls._make(num, den)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = LaurentFraction.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
            num = num._shifted(-mk * e).scale((Fraction(1) / c) ** e)
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
        da = dict(self.den)
        db = dict(o.den)
        for f in list(da):
            if f in db:
                m = min(da[f], db[f])
                da[f] -= m
                db[f] -= m
                if not da[f]:
                    del da[f]
                if not db[f]:
                    del db[f]
        lhs = self.num * _den_expand(db) if db else self.num
        rhs = o.num * _den_expand(da) if da else o.num
        return lhs == rhs

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
        raise ValueError("expansion needs a single-variable expression")
    return p._t


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

    def __add__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.c)
        for k, v in other.c.items():
            w = out[k] + v if k in out else v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return MultiQSeries._of(self.dims, out)

    def __sub__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        # x * x forms each unordered pair of keys once and doubles the
        # off-diagonal products; j == 0 is the diagonal.
        square = other is self
        items = list(self.c.items())
        parts: dict = {}
        for i, (k1, v1) in enumerate(items):
            for j, (k2, v2) in enumerate(items[i:] if square else other.c.items()):
                kk = tuple(a + b for a, b in zip(k1, k2))
                if not any(x > d for x, d in zip(kk, self.dims)):
                    p = v1 * v2
                    parts.setdefault(kk, []).append(p.scale(2) if square and j else p)
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
        for k in itertools.product(*(range(d + 1) for d in self.dims)):
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


class QSeries(MultiQSeries):
    """One-axis series from a dense coefficient list: coeffs[d] is the Q**d term.

    Only a constructor.  The name stays because perfbench/tracer.py looks
    it up on this module.
    """

    __slots__ = ()

    def __init__(self, trunc: int, coeffs: Iterable = ()):
        cc = list(coeffs)
        if len(cc) > trunc + 1:
            raise ValueError("more coefficients than the truncation order allows")
        super().__init__((trunc,), {(d,): c for d, c in enumerate(cc)})


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
    """True when lhs == rhs; otherwise raise Mismatch with the first differing key."""
    if lhs == rhs:
        return True
    if type(lhs) is type(rhs) and _keyed(lhs):
        (ca, show), (cb, _) = _keyed(lhs), _keyed(rhs)
        for k in sorted(ca.keys() | cb.keys()):
            u, v = ca.get(k, 0), cb.get(k, 0)
            if not u == v:
                raise Mismatch(f"at {_show(show(k))}: {_show(u)} != {_show(v)}")
    raise Mismatch(f"{_show(lhs)} != {_show(rhs)}")
