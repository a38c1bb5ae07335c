"""Exact sparse Laurent arithmetic with factored denominators.

Everything downstream (vertex amplitudes, coefficient functions, instanton
sums) runs on the classes in this module.  There is no floating point
anywhere: coefficients are ints or fractions.Fraction.

Exponent conventions shared across the package:

* keys are integer tuples with trailing zeros trimmed; axis 0 carries the
  half-power variable t (t**2 is the loop weight q), axis k >= 1 carries the
  half-power s_k of the k-th box-count variable Q_k,
* keys compare in s-major order, highest axis first and axis 0 last.  This
  is a total order compatible with key addition, which is what makes exact
  division and the extremes of products predictable.

Denominators are kept as multisets of canonical factors (lowest key shifted
to the origin, constant coefficient 1).  Sums and products then never need a
polynomial gcd: identical factors cancel syntactically, and a bounded exact
division pass picks up the cancellations that occur in practice.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

CACHE_LIMIT = 1 << 20


def set_cache_limit(n: int) -> None:
    """Cap the size of the module-level memo tables."""
    global CACHE_LIMIT
    CACHE_LIMIT = n


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


def trim(key) -> tuple[int, ...]:
    k = tuple(key)
    n = len(k)
    while n and k[n - 1] == 0:
        n -= 1
    return k[:n]


def kadd(a, b) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return trim(out)


def kneg(a) -> tuple[int, ...]:
    return trim(-v for v in a)


def _revpad(k, n):
    return tuple((k[i] if i < len(k) else 0) for i in range(n - 1, -1, -1))


def _normval(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


class LaurentPoly:
    """Sparse Laurent polynomial with tuple exponents and exact coefficients."""

    __slots__ = ("d", "_h")

    def __init__(self, d: Mapping | None = None):
        dd = {}
        if d:
            for k, v in d.items():
                v = _normval(v)
                if v:
                    dd[trim(k)] = v
        self.d = dd
        self._h = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def term(cls, c, key):
        return cls({tuple(key): c})

    @classmethod
    def var(cls, axis: int, exp: int = 1):
        key = [0] * (axis + 1)
        key[axis] = exp
        return cls({tuple(key): 1})

    @property
    def nvars(self) -> int:
        return max((len(k) for k in self.d), default=0)

    def is_zero(self) -> bool:
        return not self.d

    def __bool__(self):
        return bool(self.d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly({(): x})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.d)
        for k, v in o.d.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = _normval(w)
            else:
                out.pop(k, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = out
        r._h = None
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = {k: -v for k, v in self.d.items()}
        r._h = None
        return r

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
        if len(self.d) < len(o.d):
            self, o = o, self
        out: dict = {}
        for k2, v2 in o.d.items():
            if k2 == ():
                for k1, v1 in self.d.items():
                    w = out.get(k1, 0) + v1 * v2
                    if w:
                        out[k1] = w
                    else:
                        del out[k1]
            else:
                for k1, v1 in self.d.items():
                    kk = kadd(k1, k2)
                    w = out.get(kk, 0) + v1 * v2
                    if w:
                        out[kk] = w
                    else:
                        del out[kk]
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = {k: _normval(v) for k, v in out.items()}
        r._h = None
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
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
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = {k: _normval(v * c) for k, v in self.d.items()}
        r._h = None
        return r

    def shift(self, key):
        """Multiply by the monomial with the given exponent key."""
        key = trim(key)
        if not key:
            return self
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = {kadd(k, key): v for k, v in self.d.items()}
        r._h = None
        return r

    def subs_power(self, n: int):
        """Replace the axis-0 variable t by t**n (n >= 1)."""
        if n < 1:
            raise ValueError("substitution power must be >= 1")
        if n == 1:
            return self
        out = {}
        for k, v in self.d.items():
            kk = ((k[0] * n,) + k[1:]) if k else ()
            out[trim(kk)] = v
        return LaurentPoly(out)

    def invert_vars(self):
        """Send every variable to its reciprocal."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.d = {kneg(k): v for k, v in self.d.items()}
        r._h = None
        return r

    def fold_axes(self):
        """Identify all variables: key (e0, e1, ...) becomes (e0+e1+...,)."""
        out = {}
        for k, v in self.d.items():
            kk = trim((sum(k),))
            w = out.get(kk, 0) + v
            if w:
                out[kk] = w
            else:
                out.pop(kk, None)
        return LaurentPoly(out)

    def min_key(self):
        n = self.nvars
        return min(self.d, key=lambda k: _revpad(k, n))

    def axis_range(self, axis: int):
        lo = hi = 0
        first = True
        for k in self.d:
            v = k[axis] if axis < len(k) else 0
            if first:
                lo = hi = v
                first = False
            else:
                lo = min(lo, v)
                hi = max(hi, v)
        return lo, hi

    def terms(self):
        n = self.nvars
        return sorted(self.d.items(), key=lambda kv: _revpad(kv[0], n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.d == o.d

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset((k, Fraction(v)) for k, v in self.d.items()))
        return self._h

    def __repr__(self):
        if not self.d:
            return "LaurentPoly(0)"
        bits = []
        for k, v in self.terms():
            bits.append(f"{v}*X{list(k)}")
        return "LaurentPoly(" + " + ".join(bits) + ")"


def _canonical_parts(p: LaurentPoly):
    """Split p as coeff * monomial * canonical, canonical having constant 1.

    Returns (canonical_or_None, monomial_key, coeff); canonical is None when
    p itself is a single term.
    """
    if not p.d:
        raise ZeroDivisionError("zero denominator")
    mk = p.min_key()
    c = p.d[mk]
    if len(p.d) == 1:
        return None, mk, c
    inv = Fraction(1) / c
    canon = p.shift(kneg(mk)).scale(inv)
    return canon, mk, c


def _exact_div(num: LaurentPoly, f: LaurentPoly):
    """Quotient num / f when the division is exact, else None.

    f must be canonical (min key at the origin with coefficient 1).  The
    loop maintains the invariant that all remainder keys stay inside the
    bounding box of num, so it always terminates.
    """
    nv = max(num.nvars, f.nvars)
    boxes = []
    for axis in range(nv):
        nlo, nhi = num.axis_range(axis)
        flo, fhi = f.axis_range(axis)
        qlo, qhi = nlo - flo, nhi - fhi
        if qlo > qhi:
            return None
        boxes.append((qlo, qhi))
    r = dict(num.d)
    q: dict = {}
    fitems = [(k, v) for k, v in f.d.items() if k != ()]
    while r:
        m = min(r, key=lambda k: _revpad(k, nv))
        for axis in range(nv):
            mv = m[axis] if axis < len(m) else 0
            if not boxes[axis][0] <= mv <= boxes[axis][1]:
                return None
        c = r.pop(m)
        q[m] = c
        for k, v in fitems:
            kk = kadd(m, k)
            w = r.get(kk, 0) - c * v
            if w:
                r[kk] = w
            else:
                r.pop(kk, None)
    out = LaurentPoly.__new__(LaurentPoly)
    out.d = {k: _normval(v) for k, v in q.items()}
    out._h = None
    return out


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


# Numerators with more terms than this skip the opportunistic cancellation pass.
_DIV_ATTEMPT_CAP = 512


class LaurentFraction:
    """Quotient of Laurent polynomials with factored denominator.

    The denominator is a dict mapping canonical LaurentPoly factors to
    positive exponents.  Instances are treated as immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Mapping | None = None):
        self.num = num
        self.den = dict(den) if den else {}

    @classmethod
    def _make(cls, num: LaurentPoly, den: dict):
        den = {f: e for f, e in den.items() if e}
        if not num.d:
            return cls(LaurentPoly.zero(), {})
        if den and len(num.d) <= _DIV_ATTEMPT_CAP:
            for f in list(den):
                e = den[f]
                while e > 0:
                    qq = _exact_div(num, f)
                    if qq is None:
                        break
                    num = qq
                    e -= 1
                if e:
                    den[f] = e
                else:
                    del den[f]
        return cls(num, den)

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
        num2 = num.shift(kneg(mk)).scale(Fraction(1) / c)
        return cls._make(num2, {canon: 1} if canon is not None else {})

    def is_zero(self) -> bool:
        return not self.num.d

    def __bool__(self):
        return bool(self.num.d)

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num.d:
            return o
        if not o.num.d:
            return self
        den: dict = {}
        for f in set(self.den) | set(o.den):
            den[f] = max(self.den.get(f, 0), o.den.get(f, 0))
        ma = {f: e - self.den.get(f, 0) for f, e in den.items() if e > self.den.get(f, 0)}
        mb = {f: e - o.den.get(f, 0) for f, e in den.items() if e > o.den.get(f, 0)}
        num = self.num * _den_expand(ma) + o.num * _den_expand(mb)
        return LaurentFraction._make(num, den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentFraction(-self.num, self.den)

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
        if not self.num.d:
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
        return LaurentFraction(self.num.scale(c), self.den)

    def shift(self, key):
        return LaurentFraction(self.num.shift(key), self.den)

    def _remap(self, fn):
        """Map numerator and factors through fn, re-canonicalizing each factor.

        A mapped factor's monomial and coefficient move into the numerator.
        A factor that fn collapses to a single term has no canonical form.
        """
        num = fn(self.num)
        den: dict = {}
        for f, e in self.den.items():
            g = fn(f)
            if len(g.d) < 2:
                raise ValueError("denominator factor degenerates under the substitution")
            canon, mk, c = _canonical_parts(g)
            den[canon] = den.get(canon, 0) + e
            num = num.shift(trim(-v * e for v in mk)).scale((Fraction(1) / c) ** e)
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
        return self.num * _den_expand(db) == o.num * _den_expand(da)

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
    out = {}
    for k, v in p.d.items():
        if len(k) > 1:
            raise ValueError("expansion needs a single-variable expression")
        out[k[0] if k else 0] = v
    return out


def _cscale(x, c: Fraction):
    if isinstance(x, LaurentFraction):
        return x.scale(c)
    return _normval(x * c)


def _is_zero_coeff(x) -> bool:
    if isinstance(x, LaurentFraction):
        return x.is_zero()
    if isinstance(x, LaurentPoly):
        return x.is_zero()
    return not x


class MultiQSeries:
    """Box-truncated series in several Q variables with fraction coefficients."""

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
                if all(x <= d for x, d in zip(k, self.dims)):
                    if not _is_zero_coeff(v):
                        cc[k] = v
        self.c = cc

    def get(self, key):
        return self.c.get(tuple(key), Fraction(0))

    def _check(self, other: "MultiQSeries"):
        if self.dims != other.dims:
            raise ValueError("dims differ")

    def __add__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, Fraction(0)) + v
            if _is_zero_coeff(w):
                out.pop(k, None)
            else:
                out[k] = w
        r = MultiQSeries(self.dims)
        r.c = out
        return r

    def __sub__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                kk = tuple(a + b for a, b in zip(k1, k2))
                if any(x > d for x, d in zip(kk, self.dims)):
                    continue
                w = out.get(kk, Fraction(0)) + v1 * v2
                if _is_zero_coeff(w):
                    out.pop(kk, None)
                else:
                    out[kk] = w
        r = MultiQSeries(self.dims)
        r.c = out
        return r

    def scale(self, x):
        r = MultiQSeries(self.dims)
        r.c = {k: x * v for k, v in self.c.items()}
        return r

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
        if not _is_zero_coeff(self.get(origin)):
            raise ValueError("exp needs zero constant term")
        terms = [(j, _cscale(a, Fraction(sum(j)))) for j, a in sorted(self.c.items())
                 if not _is_zero_coeff(a)]
        e: dict = {origin: Fraction(1)}
        for k in itertools.product(*(range(d + 1) for d in self.dims)):
            if k == origin:
                continue
            acc = Fraction(0)
            for j, ja in terms:
                prev = e.get(tuple(b - a for a, b in zip(j, k)))
                if prev is not None:
                    acc = acc + ja * prev
            if not _is_zero_coeff(acc):
                e[k] = _cscale(acc, Fraction(1, sum(k)))
        r = MultiQSeries(self.dims)
        r.c = e
        return r

    def __eq__(self, other):
        if not isinstance(other, MultiQSeries):
            return NotImplemented
        self._check(other)
        for k in set(self.c) | set(other.c):
            a = self.c.get(k, Fraction(0))
            b = other.c.get(k, Fraction(0))
            if not (a == b):
                return False
        return True

    __hash__ = None

    @classmethod
    def one(cls, dims):
        return cls(tuple(dims), {tuple(0 for _ in dims): Fraction(1)})

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
    """Polynomials in nvars commuting variables, truncated by total degree."""

    __slots__ = ("nvars", "trunc", "d")

    def __init__(self, nvars: int, trunc: int, d: Mapping | None = None):
        self.nvars = nvars
        self.trunc = trunc
        dd = {}
        if d:
            for k, v in d.items():
                k = tuple(k)
                if len(k) != nvars:
                    raise ValueError("key length does not match nvars")
                if min(k, default=0) < 0:
                    raise ValueError("negative exponent in a polynomial key")
                if sum(k) <= trunc and v:
                    dd[k] = _normval(v)
        self.d = dd

    @classmethod
    def one(cls, nvars: int, trunc: int):
        return cls(nvars, trunc, {tuple(0 for _ in range(nvars)): 1})

    @classmethod
    def zero(cls, nvars: int, trunc: int):
        return cls(nvars, trunc)

    @classmethod
    def var(cls, nvars: int, trunc: int, axis: int, exp: int = 1):
        key = [0] * nvars
        key[axis] = exp
        return cls(nvars, trunc, {tuple(key): 1})

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("mismatched polynomial rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.d)
        for k, v in other.d.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                del out[k]
        r = MultiPoly(self.nvars, self.trunc)
        r.d = out
        return r

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for k1, v1 in self.d.items():
            s1 = sum(k1)
            for k2, v2 in other.d.items():
                if s1 + sum(k2) > self.trunc:
                    continue
                kk = tuple(a + b for a, b in zip(k1, k2))
                w = out.get(kk, 0) + v1 * v2
                if w:
                    out[kk] = w
                else:
                    del out[kk]
        r = MultiPoly(self.nvars, self.trunc)
        r.d = {k: _normval(v) for k, v in out.items()}
        return r

    def scale(self, c):
        r = MultiPoly(self.nvars, self.trunc)
        if c:
            r.d = {k: _normval(v * c) for k, v in self.d.items()}
        return r

    def geometric(self) -> "MultiPoly":
        """Truncated 1/(1 - self); needs positive minimal total degree."""
        if any(sum(k) == 0 for k in self.d):
            raise ValueError("geometric series needs a vanishing constant term")
        out = MultiPoly.one(self.nvars, self.trunc)
        power = MultiPoly.one(self.nvars, self.trunc)
        while True:
            power = power * self
            if not power.d:
                return out
            out = out + power

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        return self.d == other.d

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, trunc={self.trunc}, terms={len(self.d)})"


def _svec(key, naxes: int) -> tuple[int, ...]:
    return tuple((key[i + 1] if i + 1 < len(key) else 0) for i in range(naxes))


def _expand_cells(fr: LaurentFraction, naxes: int, qdims) -> dict:
    """Expand a fraction as a series in the s axes, t coefficients exact.

    The denominator must consist of pure-t factors plus binomials
    1 + c * monomial whose monomial has a nonnegative, nonzero s part.
    Returns raw cells keyed by s exponent vectors; callers decide how to
    fold and which stray cells must vanish.
    """
    hi = tuple(2 * d for d in qdims)
    pure: dict = {}
    bins = []
    for f, e in fr.den.items():
        if all(len(k) <= 1 for k in f.d):
            pure[f] = pure.get(f, 0) + e
            continue
        if len(f.d) != 2 or f.d.get(()) != 1:
            raise ValueError("denominator factor is not an expandable binomial")
        other = next(k for k in f.d if k != ())
        sv = _svec(other, naxes)
        if any(v < 0 for v in sv) or not any(sv):
            raise ValueError("denominator binomial must raise the Q degree")
        bins.append((other[0] if other else 0, sv, -f.d[other], e))
    cells: dict = {}
    for k, v in fr.num.d.items():
        sv = _svec(k, naxes)
        if any(a > b for a, b in zip(sv, hi)):
            continue
        tp = LaurentFraction._make(LaurentPoly({(k[0] if k else 0,): v}), dict(pure))
        prev = cells.get(sv)
        cells[sv] = tp if prev is None else prev + tp
    for texp, sv, base, g in bins:
        out: dict = {}
        for w, val in cells.items():
            j = 0
            while True:
                ww = tuple(a + j * b for a, b in zip(w, sv))
                if any(x > h for x, h, b in zip(ww, hi, sv) if b):
                    break
                if not any(x > h for x, h in zip(ww, hi)):
                    coef = math.comb(g - 1 + j, j) * base ** j
                    term = val.scale(coef).shift((texp * j,)) if j else val
                    prev = out.get(ww)
                    out[ww] = term if prev is None else prev + term
                if not any(sv):
                    break
                j += 1
        cells = {w: v for w, v in out.items() if not v.is_zero()}
    return cells


def expand_in_q_multi(fr: LaurentFraction, dims) -> MultiQSeries:
    """Expand a fraction into a box-truncated series in the Q variables.

    Raises ArithmeticError when the expression is not an honest Q series
    (odd s powers or negative Q powers that fail to cancel).
    """
    dims = tuple(dims)
    cells = _expand_cells(fr, len(dims), dims)
    out = {}
    for w, val in cells.items():
        if all(v >= 0 and v % 2 == 0 for v in w):
            out[tuple(v // 2 for v in w)] = val
        elif not val.is_zero():
            raise ArithmeticError(f"stray s power {w} in expansion")
    return MultiQSeries(dims, out)


def expand_in_q(fr: LaurentFraction, trunc: int) -> MultiQSeries:
    return expand_in_q_multi(fr, (trunc,))


def poly_terms_json(p: LaurentPoly, nvars: int):
    out = []
    for k in sorted(p.d, key=lambda k: _revpad(k, nvars)):
        row = [(k[i] if i < len(k) else 0) for i in range(nvars)]
        row.append(str(Fraction(p.d[k])))
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
    """Dense {"trunc", "coeffs"} form of a one-axis series."""
    trunc = qs.dims[0]
    return {"trunc": trunc, "coeffs": [coeff_json(qs.get((d,))) for d in range(trunc + 1)]}


def multiqseries_json(ms: MultiQSeries) -> dict:
    items = []
    for k in sorted(ms.c):
        items.append({"key": list(k), "coeff": coeff_json(ms.c[k])})
    return {"dims": list(ms.dims), "coeffs": items}
