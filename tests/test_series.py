import collections
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vertexcalc import series
from vertexcalc.partitions import normalize
from vertexcalc.prodred import bracket
from vertexcalc.series import (EXP_LIMIT, LaurentFraction, LaurentPoly, Mismatch,
                               MultiQSeries, Product, expand_in_q,
                               expand_in_q_multi, fraction_json, memo,
                               multiqseries_json, pack, poly_terms_json,
                               qseries_json, same, unpack)


def mono(c, key):
    return LaurentPoly.term(c, key)


@st.composite
def laurent_polys(draw, naxes=1, span=3, terms=4):
    d = {}
    for _ in range(draw(st.integers(min_value=0, max_value=terms))):
        key = tuple(draw(st.integers(min_value=-span, max_value=span))
                    for _ in range(naxes))
        d[key] = Fraction(draw(st.integers(min_value=-5, max_value=5)))
    return LaurentPoly(d)


def test_poly_basic_arithmetic():
    a = mono(1, (1,)) + mono(-1, (-1,))
    b = mono(1, (1,)) + mono(1, (-1,))
    assert a * b == mono(1, (2,)) + mono(-1, (-2,))
    assert a - a == LaurentPoly.zero()
    assert (a * b).invert_vars() == mono(1, (-2,)) + mono(-1, (2,))


def test_poly_subs_power():
    p = mono(1, (2,)) + mono(3, (-4,))
    q = p.subs_power(3)
    assert q == mono(1, (6,)) + mono(3, (-12,))


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60, deadline=None)
def test_poly_commutative_ring(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b).invert_vars() == a.invert_vars() + b.invert_vars()


def nonzero_numbers():
    """Ints, some divisible by a large power of two, and Fractions that are not ints."""
    return st.one_of(st.integers(-9, 9).filter(bool),
                     st.integers(-9, 9).filter(bool).map(lambda v: v << 20),
                     st.fractions(max_denominator=12).filter(lambda f: f.denominator > 1))


def scalars():
    """Nonzero scalars: +-1 as ints and Fractions, +-2**-k and other p/q."""
    return st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1), 6]),
                     st.builds(lambda s, k: Fraction(s, 2 ** k),
                               st.sampled_from([1, -1]), st.integers(0, 24)),
                     st.fractions(max_denominator=30).filter(bool))


def term_dicts(min_size=0):
    return st.dictionaries(st.integers(-20, 20), nonzero_numbers(), min_size=min_size, max_size=5)


def typed(items):
    return [(k, type(v), v) for k, v in items]


@given(term_dicts(), scalars(), st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_integer_scaling_matches_fraction_products(t, c, x):
    got = series._scaled(t, c, x)
    want = {k + x: series._normval(v * c) for k, v in t.items()}
    assert typed(got.items()) == typed(want.items())


def general_product(a, b):
    """LaurentPoly.__mul__'s loop over every pair of terms, as (key, value) pairs."""
    out: dict = {}
    for k2, v2 in b._t.items():
        for k1, v1 in a._t.items():
            kk = k1 + k2
            w = out.get(kk, 0) + v1 * v2
            if w:
                out[kk] = w
            else:
                del out[kk]
    return [(k, series._normval(v)) for k, v in out.items()]


@given(term_dicts(min_size=1), scalars(), st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_one_term_product_matches_the_general_loop(t, c, x):
    p = LaurentPoly._of({k: series._normval(v) for k, v in t.items()})
    m = LaurentPoly._of({x: series._normval(c)})
    want = typed(general_product(p, m))
    assert typed((p * m)._t.items()) == want
    assert typed((m * p)._t.items()) == want


def trim(key):
    k = list(key)
    while k and k[-1] == 0:
        k.pop()
    return tuple(k)


def pad(key, n):
    return tuple(key) + (0,) * (n - len(key))


def exponent_keys(bound):
    """Exponent tuples on 1 to 4 axes, small and extreme entries of both signs."""
    entry = st.one_of(st.integers(-3, 3), st.integers(-bound, bound))
    return st.lists(entry, min_size=1, max_size=4).map(tuple)


@given(exponent_keys(EXP_LIMIT - 1), exponent_keys(EXP_LIMIT - 1))
@settings(max_examples=200, deadline=None)
def test_packed_keys_roundtrip_and_order(a, b):
    assert unpack(pack(a)) == trim(a)
    n = max(len(a), len(b))
    # int order is the s-major tuple order: highest axis first
    assert (pack(a) < pack(b)) == (pad(a, n)[::-1] < pad(b, n)[::-1])
    # the digit _exact_div reads on each axis is the tuple entry
    for axis, e in enumerate(pad(a, n + 1)):
        assert series._digits([pack(a), pack(b)], axis) == [e, pad(b, n + 1)[axis]]


@given(exponent_keys(EXP_LIMIT // 2 - 1), exponent_keys(EXP_LIMIT // 2 - 1))
@settings(max_examples=200, deadline=None)
def test_packed_key_addition(a, b):
    n = max(len(a), len(b))
    assert pack(a) + pack(b) == pack(tuple(x + y for x, y in zip(pad(a, n), pad(b, n))))
    assert -pack(a) == pack(tuple(-x for x in a))


@given(laurent_polys(naxes=4, span=3, terms=4), exponent_keys(EXP_LIMIT // 4),
       st.sampled_from([1, -1, 2]))
@settings(max_examples=100, deadline=None)
def test_exact_div_chains_over_four_axes(a, k, c):
    # f = 1 + c*X**k canonical: k's top entry positive; numerators with
    # 1 - c**2 X**(2k) make the chains walk across a gap
    k = trim(k)
    assume(k)
    if k[-1] < 0:
        k = tuple(-x for x in k)
    f = LaurentPoly({(): 1, k: c})
    g = LaurentPoly({(): 1, k: -c})
    assert series._exact_div(a * f, f) == a
    assert series._exact_div(a * f * g, f) == a * g
    assert series._exact_div(a * f + 1, f) is None


def test_packed_key_overflow_raises():
    # an exponent of 2**31 or more must raise, never alias another key
    assert LaurentPoly.var(0, EXP_LIMIT - 1).d == {(EXP_LIMIT - 1,): 1}
    with pytest.raises(OverflowError):
        LaurentPoly.var(0, 2 ** 31)
    with pytest.raises(OverflowError):
        LaurentPoly.term(1, (0, 0, -2 ** 31))
    big = LaurentPoly.var(0, 2 ** 20)
    assert (big ** (2 ** 11 - 1)).d == {(2 ** 31 - 2 ** 20,): 1}
    with pytest.raises(OverflowError):
        big ** (2 ** 12)
    with pytest.raises(OverflowError):
        (big + LaurentPoly.var(1, -2 ** 20)) ** (2 ** 11)
    assert big.subs_power(2 ** 11 - 1).d == {(2 ** 31 - 2 ** 20,): 1}
    with pytest.raises(OverflowError):
        big.subs_power(2 ** 11)


def test_decoded_view_is_read_only():
    p = mono(3, (1, 0, 2)) + mono(-1, (0, -1))
    assert p.d == {(1, 0, 2): 3, (0, -1): -1}
    assert p.terms() == [((0, -1), -1), ((1, 0, 2), 3)]
    with pytest.raises(TypeError):
        p.d[(5,)] = 1


@st.composite
def binomial_lists(draw):
    """Binomials 1 + c*X**k on two axes; each may come with its partner
    1 - c*X**k, so that dividing by one of them walks across gaps."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        c = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
        out.append(LaurentPoly({(): 1, k: c}))
        if draw(st.booleans()):
            out.append(LaurentPoly({(): 1, k: -c}))
    return out


@given(laurent_polys(naxes=2, span=2, terms=3), binomial_lists())
@settings(max_examples=60, deadline=None)
def test_fraction_cancellation(a, binomials):
    # (a*b)/b, b a product of binomials, comes back as exactly a over {}
    b = LaurentPoly.one()
    b_inv = LaurentFraction.one()
    for g in binomials:
        b = b * g
        b_inv = b_inv * LaurentFraction.from_poly(g) ** -1
    x = LaurentFraction.from_poly(a * b) * b_inv
    assert x.num.d == a.d and x.den == {}
    # a three-term factor is not divided out, yet == still holds exactly
    tri = LaurentPoly({(): 1, (1,): 1, (0, 1): -1})
    kept = LaurentFraction.from_poly(a * tri) / tri
    assert kept.den == ({tri: 1} if a else {})
    assert kept == LaurentFraction.from_poly(a)


def reduce_by_every_division(num, den):
    """The reduction of LaurentFraction._make with every division attempted."""
    den = {f: e for f, e in den.items() if e}
    if not num._t:
        return [], []
    for f in list(den):
        e = den[f]
        while e:
            q = series._exact_div(num, f)
            if q is None:
                break
            num, e = q, e - 1
        if e:
            den[f] = e
        else:
            del den[f]
    return list(num._t.items()), list(den.items())


@given(laurent_polys(naxes=2, span=2, terms=3), binomial_lists(), binomial_lists(),
       st.lists(st.integers(1, 3), min_size=12, max_size=12))
@settings(max_examples=100, deadline=None)
def test_reduction_skips_only_divisions_that_fail(a, in_num, extra, exps):
    # the evaluation-at-one test leaves the numerator and the factor dict,
    # in order, as trying every division would; c = -1 draws factors that
    # vanish at 1, the other c factors that do not
    num = a
    for g in in_num:
        num = num * g
    den = {}
    for g, e in zip(in_num + extra, exps):
        canon = series._canonical_parts(g)[0]
        den[canon] = den.get(canon, 0) + e
    got = LaurentFraction._make(num, dict(den))
    assert (list(got.num._t.items()), list(got.den.items())) == reduce_by_every_division(num, den)


def test_binomials_not_vanishing_at_one_still_divide():
    # 1 + t and 1 + 2t do not vanish at t = 1: a numerator whose
    # coefficients do not sum to 0 must still lose them
    t = mono(1, (1,))
    a = 3 + t
    f, g = 1 + t, 1 + mono(2, (1,))
    num = a * f * g
    assert sum(num.d.values()) != 0
    x = LaurentFraction._make(num, {f: 1, g: 1})
    assert x.num == a and x.den == {}


def test_value_at_one_is_refreshed_after_each_quotient(monkeypatch):
    # (1 - t)**2 * a over (1 - t)**3 with a(1) = 3: two quotients, after
    # which the numerator no longer vanishes at 1 and no third walk starts
    t = mono(1, (1,))
    f = 1 - t
    a = 2 + mono(1, (2,))
    calls = []
    div = series._exact_div

    def counted(num, g):
        calls.append(g)
        return div(num, g)

    monkeypatch.setattr(series, "_exact_div", counted)
    x = LaurentFraction._make(a * f * f, {f: 3})
    assert calls == [f, f]
    assert x.num == a and x.den == {f: 1}


# Reference kernels without the shortcuts: every result normalized value
# by value, every operand coerced, the reduction filtering its factor dict
# and then updating it in place, 1 / c computed for every leading
# coefficient and every factor multiset multiplied out.  The kernel must
# give the same values, value types and order of factors.

def reference_poly_mul(p, q):
    return LaurentPoly._of(dict(general_product(p, q)))


def reference_den_expand(den):
    out = LaurentPoly.one()
    for f, e in den.items():
        for _ in range(e):
            out = reference_poly_mul(out, f)
    return out


def reference_canonical_parts(p):
    mk = min(p._t)
    c = p._t[mk]
    if len(p._t) == 1:
        return None, mk, c
    inv = Fraction(1) / c
    return LaurentPoly._of({k - mk: series._normval(v * inv) for k, v in p._t.items()}), mk, c


def reference_make(num, den):
    den = {f: e for f, e in den.items() if e}
    if not num._t:
        return LaurentFraction(LaurentPoly.zero(), {})
    at_one = sum(num._t.values()) if den else 0
    for f in list(den):
        e = den[f]
        vanishes = not sum(f._t.values())
        while e > 0:
            if at_one and vanishes:
                break
            qq = series._exact_div(num, f)
            if qq is None:
                break
            num = qq
            at_one = sum(num._t.values())
            e -= 1
        if e:
            den[f] = e
        else:
            del den[f]
    return LaurentFraction._of(num, den)


def reference_sum(terms):
    terms = [LaurentFraction._coerce(t) for t in terms]
    terms = [t for t in terms if t.num._t]
    if len(terms) < 2:
        return terms[0] if terms else LaurentFraction.zero()
    factors = set(terms[0].den)
    for t in terms[1:]:
        factors |= set(t.den)
    den = {f: max(t.den.get(f, 0) for t in terms) for f in factors}
    acc: dict = {}
    for t in terms:
        missing = {f: e - t.den.get(f, 0) for f, e in den.items() if e > t.den.get(f, 0)}
        num = reference_poly_mul(t.num, reference_den_expand(missing)) if missing else t.num
        for k, v in num._t.items():
            acc[k] = acc.get(k, 0) + v
    return reference_make(LaurentPoly._of({k: series._normval(v) for k, v in acc.items() if v}),
                          den)


def reference_ratio(num, den):
    canon, mk, c = reference_canonical_parts(den)
    num2 = LaurentPoly._of({k - mk: series._normval(v * (Fraction(1) / c))
                            for k, v in num._t.items()})
    return reference_make(num2, {canon: 1} if canon is not None else {})


def reference_fraction_mul(a, b):
    den = dict(a.den)
    for f, e in b.den.items():
        den[f] = den.get(f, 0) + e
    return reference_make(reference_poly_mul(a.num, b.num), den)


def poly_form(p):
    return typed(sorted(p._t.items()))


def normal_form(x):
    """A fraction's numerator terms with their types, and its factors in order."""
    return poly_form(x.num), list(x.den.items())


T = mono(1, (1,))
# overlapping binomials (1 - t^2 divides 1 - t^8, 1 + t^4 divides it too),
# factors that do and do not vanish at t = 1, one with a non-unit
# coefficient, a trinomial that is never divided and one on two axes
NF_FACTORS = [1 - T ** 2, 1 - T ** 8, 1 + T ** 4, 1 - T ** 4, 1 - T, 1 + T,
              1 + mono(2, (1,)), 1 + T + T ** 2, 1 - mono(1, (1, 1))]


def nf_coefficients():
    return st.one_of(st.integers(-4, 4).filter(bool),
                     st.fractions(-3, 3, max_denominator=4).filter(bool))


@st.composite
def nf_polys(draw, min_terms=0):
    """A polynomial in t (and sometimes s) with int and Fraction coefficients,
    times a product of up to three factors from NF_FACTORS, so that
    reductions find factors to divide out; its leading coefficient is a
    unit +-1 or not."""
    keys = st.tuples(st.integers(-3, 3), st.integers(0, 1))
    terms = draw(st.dictionaries(keys, nf_coefficients(), min_size=min_terms, max_size=3))
    p = LaurentPoly(terms)
    for f in draw(st.lists(st.sampled_from(NF_FACTORS), max_size=3)):
        p = p * f
    if p._t and draw(st.booleans()):
        # make the least term a unit
        lead = p._t[p.min_key()]
        p = p.scale(Fraction(draw(st.sampled_from([1, -1]))) / lead)
    return p


@st.composite
def nf_dens(draw):
    """A factor multiset from NF_FACTORS in any order, exponents 1 to 3."""
    fs = draw(st.lists(st.sampled_from(NF_FACTORS), unique=True, max_size=4))
    return {series._canonical_parts(f)[0]: draw(st.integers(1, 3)) for f in fs}


@st.composite
def nf_terms(draw):
    """Terms for LaurentFraction.sum: fractions over repeated and overlapping
    factors, polynomials, ints and Fractions, zeros included."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["fraction", "fraction", "poly", "number", "zero"]))
        if kind == "fraction":
            out.append(LaurentFraction(draw(nf_polys()), draw(nf_dens())))
        elif kind == "poly":
            out.append(draw(nf_polys()))
        elif kind == "number":
            out.append(draw(nf_coefficients()))
        else:
            out.append(LaurentFraction.zero())
    return out


@given(nf_polys(), nf_dens(), nf_polys(), nf_polys(min_terms=1), nf_terms())
@settings(max_examples=200, deadline=None)
def test_kernel_normal_forms_match_the_reference(num, den, p, q, terms):
    got = LaurentFraction._make(num, dict(den))
    assert normal_form(got) == normal_form(reference_make(num, dict(den)))
    assert normal_form(LaurentFraction.sum(terms)) == normal_form(reference_sum(terms))
    assert poly_form(p * q) == poly_form(reference_poly_mul(p, q))
    assert poly_form(q * p) == poly_form(reference_poly_mul(q, p))
    assert poly_form(series._den_expand(den)) == poly_form(reference_den_expand(den))
    canon, mk, c = series._canonical_parts(q)
    want, wmk, wc = reference_canonical_parts(q)
    assert (mk, c) == (wmk, wc)
    assert (canon is None and want is None) or poly_form(canon) == poly_form(want)
    assert normal_form(LaurentFraction.ratio(p, q)) == normal_form(reference_ratio(p, q))
    x, y = LaurentFraction(num, den), LaurentFraction(q, den)
    assert normal_form(x * y) == normal_form(reference_fraction_mul(x, y))


def test_canonical_factors_are_interned():
    # one object per factor value, hashed as any equal polynomial is, so
    # the lcm's set order, and with it every normal form, is unchanged
    (f,), (g,) = bracket(3).inv().den, bracket(3).inv().den
    assert f is g
    assert hash(f) == hash(frozenset(f.d.items()))
    t = mono(1, (1,))
    (h,), (k,) = LaurentFraction(t, {1 - t: 1}).den, LaurentFraction(t, {1 - t: 2}).den
    assert h is k and h == 1 - t


def test_fraction_rejects_non_canonical_factor():
    # t - 1 is 1 - t up to sign; accepting it would let the division pass
    # treat it as canonical and return a wrong value with no error
    t = mono(1, (1,))
    with pytest.raises(ValueError):
        LaurentFraction(t * t - 1, {t - 1: 1})
    with pytest.raises(ValueError):
        LaurentFraction(t * t - 1, {t * t - t: 1})
    with pytest.raises(ValueError):
        LaurentFraction(t, {1 - t: 0})
    x = LaurentFraction(t * t - 1, {1 - t: 1})
    assert x * 1 == -1 - t


def test_fraction_field_identities():
    one = LaurentFraction.one()
    t = LaurentFraction.monomial(1, (1,))
    br = t - t ** -1
    assert br * br ** -1 == one
    assert (one - t ** 2) * (one - t) ** -1 == one + t
    # addition over a common factored denominator
    x = one / (one - t)
    y = one / (one + t)
    assert x + y == (one + one) / (one - t ** 2)


def test_fraction_sum_edges():
    one = LaurentFraction.one()
    t = LaurentFraction.monomial(1, (1,))
    a = t / (one - t ** 2)
    assert LaurentFraction.sum([]).is_zero()
    assert LaurentFraction.sum([a]) is a
    assert LaurentFraction.sum([LaurentFraction.zero(), a, LaurentFraction.zero()]) is a
    for zero in (LaurentFraction.sum([a, -a]), a + (-a)):
        assert zero.is_zero() and zero.den == {}
    # four terms over one lcm of overlapping binomials, reduced once
    b = one / (one - t)
    assert LaurentFraction.sum([a, t ** 2 / (one - t ** 2), -b * t, b]) == b
    # numbers and polynomials are coerced, as for +
    p = LaurentPoly({(1,): 1})
    assert LaurentFraction.sum([a, 1, Fraction(1, 2), p]) == a + 1 + Fraction(1, 2) + p
    with pytest.raises(TypeError):
        LaurentFraction.sum([a, "1"])


def test_constant_poly_hashes_as_its_number():
    assert {3: 'a'}.get(LaurentPoly.const(3)) == 'a'
    assert LaurentPoly.const(Fraction(1, 2)) in {Fraction(1, 2)}
    assert hash(LaurentPoly.zero()) == hash(0)
    p = LaurentPoly({(): 1, (1,): -1})
    assert hash(p) == hash(frozenset(p.d.items()))


def test_fold_axes_rejects_degenerate_factor():
    t = LaurentFraction.monomial(1, (1,))
    s = LaurentFraction.monomial(1, (0, 1))
    with pytest.raises(ValueError):
        (LaurentFraction.one() / (LaurentFraction.one() - t / s)).fold_axes()


def test_fraction_expand_at_zero():
    t = LaurentFraction.monomial(1, (1,))
    geom = LaurentFraction.one() / (LaurentFraction.one() - t)
    assert geom.expand_at_zero(4) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    shifted = geom * t ** -2
    assert shifted.expand_at_zero(0) == {-2: 1, -1: 1, 0: 1}
    assert geom.expand_at_infinity(3) == {1: -1, 2: -1, 3: -1}


def test_qseries_arithmetic_and_exp():
    # exp(log(1/(1-Q))) built from harmonic coefficients
    trunc = 6
    arg = MultiQSeries((trunc,), {(n,): Fraction(1, n) for n in range(1, trunc + 1)})
    geo = arg.exp()
    assert geo == MultiQSeries((trunc,), {(d,): Fraction(1) for d in range(trunc + 1)})
    with pytest.raises(ValueError):
        MultiQSeries((2,), {(0,): Fraction(1)}).exp()
    with pytest.raises(ValueError):
        MultiQSeries((2,)).shift((-1,))
    pair = MultiQSeries((3,), {(0,): 1, (1,): 2})
    assert [pair.shift((2,)).get((d,)) for d in range(4)] == [0, 0, 1, 2]
    assert pair.shift((5,)).c == {}


def test_multiqseries_exp_two_axes():
    dims = (3, 2)
    x = MultiQSeries(dims, {(1, 0): Fraction(1), (1, 1): LaurentFraction.monomial(2, (1,))})
    y = MultiQSeries(dims, {(0, 1): Fraction(-1), (2, 1): Fraction(5, 3)})
    assert (x + y).exp() == x.exp() * y.exp()
    assert x.exp().get((3, 0)) == Fraction(1, 6)
    with pytest.raises(ValueError):
        x.shift((1, -1))
    assert x.shift((0, 2)) == MultiQSeries(dims, {(1, 2): Fraction(1)})


def test_series_coefficients_are_fractions():
    qs = MultiQSeries((3,), {(0,): 2, (1,): Fraction(1, 3), (2,): mono(1, (1,))})
    assert all(type(v) is LaurentFraction for v in qs.c.values())
    assert qs.get((0,)) == 2 and qs.get((1,)) == Fraction(1, 3)
    assert qs.get((2,)) == LaurentFraction.monomial(1, (1,))
    with pytest.raises(TypeError):
        MultiQSeries((1,), {(0,): "1"})
    missing = qs.get((3,))
    assert type(missing) is LaurentFraction and missing == 0 and not missing
    const = MultiQSeries((2,), {(1,): 1}).exp().get((0,))
    assert type(const) is LaurentFraction and const == 1
    # scaling by zero leaves no zero coefficient behind
    assert qs.scale(0).c == {} and qs.scale(LaurentFraction.zero()).c == {}


def test_memo_table_policy(monkeypatch):
    table: dict = {}
    runs = []

    @memo(table)
    def size_poly(mu):
        mu = normalize(mu)
        runs.append(mu)
        return LaurentPoly.term(1, (sum(mu),))

    first = size_poly((2, 1))
    assert size_poly((2, 1)) is first
    assert runs == [(2, 1)] and list(table) == [((2, 1),)]

    with monkeypatch.context() as m:
        m.setattr(series, "CACHE_LIMIT", len(table))
        assert size_poly((3,)) == mono(1, (3,))
        size_poly((3,))
        assert runs == [(2, 1), (3,), (3,)] and len(table) == 1

    with pytest.raises(ValueError):
        size_poly((1, 2))
    assert len(table) == 1


def test_qseries_trunc_mismatch():
    with pytest.raises(ValueError):
        MultiQSeries((2,)) + MultiQSeries((3,))
    with pytest.raises(ValueError):
        MultiQSeries((2, 2)) * MultiQSeries((2, 3))


def test_multiqseries_box_products():
    one = MultiQSeries.one((2, 2))
    x = MultiQSeries((2, 2), {(1, 0): Fraction(1)})
    y = MultiQSeries((2, 2), {(0, 1): Fraction(1)})
    p = (one + x) * (one + y)
    assert p.get((1, 1)) == 1 and p.get((2, 2)) == 0
    assert (x * x * x).get((2, 0)) == 0  # overflow drops out of the box


def merge_add(a, b):
    """Series addition as a merge loop: the reference for a two-term sum."""
    if a.dims != b.dims:
        raise ValueError("dims differ")
    out = dict(a.c)
    for k, v in b.c.items():
        w = out[k] + v if k in out else v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return MultiQSeries._of(a.dims, out)


@st.composite
def series_sums(draw):
    """Up to five series on one box, their coefficients over one shared
    binomial, over the overlapping 1 - t^2 and 1 - t^4, or over distinct
    binomials; sometimes the last term cancels the first."""
    dims = draw(st.sampled_from([(2,), (1, 2)]))
    # k > 0 stands for 1 - t^k and k < 0 for 1 + t^-k
    pool = draw(st.sampled_from([[2], [2, 4], [1, -1, 3, -2]]))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        c = {}
        for key in draw(st.lists(st.tuples(*(st.integers(0, d) for d in dims)), max_size=4)):
            num = mono(draw(st.integers(-3, 3).filter(bool)), (draw(st.integers(-2, 2)),))
            k = draw(st.sampled_from(pool))
            den = LaurentPoly.one() + mono(-1 if k > 0 else 1, (abs(k),))
            c[key] = LaurentFraction.ratio(num, den)
        terms.append(MultiQSeries(dims, c))
    if terms and draw(st.booleans()):
        terms.append(terms[0].scale(-1))
    return dims, terms


@given(series_sums())
@settings(max_examples=80, deadline=None)
def test_series_sum_is_the_merge_addition(case):
    dims, terms = case
    for a, b in zip(terms, terms[1:]):
        got, want = MultiQSeries.sum(dims, (a, b)), merge_add(a, b)
        assert list(got.c) == list(want.c)
        for k, v in want.c.items():
            assert got.c[k].num._t == v.num._t
            assert list(got.c[k].den.items()) == list(v.den.items())
    fold = MultiQSeries(dims)
    for s in terms:
        fold = merge_add(fold, s)
    assert MultiQSeries.sum(dims, terms) == fold


def test_series_sum_edges():
    x = MultiQSeries((2,), {(1,): 3})
    assert MultiQSeries.sum((2,), []).c == {}
    assert MultiQSeries.sum([2], iter([])).dims == (2,)
    assert MultiQSeries.sum((2,), [x, x.scale(-1)]).c == {}
    with pytest.raises(ValueError):
        MultiQSeries.sum((2,), [x, MultiQSeries((3,))])
    with pytest.raises(ValueError):
        MultiQSeries.sum((3,), [x])
    with pytest.raises(TypeError):
        MultiQSeries.sum((2,), [x, 1])


@st.composite
def square_cases(draw):
    """A series on one or two axes whose keys may sum past the box, with
    int, Fraction or LaurentFraction coefficients (over 1 - t or 1 - t^2)."""
    dims = draw(st.sampled_from([(3,), (2, 2)]))
    kind = draw(st.sampled_from(["int", "fraction", "laurent"]))
    keys = draw(st.lists(st.tuples(*(st.integers(0, d) for d in dims)), max_size=5))
    c = {}
    for key in keys:
        n = draw(st.integers(-3, 3).filter(bool))
        if kind == "fraction":
            n = Fraction(n, draw(st.integers(2, 5)))
        elif kind == "laurent":
            k = draw(st.integers(1, 2))
            n = LaurentFraction.monomial(n, (draw(st.integers(-2, 2)),)) / (
                LaurentFraction.one() - LaurentFraction.monomial(1, (k,)))
        c[key] = n
    return MultiQSeries(dims, c)


@given(square_cases())
@settings(max_examples=80, deadline=None)
def test_square_by_symmetry_matches_general_product(x):
    # y is an equal copy, so x * y takes the general path and x * x the symmetric one
    y = MultiQSeries._of(x.dims, dict(x.c))
    sq, prod = x * x, x * y
    assert sq == prod and sq.c.keys() == prod.c.keys()


def test_square_drops_a_cancelled_coefficient():
    # the Q^2 coefficient c1^2 + 2 c0 c2 cancels to zero
    t = LaurentFraction.monomial(1, (1,))
    for c0, c1, c2 in [(1, 2, -2), (t, 2, t.inv().scale(-2))]:
        x = MultiQSeries((2,), {(0,): c0, (1,): c1, (2,): c2})
        sq = x * x
        assert (2,) not in sq.c
        assert sq == x * MultiQSeries._of(x.dims, dict(x.c))


def reference_pairs(a, b, dims):
    """_pairs without the room walk: every pair of keys summed and tested
    against the box."""
    items = list(a.items())
    for i, (k1, v1) in enumerate(items):
        for j, (k2, v2) in enumerate(items[i:] if b is None else b.items()):
            kk = tuple(x + y for x, y in zip(k1, k2))
            if not any(s > d for s, d in zip(kk, dims)):
                yield kk, v1, v2, b is None and j > 0


@st.composite
def pair_cases(draw):
    """Operands on a box of one to three axes, sparse (a few keys) or dense
    (every key of a sub-box), in any key order; b is None for a square."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    box = list(itertools.product(*(range(d + 1) for d in dims)))

    def operand():
        if draw(st.booleans()):
            top = [draw(st.integers(0, d)) for d in dims]
            keys = [k for k in box if all(x <= t for x, t in zip(k, top))]
        else:
            keys = draw(st.lists(st.sampled_from(box), unique=True, max_size=6))
        return {k: object() for k in draw(st.permutations(keys))}

    a = operand()
    return a, None if draw(st.booleans()) else operand(), dims


@given(pair_cases())
@settings(max_examples=200, deadline=None)
def test_room_walk_yields_the_pairs_of_the_box_test(case):
    a, b, dims = case
    def pairs(gen):
        return collections.Counter((kk, id(v1), id(v2), twice) for kk, v1, v2, twice in gen)
    assert pairs(series._pairs(a, b, dims)) == pairs(reference_pairs(a, b, dims))


BINOMIALS = [LaurentPoly({(): 1, (1,): -1}), LaurentPoly({(): 1, (2,): -1}),
             LaurentPoly({(): 1, (1,): 1}), LaurentPoly({(): 1, (1,): 2})]


@st.composite
def binomial_series(draw, dims):
    """A series on dims whose coefficients are small polynomials in t over
    products of binomials, 1 - t**2 and 1 - t overlapping."""
    c = {}
    for key in draw(st.lists(st.tuples(*(st.integers(0, d) for d in dims)), max_size=4)):
        num = draw(laurent_polys(span=2, terms=3))
        den = {f: draw(st.integers(1, 2)) for f in draw(st.sets(st.sampled_from(BINOMIALS),
                                                                max_size=2))}
        c[key] = LaurentFraction._make(num, den)
    return MultiQSeries(dims, c)


@st.composite
def product_cases(draw):
    """(Product, other side): 1 to 3 factors, squares x * x included, with
    or without a scalar; the other side is the product's value, that value
    off at one key, an unrelated series, or a second Product."""
    dims = draw(st.sampled_from([(2,), (3,), (1, 1), (2, 1)]))
    pool = [draw(binomial_series(dims)) for _ in range(draw(st.integers(1, 3)))]
    factors = [pool[draw(st.integers(0, len(pool) - 1))]
               for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        factors[1:2] = [factors[0]]
    scalar = draw(st.one_of(st.none(), st.sampled_from([
        3, Fraction(-1, 2), LaurentFraction.monomial(-1, (2,)),
        LaurentFraction.monomial(1, (-1,)) / LaurentFraction.from_poly(BINOMIALS[1])])))
    p = Product(*factors, scalar=scalar)
    kind = draw(st.sampled_from(["value", "off", "other", "product"]))
    if kind == "value":
        other = p.value()
    elif kind == "off":
        key = tuple(draw(st.integers(0, d)) for d in dims)
        other = p.value() + MultiQSeries(dims, {key: LaurentFraction.monomial(1, (1,))})
    elif kind == "other":
        other = draw(binomial_series(dims))
    else:
        other = Product(*factors[::-1], scalar=scalar)
    return p, other


def verdict(lhs, rhs):
    """same's verdict: True, or the Mismatch text."""
    try:
        return same(lhs, rhs)
    except Mismatch as exc:
        return str(exc)


def evaluated(x):
    return x.value() if isinstance(x, Product) else x


@given(product_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_product_comparison_matches_the_evaluated_one(case, swap):
    # cross-multiplied and normal-form comparisons give one verdict, and a
    # mismatch one witness
    p, other = case
    lhs, rhs = (other, p) if swap else (p, other)
    assert verdict(lhs, rhs) == verdict(evaluated(lhs), evaluated(rhs))


def test_product_value_multiplies_left_to_right_then_scales():
    x = MultiQSeries((2,), {(0,): 1, (1,): LaurentFraction.monomial(2, (1,))})
    y = MultiQSeries((2,), {(1,): LaurentFraction.from_poly(BINOMIALS[0]).inv()})
    s = LaurentFraction.monomial(3, (-1,))
    got = Product(x, x, y, scalar=s).value()
    want = ((x * x) * y).scale(s)
    assert got.c.keys() == want.c.keys()
    assert all(got.c[k].num._t == v.num._t and got.c[k].den == v.den for k, v in want.c.items())
    assert Product(x).value() is x


def test_product_dims_must_agree():
    x, y = MultiQSeries((2,), {(1,): 1}), MultiQSeries((2, 2), {(1, 1): 1})
    with pytest.raises(ValueError):
        Product(x, y)
    with pytest.raises(ValueError):
        same(Product(x, x), y)
    with pytest.raises(ValueError):
        same(y, Product(x, scalar=2))
    with pytest.raises(ValueError):
        Product(x) == Product(y)


def test_a_disagreeing_comparator_never_passes(monkeypatch):
    # the Product comparison reports "differ" on equal sides: same must
    # raise rather than pass, and the error is not a witness
    x = MultiQSeries((2,), {(0,): 1, (1,): LaurentFraction.from_poly(BINOMIALS[0]).inv()})
    monkeypatch.setattr(Product, "__eq__", lambda self, other: False)
    with pytest.raises(ArithmeticError):
        same(Product(x, x), x * x)
    with pytest.raises(ArithmeticError):
        same(x * x, Product(x, x, scalar=1))


# Canonical factors for the kernel cases: binomials and a trinomial in t,
# some with Fraction coefficients.
KERNEL_FACTORS = [LaurentPoly({(): 1, (1,): -1}), LaurentPoly({(): 1, (2,): -1}),
                  LaurentPoly({(): 1, (1,): Fraction(1, 2)}),
                  LaurentPoly({(): 1, (1,): 1, (2,): Fraction(-2, 3)})]


def reference_cross_equal(a, b) -> bool:
    """The kernel's verdict by dict-polynomial cross-multiplication: at each
    key every choice of one coefficient per factor is multiplied out, both
    sides go over the largest exponent of each denominator factor over the
    terms of both, and the numerators are compared as polynomials."""
    def expand(den):
        out = LaurentPoly.one()
        for f, e in den.items():
            out = out * f ** e
        return out

    def terms(side) -> dict:
        scalar, factors, dims = side
        out: dict = {}
        for combo in itertools.product(*(f.items() for f in factors)):
            key = tuple(map(sum, zip(*(k for k, _ in combo))))
            if all(k <= d for k, d in zip(key, dims)):
                num, den = scalar.num, dict(scalar.den)
                for _, v in combo:
                    num = num * v.num
                    for f, e in v.den.items():
                        den[f] = den.get(f, 0) + e
                out.setdefault(key, []).append((num, den))
        return out

    ta, tb = terms(a), terms(b)
    for key in ta.keys() | tb.keys():
        sides = [ta.get(key, []), tb.get(key, [])]
        top: dict = {}
        for _, den in sides[0] + sides[1]:
            for f, e in den.items():
                top[f] = max(top.get(f, 0), e)
        nums = []
        for parts in sides:
            acc = LaurentPoly.zero()
            for num, den in parts:
                acc = acc + num * expand({f: e - den.get(f, 0) for f, e in top.items()})
            nums.append(acc)
        if nums[0] != nums[1]:
            return False
    return True


@st.composite
def kernel_fractions(draw):
    """A fraction in t with int or Fraction coefficients and exponents
    -3..3, over up to two factors; its numerator may be zero."""
    coeffs = st.one_of(st.integers(-4, 4).filter(bool),
                       st.fractions(-3, 3, max_denominator=4).filter(bool))
    num = draw(st.dictionaries(st.tuples(st.integers(-3, 3)), coeffs, max_size=3))
    den = {f: draw(st.integers(1, 2))
           for f in draw(st.sets(st.sampled_from(KERNEL_FACTORS), max_size=2))}
    return LaurentFraction(LaurentPoly(num), den)


@st.composite
def kernel_sides(draw, dims):
    """A kernel side (scalar, factors, dims): 1 to 3 series on dims with
    1 to 3 nonzero coefficients each, the second sometimes the first
    again (a square); the scalar may be zero."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if len(factors) == 1 and draw(st.booleans()):
            factors.append(factors[0])
            continue
        keys = draw(st.lists(st.tuples(*(st.integers(0, d) for d in dims)),
                             min_size=1, max_size=3, unique=True))
        values = [draw(kernel_fractions().filter(bool)) for _ in keys]
        factors.append(dict(zip(keys, values)))
    return draw(kernel_fractions()), factors, dims


def evaluated_side(side) -> dict:
    """The side's value at each key, by the series arithmetic."""
    scalar, factors, dims = side
    out = MultiQSeries(dims, factors[0])
    for f in factors[1:]:
        out = out * MultiQSeries(dims, f)
    return out.scale(scalar).c if scalar else {}


@st.composite
def kernel_cases(draw):
    """Two kernel sides: independent, or the second the first's values
    (equal), those values off by a monomial at one key, or all of them
    times a monomial; the values are sometimes left over one more factor."""
    dims = draw(st.sampled_from([(2,), (1, 1)]))
    a = draw(kernel_sides(dims))
    kind = draw(st.sampled_from(["other", "equal", "off", "shifted"]))
    if kind == "other":
        return a, draw(kernel_sides(dims))
    values = evaluated_side(a)
    if kind == "shifted":
        step = (draw(st.integers(-2, 2)),)
        values = {k: v.shift(step) for k, v in values.items()}
    elif kind == "off":
        key = draw(st.sampled_from(sorted(itertools.product(*(range(d + 1) for d in dims)))))
        bump = LaurentFraction.monomial(draw(st.sampled_from([1, Fraction(-1, 2)])),
                                        (draw(st.integers(-3, 3)),))
        values[key] = values.get(key, LaurentFraction.zero()) + bump
    if draw(st.booleans()):
        # the same values over a larger denominator, left unreduced
        f = draw(st.sampled_from(KERNEL_FACTORS))
        values = {k: LaurentFraction(v.num * f, {**v.den, f: v.den.get(f, 0) + 1})
                  for k, v in values.items()}
    return a, (LaurentFraction.one(), [{k: v for k, v in values.items() if v}], dims)


@given(kernel_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_packed_comparison_matches_dict_cross_multiplication(case, swap):
    a, b = case[::-1] if swap else case
    assert series._cross_equal(a, b) is reference_cross_equal(a, b)


def test_packed_comparison_of_zero_sides():
    x = MultiQSeries((2,), {(0,): LaurentFraction(LaurentPoly({(1,): 2}), {KERNEL_FACTORS[2]: 1})})
    zero = MultiQSeries((2,))
    assert Product(zero) == Product(zero, scalar=x.get((0,)))
    assert Product(zero) == Product(x, zero, x)
    assert Product(x, scalar=0) == zero
    assert Product(x) != Product(zero)
    assert Product(zero, scalar=2) != Product(x, x)
    assert Product(x, x) == Product(MultiQSeries.one((2,)), scalar=x.get((0,)) ** 2)
    assert Product(x, x) != Product(zero, MultiQSeries.one((2,)), scalar=x.get((0,)) ** 2)


def test_packed_comparison_rejects_an_s_exponent():
    # the kernel packs polynomials in t alone, so a comparison whose
    # coefficients or scalar carry an s exponent raises, even between
    # equal sides, and never passes
    s = LaurentFraction.monomial(1, (0, 1))
    over_s = LaurentFraction.one() / LaurentFraction.from_poly(LaurentPoly({(): 1, (0, 1): -1}))
    x = MultiQSeries((1,), {(0,): 1, (1,): LaurentFraction.monomial(2, (1,))})
    for c in (s, over_s):
        y = MultiQSeries((1,), {(0,): 1, (1,): c})
        with pytest.raises(ValueError):
            Product(y) == Product(MultiQSeries((1,), y.c))
        with pytest.raises(ValueError):
            Product(x, y) == x
        with pytest.raises(ValueError):
            Product(x, scalar=c) == Product(x, scalar=c)
        with pytest.raises(ValueError):
            x == Product(x, scalar=c)


def one_key(c) -> Product:
    """c as the product of one one-key series."""
    return Product(MultiQSeries((1,), {(0,): c}))


@pytest.mark.parametrize("step", [(1,), (2,), (0, 1), (-1, 1)])
def test_packing_never_aliases_adjacent_slots(step):
    # n * (1 - X**step) / (1 - X**step) - n * X**step has coefficients
    # n, -n and -1 at exponents 0, step and 2 * step; packed with slots of
    # w bits, n = 2**w would make it vanish at X**step = 2**w.  The sides
    # differ for every n, so no slot width may alias them.  The kernel
    # packs t alone; a step with an s exponent is a fraction comparison.
    f = LaurentPoly({(): 1, step: -1})
    wrap = one_key if len(step) == 1 else LaurentFraction._coerce
    for k in range(0, 130):
        for n in (1 << k, -(1 << k)):
            lhs = wrap(LaurentFraction(LaurentPoly({(): n, step: -n}), {f: 1}))
            assert lhs != wrap(LaurentFraction.monomial(1, step))
            assert lhs == wrap(LaurentFraction.const(n))


@pytest.mark.parametrize("odd", [(1,), (0, 1), (1, 1), (-1, 2)])
def test_packing_keeps_odd_steps_between_even_polynomials(odd):
    # every polynomial steps by 2 on each axis, so only the placement of
    # one side, or of one coefficient, against another is odd: the slot
    # unit must divide that step too, or X**odd packs as X**0
    if len(odd) > 1:
        # a fraction over an unreduced factor against one over none
        even = LaurentPoly({(): 1, (2,): 1, (0, 2): 1})
        f = LaurentPoly({(): 1, (0, 1): -1})
        assert LaurentFraction(even * f, {f: 1}) != LaurentFraction(even.shift(odd))
        assert LaurentFraction(even.shift(odd)) != LaurentFraction(even * f, {f: 1})
        return
    even = LaurentFraction(LaurentPoly({(): 1, (2,): 1, (4,): 1}))
    moved = even.shift(odd)
    one = MultiQSeries.one((1,))
    x = MultiQSeries((1,), {(0,): even, (1,): even})
    y = MultiQSeries((1,), {(0,): even, (1,): moved})
    for a, b in [(Product(one, scalar=even), Product(one, scalar=moved)),
                 (one_key(even), one_key(moved)), (Product(x), Product(y))]:
        assert a != b
        assert b != a
    assert Product(y) == Product(MultiQSeries((1,), y.c))
    # the converse: coefficients placed an even step apart, one of them
    # stepping by odd, so the polynomial's own step must divide the unit
    lop = LaurentFraction(LaurentPoly({(): 1, odd: 1}))
    two = LaurentFraction.const(2)
    assert (Product(MultiQSeries((1,), {(0,): lop, (1,): lop.shift((2,))}))
            != Product(MultiQSeries((1,), {(0,): two, (1,): two.shift((2,))})))


def test_expand_in_q_geometric():
    t = LaurentFraction.monomial(1, (1,))
    s = LaurentFraction.monomial(1, (0, 1))
    fr = LaurentFraction.one() / (LaurentFraction.one() - t ** 2 * s ** 2)
    qs = expand_in_q(fr, 3)
    for d in range(4):
        assert qs.get((d,)) == LaurentFraction.monomial(1, (2 * d,))


def test_expand_in_q_rejects_stray_half_powers():
    s = LaurentFraction.monomial(1, (0, 1))
    with pytest.raises(ArithmeticError):
        expand_in_q(s, 2)


def test_expand_in_q_multi_two_axes():
    one = LaurentFraction.one()
    s1 = LaurentFraction.monomial(1, (0, 2))
    s2 = LaurentFraction.monomial(1, (0, 0, 2))
    fr = (one - s1) ** -1 * (one - s2) ** -1
    ms = expand_in_q_multi(fr, (2, 2))
    assert all(ms.get((i, j)) == 1 for i in range(3) for j in range(3))


def test_json_shapes():
    t = LaurentFraction.monomial(1, (1,))
    fr = t / (LaurentFraction.one() - t ** 2)
    fj = fraction_json(fr)
    assert set(fj) == {"num", "den"}
    qs = MultiQSeries((2,), {(0,): Fraction(1), (2,): fr})
    one = {"num": [[0, "1"]], "den": [[0, "1"]]}
    # a number coefficient is stored as a fraction; an absent key stays "0"
    assert qseries_json(qs) == {"trunc": 2, "coeffs": [one, "0", fj]}
    ms = MultiQSeries((1, 1), {(1, 0): Fraction(2)})
    mj = multiqseries_json(ms)
    assert mj["dims"] == [1, 1]
    assert mj["coeffs"][0]["key"] == [1, 0]
    assert poly_terms_json(fr.num, 1) == [[1, "1"]]


def geometric_fraction():
    t = LaurentFraction.monomial(1, (1,))
    return t / (LaurentFraction.one() - t ** 2)


def test_same_returns_true_on_equal_sides():
    fr = geometric_fraction()
    assert same(fr, fr.scale(2).scale(Fraction(1, 2))) is True
    assert same(MultiQSeries((1,), {(1,): fr}), MultiQSeries((1,), {(1,): fr})) is True
    assert same(mono(3, (1, 2)), mono(3, (1, 2))) is True
    assert same({(2,): 1}, {(2,): Fraction(1)}) is True


@pytest.mark.parametrize("lhs, rhs, witness", [
    # Q keys (1,) and (2,) both differ; (1,) comes first
    (MultiQSeries((2,), {(0,): 1, (1,): 3, (2,): 5}),
     MultiQSeries((2,), {(0,): 1, (1,): 4, (2,): 6}), 'at [1]: "3" != "4"'),
    # s-major order, the order of LaurentPoly.terms(): t^2 before s
    (mono(1, (2,)) + mono(1, (0, 1)), LaurentPoly.zero(), 'at [2]: "1" != "0"'),
    ({(3,): 1, (2, 1): 1, (1,): 2}, {(3,): 2, (2, 1): 1}, 'at [1]: "2" != "0"'),
    # three axes: (0,2) before (1,0,1) before (0,0,2); trailing zeros trimmed
    (mono(Fraction(1, 2), (1, 0, 1)) + mono(1, (0, 2)), mono(1, (0, 2)) + mono(1, (0, 0, 2)),
     'at [1,0,1]: "1/2" != "0"'),
])
def test_same_names_the_first_differing_key(lhs, rhs, witness):
    with pytest.raises(Mismatch) as exc:
        same(lhs, rhs)
    assert str(exc.value) == witness


def test_same_renders_fraction_coefficients_as_json():
    fr = geometric_fraction()
    with pytest.raises(Mismatch) as exc:
        same(MultiQSeries((1,), {(1,): fr}), MultiQSeries((1,), {}))
    assert str(exc.value) == f'at [1]: {json.dumps(fraction_json(fr), separators=(",", ":"))} != "0"'


def test_same_shows_both_fractions_whole():
    fr = geometric_fraction()
    with pytest.raises(Mismatch) as exc:
        same(fr, -fr)
    lhs, rhs = (json.dumps(fraction_json(x), separators=(",", ":")) for x in (fr, -fr))
    assert str(exc.value) == f"{lhs} != {rhs}"


def test_same_shows_constant_fractions_as_numbers():
    # a constant LaurentFraction reads like the number it equals
    with pytest.raises(Mismatch) as exc:
        same(MultiQSeries((1,), {(0,): Fraction(2)}), MultiQSeries((1,), {(0,): LaurentFraction.one()}))
    assert str(exc.value) == 'at [0]: "2" != "1"'
    with pytest.raises(Mismatch) as exc:
        same(LaurentFraction.const(Fraction(-3, 2)), LaurentFraction.zero())
    assert str(exc.value) == '"-3/2" != "0"'
    # the JSON rendering of the same coefficient is unchanged
    assert series.coeff_json(LaurentFraction.one()) == {"num": [[0, "1"]], "den": [[0, "1"]]}
