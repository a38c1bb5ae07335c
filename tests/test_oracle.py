"""Differential oracle: the fraction kernel against sympy.

Each case is drawn as plain data (a numerator dict and lists of binomials
1 + c * X**k) and built twice: once through LaurentFraction, once with
sympy polynomials straight from the data.  invert_vars and subs_power are
mirrored on the data itself (keys negated, axis 0 doubled), so the
reference side shares no arithmetic with the kernel.  A kernel fraction
N/D equals a reference P/Q iff the sympy polynomial N*Q - P*D is zero; a
wrong cancellation or re-canonicalization shows up there.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexcalc.series import LaurentFraction, LaurentPoly

sp = pytest.importorskip("sympy")

T, S = sp.symbols("t s")

# A Laurent polynomial in t, s is held as (Poly, shift): the sympy Poly
# times t**shift[0] * s**shift[1].


def laurent(terms):
    """{key: coeff}, keys of length at most 2, as a (Poly, shift) pair."""
    pad = {tuple(k) + (0,) * (2 - len(k)): c for k, c in terms.items()}
    shift = tuple(min((k[i] for k in pad), default=0) for i in range(2))
    return (sp.Poly.from_dict({(k[0] - shift[0], k[1] - shift[1]): sp.Rational(c)
                               for k, c in pad.items()}, T, S, domain=sp.QQ), shift)


ONE = laurent({(): 1})


def lmul(*xs):
    out = ONE
    for x in xs:
        out = out[0] * x[0], (out[1][0] + x[1][0], out[1][1] + x[1][1])
    return out


def lpow(x, e):
    return lmul(*[x] * e)


def ladd(a, b, sign=1):
    lo = (min(a[1][0], b[1][0]), min(a[1][1], b[1][1]))
    def lift(x):
        return x[0] * sp.Poly(T ** (x[1][0] - lo[0]) * S ** (x[1][1] - lo[1]), T, S)
    return lift(a) + sign * lift(b), lo


def binomial(c, k):
    return laurent({(): 1, tuple(k): c})


@st.composite
def binomials(draw, naxes):
    """(c, k): the binomial 1 + c * X**k with k nonzero."""
    k = draw(st.tuples(*[st.integers(-2, 2)] * naxes).filter(any))
    c = draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 2)]))
    return c, k


@st.composite
def cases(draw, naxes=2):
    """(num, num_factors, den_factors) with den_factors as (c, k, e).

    The numerator is a small polynomial times some binomials; it may also
    take 1 - c**2 X**(2k) for a denominator factor 1 + c X**k, so that
    division has to walk across a gap.
    """
    keys = st.tuples(*[st.integers(-2, 2)] * naxes)
    num = draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    den = [(c, k, draw(st.integers(1, 2)))
           for c, k in draw(st.lists(binomials(naxes), max_size=3))]
    top = draw(st.lists(binomials(naxes), max_size=2))
    for c, k, _ in den:
        if draw(st.booleans()):
            top.append((c, k))
        if draw(st.booleans()):
            top.append((-c * c, tuple(2 * v for v in k)))
    return num, top, den


def remap(case, fn):
    """The case with every exponent key sent through fn."""
    num, top, den = case
    return ({fn(k): v for k, v in num.items()}, [(c, fn(k)) for c, k in top],
            [(c, fn(k), e) for c, k, e in den])


def kernel(case) -> LaurentFraction:
    num, top, den = case
    fr = LaurentFraction.from_poly(LaurentPoly(num))
    for c, k in top:
        fr = fr * LaurentPoly({(): 1, k: c})
    for c, k, e in den:
        fr = fr / LaurentFraction.from_poly(LaurentPoly({(): 1, k: c})) ** e
    return fr


def reference(case):
    """(P, Q): numerator and denominator as Laurent pairs."""
    num, top, den = case
    p = lmul(laurent(num), *(binomial(c, k) for c, k in top))
    return p, lmul(*(lpow(binomial(c, k), e) for c, k, e in den))


def same(fr: LaurentFraction, ref) -> bool:
    n = laurent(fr.num.d)
    d = lmul(*(lpow(laurent(f.d), e) for f, e in fr.den.items()))
    p, q = ref
    return ladd(lmul(n, q), lmul(p, d), -1)[0].is_zero


@given(cases(), cases())
@settings(max_examples=40, deadline=None)
def test_sum_and_product_match_sympy(a, b):
    fa, fb = kernel(a), kernel(b)
    (pa, qa), (pb, qb) = ra, rb = reference(a), reference(b)
    assert same(fa, ra) and same(fb, rb)
    q = lmul(qa, qb)
    assert same(fa + fb, (ladd(lmul(pa, qb), lmul(pb, qa)), q))
    assert same(fa - fb, (ladd(lmul(pa, qb), lmul(pb, qa), -1), q))
    assert same(fa * fb, (lmul(pa, pb), q))


@given(cases())
@settings(max_examples=40, deadline=None)
def test_inverse_and_substitutions_match_sympy(a):
    fa = kernel(a)
    assert same(fa.invert_vars(), reference(remap(a, lambda k: tuple(-v for v in k))))
    assert same(fa.subs_power(2), reference(remap(a, lambda k: (2 * k[0],) + k[1:])))
    if not fa.is_zero():
        assert same(fa.inv(), reference(a)[::-1])


def series_coeffs(expr, deg: int) -> dict:
    out = {}
    for term in sp.Add.make_args(sp.expand(sp.series(expr, T, 0, deg + 1).removeO())):
        c, e = term.as_coeff_exponent(T)
        if c:
            out[int(e)] = Fraction(int(c.p), int(c.q))
    return out


@given(cases(naxes=1), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_expand_at_zero_matches_sympy(a, deg):
    # sympy.series is much faster on the factored expression than on P/Q
    num, top, den = a
    expr = sp.Add(*(v * T ** k[0] for k, v in num.items()))
    for c, (k,) in top:
        expr *= 1 + sp.Rational(c) * T ** k
    for c, (k,), e in den:
        expr /= (1 + sp.Rational(c) * T ** k) ** e
    assert kernel(a).expand_at_zero(deg) == series_coeffs(expr, deg)
