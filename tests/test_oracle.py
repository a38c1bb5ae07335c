"""Differential oracle: the fraction kernel against sympy.

Each case is drawn as plain data (a numerator dict and lists of binomials
1 + c * X**k) and built twice: once through LaurentFraction, once with
sympy polynomials straight from the data.  invert_vars and subs_power are
mirrored on the data itself (keys negated, axis 0 doubled), so the
reference side shares no arithmetic with the kernel.  A kernel fraction
N/D equals a reference P/Q iff the sympy polynomial N*Q - P*D is zero; a
wrong cancellation or re-canonicalization shows up there.  The kernel's
own == is held to the same test.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexcalc.series import LaurentFraction, LaurentPoly, MultiQSeries, Product

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
    """(num, num_factors, den_factors) with den_factors as (c, k, e, whole).

    A factor with whole set is built as binomial**e, whose expansion is one
    factor of three or more terms that stays in the denominator; otherwise
    as binomial.inv()**e, which keeps the binomial as a factor of exponent e.
    The numerator is a small polynomial times some binomials; it may also
    take 1 - c**2 X**(2k) for a denominator factor 1 + c X**k, so that
    division has to walk across a gap.
    """
    keys = st.tuples(*[st.integers(-2, 2)] * naxes)
    num = draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    den = [(c, k, draw(st.integers(1, 2)), draw(st.booleans()))
           for c, k in draw(st.lists(binomials(naxes), max_size=3))]
    top = draw(st.lists(binomials(naxes), max_size=2))
    for c, k, *_ in den:
        if draw(st.booleans()):
            top.append((c, k))
        if draw(st.booleans()):
            top.append((-c * c, tuple(2 * v for v in k)))
    return num, top, den


def remap(case, fn):
    """The case with every exponent key sent through fn."""
    num, top, den = case
    return ({fn(k): v for k, v in num.items()}, [(c, fn(k)) for c, k in top],
            [(c, fn(k), *rest) for c, k, *rest in den])


def kernel(case) -> LaurentFraction:
    num, top, den = case
    fr = LaurentFraction.from_poly(LaurentPoly(num))
    for c, k in top:
        fr = fr * LaurentPoly({(): 1, k: c})
    for c, k, e, whole in den:
        b = LaurentFraction.from_poly(LaurentPoly({(): 1, k: c}))
        fr = fr / b ** e if whole else fr * b.inv() ** e
    return fr


def reference(case):
    """(P, Q): numerator and denominator as Laurent pairs."""
    num, top, den = case
    p = lmul(laurent(num), *(binomial(c, k) for c, k in top))
    return p, lmul(*(lpow(binomial(c, k), e) for c, k, e, _ in den))


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


@st.composite
def case_pairs(draw):
    """Two independent cases, or a case and the same value rebuilt: its
    factors multiplied in another order, each denominator binomial
    independently whole or not."""
    a = draw(cases())
    if draw(st.booleans()):
        return a, draw(cases())
    num, top, den = a
    return a, (num, draw(st.permutations(top)),
               [(c, k, e, draw(st.booleans())) for c, k, e, _ in draw(st.permutations(den))])


@given(case_pairs(), binomials(2))
@settings(max_examples=60, deadline=None)
def test_equality_matches_sympy(ab, g):
    a, b = ab
    fa, fb = kernel(a), kernel(b)
    (pa, qa), (pb, qb) = reference(a), reference(b)
    assert (fa == fb) is ladd(lmul(pa, qb), lmul(pb, qa), -1)[0].is_zero
    c, k = g
    bg = LaurentFraction.from_poly(LaurentPoly({(): 1, k: c}))
    assert fa == fa * bg * bg.inv()
    assert fa == fa * bg.inv() * bg
    assert fa != fa + 1


@given(st.lists(cases(), max_size=5))
@settings(max_examples=30, deadline=None)
def test_many_term_sum_matches_sympy(cs):
    # sum P_i / Q_i = (sum_i P_i * prod_{j != i} Q_j) / prod_j Q_j
    refs = [reference(c) for c in cs]
    p = laurent({})
    for i, (pi, _) in enumerate(refs):
        p = ladd(p, lmul(pi, *(q for j, (_, q) in enumerate(refs) if j != i)))
    assert same(LaurentFraction.sum([kernel(c) for c in cs]), (p, lmul(*(q for _, q in refs))))


@given(cases())
@settings(max_examples=40, deadline=None)
def test_inverse_and_substitutions_match_sympy(a):
    fa = kernel(a)
    assert same(fa.invert_vars(), reference(remap(a, lambda k: tuple(-v for v in k))))
    assert same(fa.subs_power(2), reference(remap(a, lambda k: (2 * k[0],) + k[1:])))
    if not fa.is_zero():
        assert same(fa.inv(), reference(a)[::-1])


@st.composite
def division_cases(draw, naxes=2):
    """(dividend case, divisor) with the divisor (c, k, factors) = c * X**k / R.

    R is a product over factors (b, j, m, d): the binomial (1 + b*X**j)**m,
    expanded as one factor, to the power d.  Each of the dividend's own
    denominator factors is drawn 0 times, fewer times than it has, as often
    or more often; fresh binomials are mostly absent from the dividend, so
    they reach the expansion of the factors it lacks.
    """
    case = draw(cases(naxes))
    fs = []
    for b, j, e, whole in case[2]:
        m, have = (e, 1) if whole else (1, e)
        fs.append((b, j, m, draw(st.integers(0, have + 1))))
    fs += [(b, j, 1, draw(st.integers(1, 2))) for b, j in draw(st.lists(binomials(naxes), max_size=2))]
    c = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
    k = draw(st.tuples(*[st.integers(-2, 2)] * naxes))
    return case, (c, k, fs)


@given(division_cases())
@settings(max_examples=60, deadline=None)
def test_division_by_a_one_term_numerator_matches_sympy(dc):
    a, (c, k, fs) = dc
    divisor = LaurentFraction.monomial(c, k)
    for b, j, m, d in fs:
        divisor = divisor * LaurentFraction.from_poly(LaurentPoly({(): 1, j: b}) ** m).inv() ** d
    assert len(divisor.num._t) == 1
    fa = kernel(a)
    p, q = reference(a)
    r = lmul(*(lpow(binomial(b, j), m * d) for b, j, m, d in fs))
    assert same(fa / divisor, (lmul(p, r), lmul(q, laurent({k: c}))))
    assert fa / divisor == fa * divisor.inv()


@given(st.lists(cases(naxes=1), min_size=1, max_size=2),
       st.lists(cases(naxes=1), min_size=1, max_size=2),
       st.sampled_from([(1,), (2,), (1, 1)]), st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_product_equality_matches_sympy(xs, ys, dims, square, data):
    # Product(x, x) or Product(x, y) against its value, each coefficient
    # of which sympy confirms from the data; then that value off by one
    # at one key, which the comparison must reject.  Coefficients are in
    # t alone, as the packed comparison requires.
    keys = list(itertools.product(*(range(d + 1) for d in dims)))
    refs = [dict(zip(keys, xs)), dict(zip(keys[::-1], ys))]
    x, y = (MultiQSeries(dims, {k: kernel(c) for k, c in r.items()}) for r in refs)
    pick = [0, 0] if square else [0, 1]
    want: dict = {}
    for ka, kb in itertools.product(refs[pick[0]], refs[pick[1]]):
        key = tuple(a + b for a, b in zip(ka, kb))
        if all(k <= d for k, d in zip(key, dims)):
            (pa, qa), (pb, qb) = reference(refs[pick[0]][ka]), reference(refs[pick[1]][kb])
            term = lmul(pa, pb), lmul(qa, qb)
            if key in want:
                (p0, q0), (p1, q1) = want[key], term
                term = ladd(lmul(p0, q1), lmul(p1, q0)), lmul(q0, q1)
            want[key] = term
    prod = Product(x, x) if square else Product(x, y)
    value = prod.value()
    assert value.c.keys() <= want.keys()
    assert all(same(value.get(k), ref) for k, ref in want.items())
    assert prod == value
    key = data.draw(st.sampled_from(keys))
    off = value + MultiQSeries(dims, {key: 1})
    assert not same(off.get(key), want.get(key, (laurent({}), ONE)))
    assert prod != off


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
    for c, (k,), e, _ in den:
        expr /= (1 + sp.Rational(c) * T ** k) ** e
    assert kernel(a).expand_at_zero(deg) == series_coeffs(expr, deg)
