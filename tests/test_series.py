from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexcalc import series
from vertexcalc.partitions import normalize
from vertexcalc.series import (LaurentFraction, LaurentPoly, MultiPoly,
                               MultiQSeries, QSeries, expand_in_q,
                               expand_in_q_multi, fraction_json, memo,
                               multiqseries_json, poly_terms_json,
                               qseries_json, set_cache_limit)


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


@given(laurent_polys(naxes=2, span=2, terms=3), laurent_polys(naxes=2, span=2, terms=3))
@settings(max_examples=40, deadline=None)
def test_fraction_cancellation(a, b):
    # (a*b)/b compares equal to a/1 whenever b is not zero
    if not b.d:
        return
    num = LaurentFraction.from_poly(a * b)
    den = LaurentFraction.from_poly(b)
    assert num == LaurentFraction.from_poly(a) * den


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


def test_memo_table_policy():
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

    limit = series.CACHE_LIMIT
    set_cache_limit(len(table))
    try:
        assert size_poly((3,)) == mono(1, (3,))
        size_poly((3,))
        assert runs == [(2, 1), (3,), (3,)] and len(table) == 1
    finally:
        set_cache_limit(limit)

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
    single = QSeries(3, [1, 0, 5])
    assert [single.get((d,)) for d in range(4)] == [1, 0, 5, 0]
    assert single == MultiQSeries((3,), {(0,): 1, (2,): 5})


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


def test_multipoly_geometric():
    x = MultiPoly.var(2, 3, 0)
    y = MultiPoly.var(2, 3, 1)
    g = (x + y).geometric()
    assert g.d[(1, 1)] == 2  # (x+y)^2 contributes 2xy


def test_json_shapes():
    t = LaurentFraction.monomial(1, (1,))
    fr = t / (LaurentFraction.one() - t ** 2)
    fj = fraction_json(fr)
    assert set(fj) == {"num", "den"}
    qs = MultiQSeries((2,), {(0,): Fraction(1), (2,): fr})
    assert qseries_json(qs) == {"trunc": 2, "coeffs": ["1", "0", fj]}
    ms = MultiQSeries((1, 1), {(1, 0): Fraction(2)})
    mj = multiqseries_json(ms)
    assert mj["dims"] == [1, 1]
    assert mj["coeffs"][0]["key"] == [1, 0]
    assert poly_terms_json(fr.num, 1) == [[1, "1"]]
