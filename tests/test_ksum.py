import math
import sys
from fractions import Fraction

import pytest

from vertexcalc import ksum, prodred, series
from vertexcalc.ksum import (gauge_block, k00_chain_product, k00_chain_square,
                             k00_closed, k_brute, k_transposed_rational,
                             kgen_closed, ktilde_brute, sun_square_fraction,
                             verify_cor_ik2_and_ksinh, verify_ksinh_series,
                             verify_ktilde_pair_reduction, verify_sun_squares,
                             verify_thm_k, verify_thm_kgen, verify_thm_kt)
from vertexcalc.partitions import all_partitions, conjugate, partitions_of
from vertexcalc.prodred import bracket
from vertexcalc.nekrasov import _framed_pair_square
from vertexcalc.series import (_HALF, LaurentFraction, LaurentPoly, MultiQSeries,
                               _digit0, _svec, expand_in_q, unpack)


def small_pairs(total):
    return [(mu1, mu2)
            for w1 in range(total + 1) for mu1 in partitions_of(w1)
            for w2 in range(total + 1 - w1) for mu2 in partitions_of(w2)]


def test_empty_pair_series_anchor():
    # degree-one coefficient of the empty-pair series is 1 / (t - 1/t)^2
    ks = k00_closed(3)
    assert ks == k_brute((), (), 3)
    assert ks.get((0,)) == Fraction(1)
    assert ks.get((1,)) == bracket(1) ** -2


def test_pair_series_three_routes():
    for mu1, mu2 in small_pairs(3):
        assert verify_thm_k(mu1, mu2, 4)


def test_transposed_pair_rational():
    for mu1, mu2 in small_pairs(4):
        assert verify_thm_kt(mu1, mu2, 4)


def test_transposed_rational_anchor():
    # single box against empty: everything collapses onto (1 - Q)^(-1)
    fr = k_transposed_rational((1,), ())
    one = LaurentFraction.one()
    s2 = LaurentFraction.monomial(1, (0, 2))
    assert fr == bracket(1) ** -1 * (one - s2) ** -1


def test_squared_normal_forms():
    for mu1, mu2 in small_pairs(4):
        assert verify_cor_ik2_and_ksinh(mu1, mu2)


def test_squared_series_expansion():
    for mu1, mu2 in small_pairs(3):
        assert verify_ksinh_series(mu1, mu2, 4)


def test_chain_reduces_to_pair():
    for mu1 in all_partitions(3):
        assert verify_ktilde_pair_reduction(mu1, (), 3)
        assert verify_ktilde_pair_reduction(mu1, (1,), 3)
        assert verify_ktilde_pair_reduction((2, 1), mu1, 3)


def test_chain_closed_form_two_slots():
    pairs = [((), ()), ((1,), ()), ((1,), (1,)), ((2,), (1, 1))]
    for mu1, mu2 in pairs:
        assert verify_thm_kgen((mu1, mu2), (3,))


def test_chain_closed_form_three_slots():
    triples = [((), (), ()), ((1,), (), ()), ((), (1,), ()), ((1,), (1,), (1,))]
    for mus in triples:
        assert verify_thm_kgen(mus, (2, 2))


def test_chain_value_matches_closed_everywhere_in_box():
    kt = ktilde_brute(((1,), (1,)), (3,))
    kc = kgen_closed(((1,), (1,)), (3,))
    assert ktilde_brute(((), ()), (2,)).get((0,)) == 1
    for d in range(4):
        assert kt.get((d,)) == kc.get((d,))


def test_squared_chain_fraction_two_slots():
    pairs = [((), ()), ((1,), ()), ((1,), (1,)), ((2,), (1,))]
    for mus in pairs:
        assert verify_sun_squares(mus, (3,))


def test_squared_chain_fraction_three_slots():
    assert verify_sun_squares(((1,), (), ()), (2, 2))
    assert verify_sun_squares(((1,), (1,), ()), (2, 2))


def test_sinh_side_does_not_read_the_row_pair_multiset(monkeypatch):
    # the gauge route builds its blocks by arms and legs alone
    def refuse(*args):
        raise AssertionError("the sinh side read pair_multiset")

    monkeypatch.setattr(ksum, "pair_multiset", refuse)
    monkeypatch.setattr(prodred, "pair_multiset", refuse)
    ksum._GAUGE_CACHE.clear()
    assert verify_sun_squares(((1,), (1,), ()), (2, 2))


def test_square_fraction_empty_is_one():
    assert sun_square_fraction(((), ()), 2) == LaurentFraction.one()
    assert sun_square_fraction(((), (), ()), 3) == LaurentFraction.one()


CHAIN_MEMOS = [
    (ktilde_brute, "_KT_CACHE", (((1,), (), (1,)), (1, 1))),
    (k00_chain_product, "_K00P_CACHE", ((2, 1), 3)),
    (k00_chain_square, "_K00SQ_CACHE", ((2, 1), 3)),
    (gauge_block, "_GAUGE_CACHE", ((2, 1), (1,), (0, 1, 0))),
    (_framed_pair_square, "_FPS_CACHE", ((1,), (1,), 1, 2)),
]


@pytest.mark.parametrize("fn, table_name, args", CHAIN_MEMOS,
                         ids=[fn.__name__ for fn, *_ in CHAIN_MEMOS])
def test_chain_builders_are_memoized(fn, table_name, args, monkeypatch):
    first = fn(*args)
    assert fn(*args) is first
    # a full table (CACHE_LIMIT) recomputes an equal value and does not store it
    table = getattr(sys.modules[fn.__module__], table_name)
    assert table[args] is first
    del table[args]
    with monkeypatch.context() as m:
        m.setattr(series, "CACHE_LIMIT", len(table))
        again = fn(*args)
    assert again == first and again is not first and args not in table


def _expand_per_cell(fr, dims):
    """The earlier expand_in_q_multi, kept as the reference: every partial
    cell sum is reduced as a LaurentFraction after each binomial."""
    naxes = len(dims)
    hi = tuple(2 * d for d in dims)
    pure, bins = {}, []
    for f, e in fr.den.items():
        if all(-_HALF <= k < _HALF for k in f._t):
            pure[f] = pure.get(f, 0) + e
            continue
        other = max(f._t)
        bins.append((_digit0(other), _svec(unpack(other), naxes), -f._t[other], e))
    parts = {}
    for k, v in fr.num._t.items():
        sv = _svec(unpack(k), naxes)
        if any(a > b for a, b in zip(sv, hi)):
            continue
        tp = LaurentFraction._make(LaurentPoly._of({_digit0(k): v}), dict(pure))
        parts.setdefault(sv, []).append(tp)
    cells = {w: LaurentFraction.sum(ts) for w, ts in parts.items()}
    for texp, sv, base, g in bins:
        parts = {}
        for w, val in cells.items():
            j = 0
            while True:
                ww = tuple(a + j * b for a, b in zip(w, sv))
                if any(x > h for x, h, b in zip(ww, hi, sv) if b):
                    break
                if not any(x > h for x, h in zip(ww, hi)):
                    coef = math.comb(g - 1 + j, j) * base ** j
                    term = val.scale(coef).shift((texp * j,)) if j else val
                    parts.setdefault(ww, []).append(term)
                j += 1
        sums = {w: LaurentFraction.sum(ts) for w, ts in parts.items()}
        cells = {w: v for w, v in sums.items() if not v.is_zero()}
    out = {}
    for w, val in cells.items():
        assert all(v >= 0 and v % 2 == 0 for v in w)
        out[tuple(v // 2 for v in w)] = val
    return MultiQSeries(tuple(dims), out)


def _kgen_closed_fractions():
    seen = []

    def record(fr, dims):
        seen.append((fr, tuple(dims)))
        return series.expand_in_q_multi(fr, dims)

    rank3 = [(a, b, c) for a in all_partitions(2) for b in all_partitions(2)
             for c in all_partitions(2)]
    mp = pytest.MonkeyPatch()
    mp.setattr(ksum, "expand_in_q_multi", record)
    try:
        for mus in small_pairs(2):
            kgen_closed(mus, (3,))
        for mus in rank3:
            kgen_closed(mus, (2, 2))
    finally:
        mp.undo()
    return seen


def _cancelling_fractions():
    """Fractions with output cells that share a pure-t factor with the
    denominator, before and after a binomial is expanded; no fraction of
    the sweep below has one."""
    one_t = LaurentPoly({(0,): 1, (1,): -1})
    bin_s = LaurentPoly({(0,): 1, (1, 2): -1})
    yield LaurentFraction._make(LaurentPoly({(0,): 1, (1,): -1, (0, 2): 1}), {one_t: 1}), (1,)
    yield LaurentFraction._make(LaurentPoly({(0,): 1, (0, 2): -1}), {one_t: 1, bin_s: 1}), (2,)


def _expansion_sweep():
    yield from _cancelling_fractions()
    parts3 = list(all_partitions(3))
    yield from ((k_transposed_rational(a, b), (3,)) for a in parts3 for b in parts3)
    parts2 = list(all_partitions(2))
    yield from ((sun_square_fraction((a, b, c), 2), (2, 2))
                for a in parts2 for b in parts2 for c in parts2)
    yield from _kgen_closed_fractions()


def test_expansion_over_one_denominator_keeps_the_normal_forms():
    # Equal numerators and equal factor multisets, not just equal values.
    # (Where two pure-t factors overlap, as 1 - t and 1 - t^2 do, the
    # two algorithms may divide them in another order; no fraction here
    # or in the suites gives such a cell.)
    calls = 0
    for fr, dims in _expansion_sweep():
        got = series.expand_in_q_multi(fr, dims)
        ref = _expand_per_cell(fr, dims)
        assert got.c.keys() == ref.c.keys(), (fr, dims)
        for key, val in ref.c.items():
            assert got.c[key].num._t == val.num._t, (fr, dims, key)
            assert got.c[key].den == val.den, (fr, dims, key)
        calls += 1
    assert calls == 2 + 7 * 7 + 4 ** 3 + 8 + 4 ** 3
