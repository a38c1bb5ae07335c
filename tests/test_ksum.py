import itertools
import math
import sys
from fractions import Fraction

import pytest

from vertexcalc import fcoeff, ksum, prodred, schur, series
from vertexcalc.ksum import (chain_links, gauge_block, k00_closed, k00_square,
                             k_brute, k_brute_square, k_transposed_rational,
                             kgen_closed, kgen_pair, ktilde_brute, ray_keys,
                             ray_product, sun_pair_square, sun_square_fraction,
                             sun_square_series,
                             verify_cor_ik2_and_ksinh, verify_ksinh_series,
                             verify_ktilde_pair_reduction, verify_sun_squares,
                             verify_thm_k, verify_thm_kgen, verify_thm_kt)
from vertexcalc.partitions import all_partitions, conjugate, kappa, partitions_of, weight
from vertexcalc.prodred import bracket, one_minus_qq, pair_multiset, product_over
from vertexcalc.nekrasov import _framed_pair_square, sun_tuple_identity, tuple_sweep
from vertexcalc.vertex import w1, w3
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
    kc = kgen_closed(((1,), (1,)), (3,)).value()
    assert ktilde_brute(((), ()), (2,)).get((0,)) == 1
    for d in range(4):
        assert kt.get((d,)) == kc.get((d,))


def _k00_chain_reference(dims, n):
    """The earlier k00 chain product: k00_closed at the product of the
    chain variables k..l-1, multiplied over the slot pairs k < l."""
    out = MultiQSeries.one(dims)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            depth = min(dims[k - 1:l - 1])
            base = k00_closed(depth)
            cells = {tuple(j if k - 1 <= i <= l - 2 else 0 for i in range(len(dims))):
                     base.get((j,)) for j in range(depth + 1)}
            out = out * MultiQSeries(dims, cells)
    return out


def _kgen_fraction(mus):
    """The earlier closed side as one N-slot fraction: the per-slot
    amplitudes and every pair's reduced product on Q_k ... Q_{l-1}."""
    n = len(mus)
    fr = LaurentFraction.one()
    for mu in mus:
        fr = fr * w1(mu)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            sh = (0,) * k + (2,) * (l - k)
            fr = fr * product_over(pair_multiset(mus[k - 1], mus[l - 1]),
                                   lambda m, s=sh: one_minus_qq(m, s))
    return fr


def _brute_reference(mus, dims):
    """The earlier brute side: every middle-partition tuple enumerated whole."""
    terms = {}
    for nus in itertools.product(*(all_partitions(d) for d in dims)):
        chain = ((),) + nus + ((),)
        term = LaurentFraction.one()
        for k in range(1, len(mus) + 1):
            nu = chain[k]
            term = term * w3(chain[k - 1], mus[k - 1], conjugate(nu)).shift((kappa(nu),))
        terms.setdefault(tuple(weight(nu) for nu in nus), []).append(term)
    return MultiQSeries(dims, {key: LaurentFraction.sum(ts) for key, ts in terms.items()})


@pytest.mark.parametrize("dims", [(3,), (2, 1), (1, 2), (2, 1, 1)], ids=str)
def test_chain_sides_match_the_slot_fractions_and_the_full_enumeration(dims):
    k0 = _k00_chain_reference(dims, len(dims) + 1)
    for mus in tuple_sweep(len(dims) + 1, 2):
        assert ktilde_brute(mus, dims) == _brute_reference(mus, dims)
        closed = k0 * series.expand_in_q_multi(_kgen_fraction(mus), dims)
        assert kgen_closed(mus, dims) == closed
        sinh = (k0 * k0) * series.expand_in_q_multi(sun_square_fraction(mus, len(dims)), dims)
        assert sun_square_series(mus, dims) == sinh


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
    ksum._SPAIR_CACHE.clear()
    assert verify_sun_squares(((1,), (1,), ()), (2, 2))


def test_closed_and_brute_sides_do_not_read_the_gauge_route(monkeypatch):
    # kgen_closed reads the row-pair multiset, ktilde_brute the w3 links
    def refuse(*args):
        raise AssertionError("a kgen side read the gauge route")

    monkeypatch.setattr(ksum, "nekrasov_multiset", refuse)
    monkeypatch.setattr(ksum, "gauge_block", refuse)
    for table in (ksum._KT_CACHE, ksum._LINK_CACHE, ksum._KPAIR_CACHE):
        table.clear()
    assert verify_thm_kgen(((1,), (1,), ()), (2, 2))


def test_square_fraction_empty_is_one():
    assert sun_square_fraction(((), ()), 2) == LaurentFraction.one()
    assert sun_square_fraction(((), (), ()), 3) == LaurentFraction.one()


CHAIN_MEMOS = [
    (ktilde_brute, "_KT_CACHE", (((1,), (), (1,)), (1, 1))),
    (chain_links, "_LINK_CACHE", (((1,), ()), (1, 1))),
    (kgen_pair, "_KPAIR_CACHE", ((2, 1), (1,), 2)),
    (sun_pair_square, "_SPAIR_CACHE", ((2, 1), (1,), 2)),
    (ray_keys, "_RAY_CACHE", ((2, 1), 1, 3)),
    (k_brute_square, "_KBSQ_CACHE", ((1,), (2,), 2)),
    (k00_square, "_K00_SQUARE_CACHE", (3,)),
    (gauge_block, "_GAUGE_CACHE", ((2, 1), (1,), (0, 1, 0))),
    (_framed_pair_square, "_FPS_CACHE", ((1,), (1,), 1, 2)),
]


# the factor families, pair functions and finite-alphabet Schur polynomials
# the chain pieces and the Cauchy-type checks are built from
FACTOR_MEMOS = [
    (prodred.bracket, "_BRACKET_CACHE", (3,)),
    (prodred.one_minus_qq, "_OMQQ_CACHE", (2,)),
    (prodred.sinh_factor, "_SINH_CACHE", (-3, (0, 1))),
    (fcoeff.f_pair, "_FPAIR_CACHE", ((2, 1), (1,))),
    (fcoeff.f_pair_2var, "_FPAIR2_CACHE", ((2, 1), (1,))),
    (k_transposed_rational, "_KTR_CACHE", ((2, 1), (1,))),
    (schur.skew_schur_poly, "_SKEW_CACHE", ((2, 1), (1,), 4, 2, 2)),
    (schur._cauchy_kernel, "_KERNEL_CACHE", (2, 2, 4)),
]


def assert_memoized(fn, table_name, args, monkeypatch):
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


@pytest.mark.parametrize("fn, table_name, args", CHAIN_MEMOS,
                         ids=[fn.__name__ for fn, *_ in CHAIN_MEMOS])
def test_chain_builders_are_memoized(fn, table_name, args, monkeypatch):
    assert_memoized(fn, table_name, args, monkeypatch)


@pytest.mark.parametrize("fn, table_name, args", FACTOR_MEMOS,
                         ids=[fn.__name__ for fn, *_ in FACTOR_MEMOS])
def test_factor_builders_are_memoized(fn, table_name, args, monkeypatch):
    assert_memoized(fn, table_name, args, monkeypatch)


def test_rooms_are_memoized(monkeypatch):
    assert_memoized(series._room, "_ROOM_CACHE", ((1, 0), (3, 2)), monkeypatch)
    assert series._room((1, 0), (3, 2)) == [
        ((x, y), (1 + x, y)) for x, y in itertools.product(range(3), range(3))]


def test_interned_factors_are_memoized(monkeypatch):
    # _interned hands back its argument on a miss, so each step passes an
    # equal factor that is another object
    t = LaurentPoly.var(0)
    f, g = 1 - t ** 11, 1 - t ** 11
    first = series._interned(f)
    assert series._interned(g) is first
    assert series._FACTOR_CACHE[(g,)] is first
    del series._FACTOR_CACHE[(g,)]
    with monkeypatch.context() as m:
        m.setattr(series, "CACHE_LIMIT", len(series._FACTOR_CACHE))
        again = series._interned(g)
    assert again == first and again is not first and (g,) not in series._FACTOR_CACHE


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
    yield from ((_kgen_fraction(mus), (3,)) for mus in small_pairs(2))
    yield from ((_kgen_fraction(mus), (2, 2)) for mus in itertools.product(parts2, repeat=3))


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


@pytest.mark.parametrize("call", [
    lambda: ktilde_brute(((1,), (1,)), [1]),
    lambda: ray_product(kgen_pair, ((1,), (1,)), [1]),
    lambda: kgen_closed(((1,), (1,)), [1]),
    lambda: sun_square_series(((1,), (1,)), [1]),
    lambda: sun_tuple_identity(2, ((1,), (1,)), [1]),
], ids=["ktilde_brute", "ray_product", "kgen_closed", "sun_square_series",
        "sun_tuple_identity"])
def test_list_dims_raise_type_error(call):
    # dims must be a tuple of ints; no entry point coerces a list
    with pytest.raises(TypeError):
        call()
