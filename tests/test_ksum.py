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
from vertexcalc.series import LaurentFraction, expand_in_q


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


def test_chain_checks_accept_lists():
    # the verify entry points turn list arguments into memo keys themselves
    assert verify_thm_kgen([[1], [1, 0]], [2])
    assert verify_sun_squares([[1], []], [2])
