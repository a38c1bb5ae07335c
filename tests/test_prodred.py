from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexcalc.ksum import gauge_block
from vertexcalc.nekrasov import tuple_sweep
from vertexcalc.partitions import all_partitions, contents, hooks, kappa, partitions_of, weight
from vertexcalc.prodred import (bracket, multiset_json, nekrasov_multiset,
                                one_minus_qq, pair_multiset, sinh_factor)
from vertexcalc.series import LaurentFraction


@st.composite
def partitions(draw, max_weight=6):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    mu = []
    while n > 0:
        part = draw(st.integers(min_value=1, max_value=n))
        if mu and part > mu[-1]:
            part = mu[-1]
        mu.append(part)
        n -= part
    return tuple(mu)


def test_bracket_values():
    t = LaurentFraction.monomial(1, (1,))
    assert bracket(1) == t - t ** -1
    assert bracket(3) == t ** 3 - t ** -3
    with pytest.raises(ValueError):
        bracket(0)


def test_factor_relations():
    for m in range(1, 5):
        assert sinh_factor(m, ()) == bracket(m).scale(Fraction(-1, 2))
        assert one_minus_qq(m) == sinh_factor(m).scale(2).shift((m, 1))


def test_single_partition_multiset_is_contents():
    # against the empty partition the pair multiset collapses to the
    # contents of the first slot, each with multiplicity -1
    for w in range(6):
        for mu in partitions_of(w):
            ms = pair_multiset(mu, ())
            want = {}
            for c in contents(mu):
                want[c] = want.get(c, 0) - 1
            assert ms == {m: c for m, c in want.items() if c}


def test_multiset_example():
    assert pair_multiset((2, 1), ()) == {1: -1, 0: -1, -1: -1}
    assert multiset_json(pair_multiset((2, 1), ())) == [[1, -1], [0, -1], [-1, -1]]


@given(partitions(), partitions())
@settings(max_examples=60, deadline=None)
def test_pair_multiset_laws(mu1, mu2):
    ms = pair_multiset(mu1, mu2)
    w = weight(mu1) + weight(mu2)
    assert all(c < 0 for c in ms.values())
    assert sum(-c for c in ms.values()) == w
    assert sum(m * c for m, c in ms.items()) == -(kappa(mu1) - kappa(mu2)) // 2
    flipped = pair_multiset(mu2, mu1)
    assert flipped == {-m: c for m, c in ms.items()}


def test_arm_leg_multiset_is_the_row_pair_multiset():
    # the paper's lemma: Nekrasov's factor by arm and leg lengths has the
    # exponent multiset of the vertex side's double sum over row pairs
    pairs = tuple_sweep(2, 8)
    assert len(pairs) == 434
    for mu, nu in pairs:
        assert nekrasov_multiset(mu, nu) == pair_multiset(mu, nu)


def test_diagonal_gauge_block_is_the_signed_hook_block():
    # sinh is odd, so N_{mu mu} is (-1)**|mu| times the inverse hook squares
    for mu in all_partitions(4):
        want = LaurentFraction.one()
        for h in hooks(mu):
            want = want * sinh_factor(h, ()) ** -2
        assert gauge_block(mu, mu, ()) == want.scale((-1) ** weight(mu))
