import pytest
from hypothesis import given, settings, strategies as st

from vertexcalc.cli import partition_arg
from vertexcalc.nekrasov import pair_layer, tuple_sweep
from vertexcalc.partitions import (all_partitions, common_subpartitions, conjugate, contains,
                                   contents, hooks, kappa,
                                   normalize, partitions_of,
                                   subpartitions, verify_hook_identity, weight)
from vertexcalc.schur import lr_coeffs


@st.composite
def partitions(draw, max_weight=10):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    mu = []
    while n > 0:
        part = draw(st.integers(min_value=1, max_value=n))
        if mu and part > mu[-1]:
            part = mu[-1]
        mu.append(part)
        n -= part
    return tuple(mu)


def test_normalize_rejects_bad_input():
    assert normalize([3, 1, 0, 0]) == (3, 1)
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate(()) == ()


def test_kappa_values():
    # kappa = 2 * sum of contents
    assert kappa(()) == 0
    assert kappa((1,)) == 0
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == -2
    assert kappa((3, 1)) == 4


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_conjugation_laws(mu):
    mc = conjugate(mu)
    assert conjugate(mc) == normalize(mu)
    assert weight(mc) == weight(mu)
    assert kappa(mc) == -kappa(mu)
    assert kappa(mu) % 2 == 0
    assert sorted(hooks(mc)) == sorted(hooks(mu))


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_hook_and_content_sums(mu):
    mu = normalize(mu)
    k = kappa(mu)
    assert 2 * sum(contents(mu)) == k
    assert sum(hooks(mu)) == sum(p * p for p in mu) - k // 2
    assert len(hooks(mu)) == weight(mu)


def test_enumeration_counts():
    counts = [sum(1 for _ in partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert sum(1 for _ in all_partitions(4)) == 1 + 1 + 2 + 3 + 5


def test_enumeration_order_is_descending_lex():
    got = list(partitions_of(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_containment_and_subpartitions():
    assert contains((2, 2), (3, 2))
    assert not contains((1, 1), (3,))
    subs = set(subpartitions((2, 1)))
    assert subs == {(), (1,), (2,), (1, 1), (2, 1)}


def test_common_subpartitions_keep_the_filtered_order():
    # sums over the common shapes depend on this order for their bytes
    parts = list(all_partitions(6))
    for a in parts:
        for b in parts:
            old = [eta for eta in subpartitions(a if weight(a) <= weight(b) else b)
                   if contains(eta, a) and contains(eta, b)]
            assert list(common_subpartitions(a, b)) == old


def _partitions_of_reference(n, max_part=None):
    """The generator partitions_of was before its memo table, kept as the reference."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in _partitions_of_reference(n - first, first):
            yield (first,) + rest


def _subpartitions_reference(mu):
    for n in range(weight(mu) + 1):
        for eta in _partitions_of_reference(n):
            if contains(eta, mu):
                yield eta


def _common_subpartitions_reference(a, b):
    for eta in _subpartitions_reference(a if weight(a) <= weight(b) else b):
        if contains(eta, a) and contains(eta, b):
            yield eta


def test_memoized_sweeps_match_the_generators():
    # each sweep is one stored tuple, in the order the generators yielded
    top = 8
    for n in range(top + 1):
        for m in [None, *range(n + 2)]:
            args = (n,) if m is None else (n, m)
            assert partitions_of(*args) == tuple(_partitions_of_reference(*args))
            assert partitions_of(*args) is partitions_of(*args)
    parts = [mu for n in range(top + 1) for mu in _partitions_of_reference(n)]
    for mu in parts:
        assert subpartitions(mu) == tuple(_subpartitions_reference(mu))
        assert conjugate(mu) == tuple(sum(1 for p in mu if p > j) for j in range(mu[0] if mu else 0))
        assert subpartitions(mu) is subpartitions(mu) and conjugate(mu) is conjugate(mu)
    small = [mu for mu in parts if weight(mu) <= 5]
    for a in small:
        for b in small:
            assert common_subpartitions(a, b) == tuple(_common_subpartitions_reference(a, b))


def test_hook_content_identity_small():
    for w in range(7):
        for mu in partitions_of(w):
            assert verify_hook_identity(mu, 8)


def test_length_weight():
    assert weight((3, 1, 1)) == 5


def canonical(mu) -> bool:
    return type(mu) is tuple and normalize(mu) == mu


def test_partition_sources_yield_canonical_tuples():
    # no layer re-checks its partition arguments, so every place partitions
    # come from must hand out canonical tuples
    top = 8
    parts = list(all_partitions(top))
    assert all(canonical(mu) for n in range(top + 1) for mu in partitions_of(n))
    assert all(canonical(mu) for mu in parts)
    assert all(canonical(mu) for mu in map(conjugate, parts))
    assert all(canonical(eta) for mu in parts for eta in subpartitions(mu))
    lr = lr_coeffs.__wrapped__
    assert all(canonical(nu) for lam in parts for eta in subpartitions(lam)
               for nu in lr(lam, eta))
    for n in (1, 2, 3):
        assert all(canonical(mu) for mus in tuple_sweep(n, top) for mu in mus)
    assert all(canonical(mu) for b in range(top + 1) for pair in pair_layer(b) for mu in pair)
    assert [partition_arg(s) for s in ("1,2", "0", "3,0,1")] == [(2, 1), (), (3, 1)]
    assert all(canonical(partition_arg(s)) for s in ("1,2", "0", "3,0,1"))
