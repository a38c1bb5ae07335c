"""Exponent multisets and the product forms built from them.

A reduced product is stored as a map from integer exponents to (usually
negative) multiplicities.  Feeding such a map and a factor constructor to
product_over yields the corresponding rational function.  Two routes
build the multiset of a partition pair: pair_multiset sums over row
pairs, as the vertex side reads it, and nekrasov_multiset reads arm and
leg lengths, as Nekrasov's gauge factor does.  They share no code; their
equality is the combinatorial lemma behind the paper's theorem.  Three
factor families cover everything downstream:

* bracket(m): t^m - t^(-m),
* one_minus_qq(m, shift): 1 - t^(2m) * monomial(shift), the building block
  of box-count expansions,
* sinh_factor(m, shift): (X^(-1) - X)/2 with X = t^m * monomial(shift).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping
from fractions import Fraction

from .partitions import conjugate, contents
from .series import LaurentFraction, LaurentPoly


def bracket(m: int) -> LaurentFraction:
    if m == 0:
        raise ValueError("bracket vanishes at m = 0")
    return LaurentFraction.from_poly(LaurentPoly({(m,): 1, (-m,): -1}))


def one_minus_qq(m: int, shift=(0, 2)) -> LaurentFraction:
    x = LaurentPoly.var(0, 2 * m).shift(shift)
    if x == 1:
        raise ValueError("factor 1 - 1 vanishes")
    return LaurentFraction.from_poly(LaurentPoly.one() - x)


def sinh_factor(m: int, shift=(0, 1)) -> LaurentFraction:
    x = LaurentPoly.var(0, m).shift(shift)
    if x == 1:
        raise ValueError("sinh factor vanishes at m = 0")
    return LaurentFraction.from_poly((x.invert_vars() - x).scale(Fraction(1, 2)))


def product_over(ms: Mapping[int, int], factor: Callable[[int], LaurentFraction]) -> LaurentFraction:
    """Product of factor(m)**mult over the exponent multiset."""
    out = LaurentFraction.one()
    for m in sorted(ms):
        e = ms[m]
        if e:
            out = out * factor(m) ** e
    return out


def single_multiset(mu) -> dict[int, int]:
    """Content exponents of mu, each with multiplicity -1."""
    out = Counter()
    for c in contents(mu):
        out[c] -= 1
    return dict(out)


def pair_multiset(mu1, mu2) -> dict[int, int]:
    """Reduced exponent multiset of a partition pair.

    Combines the finite double sum over row pairs with the two boundary
    corrections; the result always has nonpositive multiplicities with
    total count |mu1| + |mu2|, and collapses to single_multiset(mu1) when
    mu2 is empty.
    """
    l1, l2 = len(mu1), len(mu2)
    out: Counter = Counter()
    for i in range(1, l1 + 1):
        for j in range(1, l2 + 1):
            out[mu1[i - 1] - mu2[j - 1] + j - i] += 1
            out[j - i] -= 1
    for i in range(1, l1 + 1):
        for v in range(1, mu1[i - 1] + 1):
            out[v - i + l2] -= 1
    for j in range(1, l2 + 1):
        for v in range(1, mu2[j - 1] + 1):
            out[-(v - j + l1)] -= 1
    return {m: c for m, c in out.items() if c}


def nekrasov_multiset(mu, nu) -> dict[int, int]:
    """Exponent multiset of Nekrasov's pair factor, by arm and leg lengths.

    With a_mu(i,j) = mu_i - j and l_nu(i,j) = nu'_j - i (negative outside
    nu), each cell s of mu gives a_mu(s) + l_nu(s) + 1 and each cell s of
    nu gives -(a_nu(s) + l_mu(s) + 1), every one with multiplicity -1.
    """
    out: Counter = Counter()
    for rows, cols, sgn in ((mu, conjugate(nu), 1), (nu, conjugate(mu), -1)):
        for i, p in enumerate(rows, 1):
            for j in range(1, p + 1):
                leg = (cols[j - 1] if j <= len(cols) else 0) - i
                out[sgn * (p - j + leg + 1)] -= 1
    return dict(out)


def multiset_json(ms: Mapping[int, int]) -> list[list[int]]:
    return [[m, ms[m]] for m in sorted(ms, reverse=True)]
