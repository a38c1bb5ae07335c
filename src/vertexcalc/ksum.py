"""Box-count series attached to partition pairs and partition chains.

k_brute grades the sum of fused two-leg amplitudes by the box count of
the middle partition; the closed routes trade that sum for the pair
coefficient function (exp form) or for the reduced exponent multiset
(factored product form).  The transposed variant admits an exact sinh
normal form on the half-power lattice (s = Q**(1/2), axis 1 and up),
which is what the squared rank-N identities are built from.  The
rank-N sinh side, sun_square_fraction, is the gauge route: every block
is Nekrasov's pair factor gauge_block, built from arm and leg lengths
(prodred.nekrasov_multiset), so it shares no combinatorics with the
closed side, which reads the row-pair multiset (prodred.pair_multiset).
The rank-2 sinh side (the squared transposed pair) is its two-slot case,
shifted by t**(-2 kappa(mu2)); it has no builder of its own.

Everything here is exact: series coefficients are Laurent fractions in
t, and the sinh-side equalities are fraction equalities, never truncated
comparisons.

The kgen and sun suites sweep the same chains, so each chain value is
computed once per process: ktilde_brute (brute side), k00_chain_product
(closed side of kgen), k00_chain_square and gauge_block (sinh side)
are memoized like k_brute, keyed on their raw arguments, so every entry
point takes mus as a tuple of canonical partition tuples and dims as a
tuple; a list reaching a memo table is a TypeError.  The rank-2 sinh sides
take their k00 square from k00_chain_square((trunc,), 2) too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fcoeff import c_coeffs, f_pair
from .partitions import all_partitions, conjugate, kappa, partitions_of, weight
from .prodred import (bracket, nekrasov_multiset, one_minus_qq, pair_multiset,
                      product_over, sinh_factor)
from .series import LaurentFraction, MultiQSeries, expand_in_q_multi, memo, same
from .vertex import w1, w2, w3

_K00_CACHE: dict = {}
_KB_CACHE: dict = {}
_KT_CACHE: dict = {}
_K00P_CACHE: dict = {}
_K00SQ_CACHE: dict = {}
_GAUGE_CACHE: dict = {}


@memo(_KB_CACHE)
def k_brute(mu1, mu2, trunc: int) -> MultiQSeries:
    """Sum over the middle partition, graded by its box count."""
    coeffs = {}
    for d in range(trunc + 1):
        coeffs[(d,)] = LaurentFraction.sum(w2(mu1, nu) * w2(nu, mu2) for nu in partitions_of(d))
    return MultiQSeries((trunc,), coeffs)


@memo(_K00_CACHE)
def k00_closed(trunc: int) -> MultiQSeries:
    """Empty-pair series: exp of sum_n Q^n / (n (t^n - t^-n)^2)."""
    arg = {}
    for n in range(1, trunc + 1):
        arg[(n,)] = (bracket(n) ** -2).scale(Fraction(1, n))
    return MultiQSeries((trunc,), arg).exp()


def k_exp_closed(mu1, mu2, trunc: int) -> MultiQSeries:
    """Closed exp route: k00 * w1 * w1 * exp(sum Q^n f_pair(q^n) / n)."""
    fp = f_pair(mu1, mu2)
    arg = {}
    for n in range(1, trunc + 1):
        arg[(n,)] = LaurentFraction.from_poly(fp.subs_power(n)).scale(Fraction(1, n))
    out = k00_closed(trunc) * MultiQSeries((trunc,), arg).exp()
    return out.scale(w1(mu1) * w1(mu2))


def k_product_closed(mu1, mu2, trunc: int) -> MultiQSeries:
    """Closed product route through the coefficient table of f_pair."""
    exps = {k: -v for k, v in c_coeffs(mu1, mu2).items()}
    fr = product_over(exps, one_minus_qq) * w1(mu1) * w1(mu2)
    return k00_closed(trunc) * expand_in_q_multi(fr, (trunc,))


def verify_thm_k(mu1, mu2, trunc: int) -> bool:
    """Brute, exp and product routes agree coefficientwise."""
    brute = k_brute(mu1, mu2, trunc)
    same(brute, k_exp_closed(mu1, mu2, trunc))
    return same(brute, k_product_closed(mu1, mu2, trunc))


def k_transposed_rational(mu1, mu2) -> LaurentFraction:
    """The transposed-pair series divided by k00, as one exact fraction.

    Axis 0 is t, axis 1 is s with s**2 = Q; the result is always an
    integral Laurent fraction in Q because the multiset multiplicities
    act on binomials 1 - q^m Q.
    """
    fr = w1(mu1) * w1(conjugate(mu2))
    return fr * product_over(pair_multiset(mu1, mu2), one_minus_qq)


def verify_thm_kt(mu1, mu2, trunc: int) -> bool:
    """Series route against the rational form, then the sinh normal form."""
    lhs = k_brute(mu1, conjugate(mu2), trunc)
    rhs = k00_closed(trunc) * expand_in_q_multi(k_transposed_rational(mu1, mu2), (trunc,))
    same(lhs, rhs)
    w = weight(mu1) + weight(mu2)
    ks = (kappa(mu1) - kappa(mu2)) // 2
    pm = pair_multiset(mu1, mu2)
    binom = product_over(pm, one_minus_qq)
    sinh = product_over(pm, sinh_factor).scale(Fraction(1, 2 ** w)).shift((-ks, -w))
    return same(binom, sinh)


def verify_cor_ik2_and_ksinh(mu1, mu2) -> bool:
    """Squared two-block identity, then the full four-block square.

    Both sides are exact fractions.  The off-diagonal blocks enter as
    one squared factor; pairing the two mirrored blocks directly would
    pick up (-1)**(|mu1|+|mu2|) from the odd sinh factors, so the square
    is the well-defined object.
    """
    w = weight(mu1) + weight(mu2)
    kdiff = kappa(mu1) - kappa(mu2)
    pm = pair_multiset(mu1, mu2)
    block = product_over(pm, sinh_factor)
    sq = product_over(pm, one_minus_qq) ** 2
    ik2 = (block ** 2).scale(Fraction(1, 4 ** w)).shift((-kdiff, -2 * w))
    same(sq, ik2)
    four = sun_square_fraction((mu1, mu2), 1).shift((-2 * kappa(mu2),))
    return same(k_transposed_rational(mu1, mu2) ** 2, four)


def verify_ksinh_series(mu1, mu2, trunc: int) -> bool:
    """Squared brute series against the expanded four-block fraction."""
    kb = k_brute(mu1, conjugate(mu2), trunc)
    four = sun_square_fraction((mu1, mu2), 1).shift((-2 * kappa(mu2),))
    return same(kb * kb, k00_chain_square((trunc,), 2) * expand_in_q_multi(four, (trunc,)))


@memo(_KT_CACHE)
def ktilde_brute(mus, dims) -> MultiQSeries:
    """Chain series over middle-partition tuples.

    mus has length N, dims has length N - 1 (one truncation per chain
    variable).  Each tuple contributes the product over the N links of
    t^kappa times the three-leg amplitude with the incoming partition,
    the fixed leg, and the transposed outgoing partition.
    """
    n = len(mus)
    dims = tuple(dims)
    if len(dims) != n - 1:
        raise ValueError("need one truncation per chain variable")
    pools = [list(all_partitions(d)) for d in dims]
    terms: dict = {}
    for nus in itertools.product(*pools):
        chain = ((),) + nus + ((),)
        term = LaurentFraction.one()
        for k in range(1, n + 1):
            nu = chain[k]
            term = term * w3(chain[k - 1], mus[k - 1], conjugate(nu)).shift((kappa(nu),))
        terms.setdefault(tuple(weight(nu) for nu in nus), []).append(term)
    return MultiQSeries(dims, {key: LaurentFraction.sum(ts) for key, ts in terms.items()})


def verify_ktilde_pair_reduction(mu1, mu2, trunc: int) -> bool:
    """Two-link chains collapse to the transposed pair series."""
    kt = ktilde_brute((mu1, mu2), (trunc,))
    mono = LaurentFraction.monomial(1, (kappa(mu2),))
    return same(kt, k_brute(mu1, conjugate(mu2), trunc).scale(mono))


def _ray_key(k: int, l: int, val: int) -> tuple[int, ...]:
    """Fraction exponent key with val on the s axes of chain slots k..l-1.

    Trailing zeros are trimmed, so the key does not depend on the chain
    rank and the empty range k == l gives (): a memo keyed on it shares
    one entry across ranks.
    """
    return (0,) * k + (val,) * (l - k) if k < l else ()


def k00_chain(dims, k: int, l: int) -> MultiQSeries:
    """k00 evaluated at the product of the chain variables k..l-1."""
    dims = tuple(dims)
    depth = min(dims[k - 1:l - 1])
    base = k00_closed(depth)
    cells = {}
    for j in range(depth + 1):
        key = tuple(j if k - 1 <= i <= l - 2 else 0 for i in range(len(dims)))
        cells[key] = base.get((j,))
    return MultiQSeries(dims, cells)


@memo(_K00P_CACHE)
def k00_chain_product(dims, n: int) -> MultiQSeries:
    out = MultiQSeries.one(tuple(dims))
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            out = out * k00_chain(dims, k, l)
    return out


@memo(_K00SQ_CACHE)
def k00_chain_square(dims, n: int) -> MultiQSeries:
    """k00_chain_product squared: the k00 factor of the squared rank-N sides."""
    k0 = k00_chain_product(dims, n)
    return k0 * k0


def kgen_closed(mus, dims) -> MultiQSeries:
    """Closed form of the chain series: k00 chain factors times the
    expanded product of per-slot amplitudes and pairwise reduced products."""
    n = len(mus)
    dims = tuple(dims)
    fr = LaurentFraction.one()
    for mu in mus:
        fr = fr * w1(mu)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            pm = pair_multiset(mus[k - 1], mus[l - 1])
            sh = _ray_key(k, l, 2)
            fr = fr * product_over(pm, lambda m, s=sh: one_minus_qq(m, s))
    return k00_chain_product(dims, n) * expand_in_q_multi(fr, dims)


def verify_thm_kgen(mus, dims) -> bool:
    return same(ktilde_brute(mus, dims), kgen_closed(mus, dims))


@memo(_GAUGE_CACHE)
def gauge_block(mu, nu, shift) -> LaurentFraction:
    """Nekrasov's pair factor: the sinh product over nekrasov_multiset(mu, nu).

    shift is the fraction exponent key the chain variables enter with,
    trailing zeros trimmed; on the diagonal of sun_square_fraction it is
    (), and the block is (-1)**|mu| times the inverse square of the sinh
    factors of the hook lengths of mu.
    """
    return product_over(nekrasov_multiset(mu, nu), lambda m: sinh_factor(m, shift))


def sun_square_fraction(mus, naxes: int) -> LaurentFraction:
    """Sinh-block fraction whose expansion matches the squared chain series.

    The product over slots k <= l of Nekrasov's pair factor of mus[k-1]
    and mus[l-1], shifted by the chain variables k..l-1 and squared off
    the diagonal, times the monomial prefactor: powers of 2, the sign
    (-1)**(sum of weights) of the diagonal blocks, t to the kappa ladder,
    and negative powers of each chain variable.
    """
    n = len(mus)
    wsum = sum(weight(m) for m in mus)
    fr = LaurentFraction.one()
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            blk = gauge_block(mus[k - 1], mus[l - 1], _ray_key(k, l, 1))
            fr = fr * (blk if k == l else blk ** 2)
    shift = [0] * (naxes + 1)
    shift[0] = -sum((n - 2 * k) * kappa(mus[k - 1]) for k in range(1, n + 1))
    for k in range(1, n):
        ek = ((n - k) * sum(weight(mus[i - 1]) for i in range(1, k + 1))
              + k * sum(weight(mus[i - 1]) for i in range(k + 1, n + 1)))
        shift[k] = -2 * ek
    return fr.scale(Fraction((-1) ** wsum, 2 ** (2 * n * wsum))).shift(tuple(shift))


def verify_sun_squares(mus, dims) -> bool:
    """Squared chain series against the sinh-block normal form."""
    kt = ktilde_brute(mus, dims)
    rhs = k00_chain_square(dims, len(mus)) * expand_in_q_multi(
        sun_square_fraction(mus, len(dims)), dims)
    return same(kt * kt, rhs)
