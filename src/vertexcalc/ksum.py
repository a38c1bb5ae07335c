"""Box-count series attached to partition pairs and partition chains.

k_brute grades the sum of fused two-leg amplitudes by the box count of
the middle partition; the closed routes trade that sum for the pair
coefficient function (exp form) or for the reduced exponent multiset
(factored product form).  The transposed variant admits an exact sinh
normal form on the half-power lattice (s = Q**(1/2), axis 1 and up),
which is what the squared rank-N identities are built from.

Everything here is exact: series coefficients are Laurent fractions in
t, and the sinh-side equalities are fraction equalities, never truncated
comparisons.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fcoeff import c_coeffs, f_pair
from .partitions import all_partitions, conjugate, kappa, normalize, partitions_of, weight
from .prodred import (bracket, diag_block_ratio, one_minus_qq, pair_multiset,
                      product_over, sinh_factor)
from .series import (LaurentFraction, MultiQSeries, QSeries, expand_in_q,
                     expand_in_q_multi, memo)
from .vertex import w1, w2, w3

_K00_CACHE: dict = {}
_KB_CACHE: dict = {}


@memo(_KB_CACHE)
def k_brute(mu1, mu2, trunc: int) -> QSeries:
    """Sum over the middle partition, graded by its box count."""
    mu1 = normalize(mu1)
    mu2 = normalize(mu2)
    coeffs = []
    for d in range(trunc + 1):
        acc = LaurentFraction.zero()
        for nu in partitions_of(d):
            acc = acc + w2(mu1, nu) * w2(nu, mu2)
        coeffs.append(acc)
    return QSeries(trunc, coeffs)


@memo(_K00_CACHE)
def k00_closed(trunc: int) -> QSeries:
    """Empty-pair series: exp of sum_n Q^n / (n (t^n - t^-n)^2)."""
    arg = [LaurentFraction.zero()]
    for n in range(1, trunc + 1):
        arg.append((bracket(n) ** -2).scale(Fraction(1, n)))
    return QSeries(trunc, arg).exp()


def k_exp_closed(mu1, mu2, trunc: int) -> QSeries:
    """Closed exp route: k00 * w1 * w1 * exp(sum Q^n f_pair(q^n) / n)."""
    fp = f_pair(mu1, mu2)
    arg = [LaurentFraction.zero()]
    for n in range(1, trunc + 1):
        arg.append(LaurentFraction.from_poly(fp.subs_power(n)).scale(Fraction(1, n)))
    out = k00_closed(trunc) * QSeries(trunc, arg).exp()
    return out.scale(w1(mu1) * w1(mu2))


def k_product_closed(mu1, mu2, trunc: int) -> QSeries:
    """Closed product route through the coefficient table of f_pair."""
    exps = {k: -v for k, v in c_coeffs(mu1, mu2).items()}
    fr = product_over(exps, one_minus_qq) * w1(mu1) * w1(mu2)
    return k00_closed(trunc) * expand_in_q(fr, trunc)


def verify_thm_k(mu1, mu2, trunc: int) -> bool:
    """Brute, exp and product routes agree coefficientwise."""
    brute = k_brute(mu1, mu2, trunc)
    return (brute == k_exp_closed(mu1, mu2, trunc)
            and brute == k_product_closed(mu1, mu2, trunc))


def k_transposed_rational(mu1, mu2) -> LaurentFraction:
    """The transposed-pair series divided by k00, as one exact fraction.

    Axis 0 is t, axis 1 is s with s**2 = Q; the result is always an
    integral Laurent fraction in Q because the multiset multiplicities
    act on binomials 1 - q^m Q.
    """
    fr = w1(mu1) * w1(conjugate(mu2))
    return fr * product_over(pair_multiset(mu1, mu2), one_minus_qq)


def hook_sinh_block(mu) -> LaurentFraction:
    """Diagonal sinh block of one partition in hook form (pure t)."""
    return diag_block_ratio(mu, lambda m: sinh_factor(m, ()))


def verify_thm_kt(mu1, mu2, trunc: int) -> bool:
    """Series route against the rational form, then the sinh normal form."""
    lhs = k_brute(mu1, conjugate(mu2), trunc)
    rhs = k00_closed(trunc) * expand_in_q(k_transposed_rational(mu1, mu2), trunc)
    if not lhs == rhs:
        return False
    w = weight(normalize(mu1)) + weight(normalize(mu2))
    ks = (kappa(normalize(mu1)) - kappa(normalize(mu2))) // 2
    pm = pair_multiset(mu1, mu2)
    binom = product_over(pm, one_minus_qq)
    sinh = product_over(pm, sinh_factor).scale(Fraction(1, 2 ** w)).shift((-ks, -w))
    return binom == sinh


def verify_cor_ik2_and_ksinh(mu1, mu2) -> bool:
    """Squared two-block identity, then the full four-block square.

    Both sides are exact fractions.  The off-diagonal blocks enter as
    one squared factor; pairing the two mirrored blocks directly would
    pick up (-1)**(|mu1|+|mu2|) from the odd sinh factors, so the square
    is the well-defined object.
    """
    mu1 = normalize(mu1)
    mu2 = normalize(mu2)
    w = weight(mu1) + weight(mu2)
    kdiff = kappa(mu1) - kappa(mu2)
    pm = pair_multiset(mu1, mu2)
    block = product_over(pm, sinh_factor)
    sq = product_over(pm, one_minus_qq) ** 2
    ik2 = (block ** 2).scale(Fraction(1, 4 ** w)).shift((-kdiff, -2 * w))
    if not sq == ik2:
        return False
    kt2 = k_transposed_rational(mu1, mu2) ** 2
    four = hook_sinh_block(mu1) * hook_sinh_block(mu2) * block ** 2
    return kt2 == four.scale(Fraction(1, 16 ** w)).shift((0, -2 * w))


def verify_ksinh_series(mu1, mu2, trunc: int) -> bool:
    """Squared brute series against the expanded four-block fraction."""
    mu1 = normalize(mu1)
    mu2 = normalize(mu2)
    w = weight(mu1) + weight(mu2)
    block = product_over(pair_multiset(mu1, mu2), sinh_factor)
    four = hook_sinh_block(mu1) * hook_sinh_block(mu2) * block ** 2
    four = four.scale(Fraction(1, 16 ** w)).shift((0, -2 * w))
    kb = k_brute(mu1, conjugate(mu2), trunc)
    k0 = k00_closed(trunc)
    return kb * kb == (k0 * k0) * expand_in_q(four, trunc)


def ktilde_brute(mus, dims) -> MultiQSeries:
    """Chain series over middle-partition tuples.

    mus has length N, dims has length N - 1 (one truncation per chain
    variable).  Each tuple contributes the product over the N links of
    t^kappa times the three-leg amplitude with the incoming partition,
    the fixed leg, and the transposed outgoing partition.
    """
    mus = [normalize(m) for m in mus]
    n = len(mus)
    dims = tuple(dims)
    if len(dims) != n - 1:
        raise ValueError("need one truncation per chain variable")
    pools = [list(all_partitions(d)) for d in dims]
    cells: dict = {}
    for nus in itertools.product(*pools):
        chain = ((),) + nus + ((),)
        term = LaurentFraction.one()
        for k in range(1, n + 1):
            nu = chain[k]
            term = term * w3(chain[k - 1], mus[k - 1], conjugate(nu)).shift((kappa(nu),))
        key = tuple(weight(nu) for nu in nus)
        prev = cells.get(key)
        cells[key] = term if prev is None else prev + term
    return MultiQSeries(dims, cells)


def verify_ktilde_pair_reduction(mu1, mu2, trunc: int) -> bool:
    """Two-link chains collapse to the transposed pair series."""
    kt = ktilde_brute([mu1, mu2], (trunc,))
    mono = LaurentFraction.monomial(1, (kappa(normalize(mu2)),))
    return kt.to_qseries() == k_brute(mu1, conjugate(mu2), trunc).scale(mono)


def _ray_key(naxes: int, k: int, l: int, val: int) -> tuple[int, ...]:
    """Fraction exponent key with val on the s axes of chain slots k..l-1."""
    key = [0] * (naxes + 1)
    for a in range(k, l):
        key[a] = val
    return tuple(key)


def k00_chain(dims, k: int, l: int) -> MultiQSeries:
    """k00 evaluated at the product of the chain variables k..l-1."""
    dims = tuple(dims)
    depth = min(dims[k - 1:l - 1])
    base = k00_closed(depth)
    cells = {}
    for j in range(depth + 1):
        key = tuple(j if k - 1 <= i <= l - 2 else 0 for i in range(len(dims)))
        cells[key] = base.c[j]
    return MultiQSeries(dims, cells)


def k00_chain_product(dims, n: int) -> MultiQSeries:
    out = MultiQSeries.one(tuple(dims))
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            out = out * k00_chain(dims, k, l)
    return out


def kgen_closed(mus, dims) -> MultiQSeries:
    """Closed form of the chain series: k00 chain factors times the
    expanded product of per-slot amplitudes and pairwise reduced products."""
    mus = [normalize(m) for m in mus]
    n = len(mus)
    dims = tuple(dims)
    fr = LaurentFraction.one()
    for mu in mus:
        fr = fr * w1(mu)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            pm = pair_multiset(mus[k - 1], mus[l - 1])
            sh = _ray_key(len(dims), k, l, 2)
            fr = fr * product_over(pm, lambda m, s=sh: one_minus_qq(m, s))
    return k00_chain_product(dims, n) * expand_in_q_multi(fr, dims)


def verify_thm_kgen(mus, dims) -> bool:
    return ktilde_brute(mus, dims) == kgen_closed(mus, dims)


def sun_square_fraction(mus, naxes: int) -> LaurentFraction:
    """Sinh-block fraction whose expansion matches the squared chain series.

    Carries the monomial prefactor (powers of 2, of t through the kappa
    ladder, and negative powers of each chain variable), the diagonal
    hook blocks, and the squared off-diagonal sinh blocks.
    """
    mus = [normalize(m) for m in mus]
    n = len(mus)
    wsum = sum(weight(m) for m in mus)
    fr = LaurentFraction.one()
    for mu in mus:
        fr = fr * hook_sinh_block(mu)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            pm = pair_multiset(mus[k - 1], mus[l - 1])
            sh = _ray_key(naxes, k, l, 1)
            fr = fr * product_over(pm, lambda m, s=sh: sinh_factor(m, s)) ** 2
    shift = [0] * (naxes + 1)
    shift[0] = -sum((n - 2 * k) * kappa(mus[k - 1]) for k in range(1, n + 1))
    for k in range(1, n):
        ek = ((n - k) * sum(weight(mus[i - 1]) for i in range(1, k + 1))
              + k * sum(weight(mus[i - 1]) for i in range(k + 1, n + 1)))
        shift[k] = -2 * ek
    return fr.scale(Fraction(1, 2 ** (2 * n * wsum))).shift(tuple(shift))


def verify_sun_squares(mus, dims) -> bool:
    """Squared chain series against the sinh-block normal form."""
    dims = tuple(dims)
    n = len(list(mus))
    kt = ktilde_brute(mus, dims)
    k0 = k00_chain_product(dims, n)
    rhs = (k0 * k0) * expand_in_q_multi(sun_square_fraction(mus, len(dims)), dims)
    return kt * kt == rhs
