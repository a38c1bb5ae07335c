"""Box-count series attached to partition pairs and partition chains.

k_brute grades the sum of fused two-leg amplitudes by the box count of
the middle partition; the closed routes trade that sum for the pair
coefficient function (exp form) or for the reduced exponent multiset
(factored product form).  The transposed variant admits an exact sinh
normal form on the half-power lattice (s = Q**(1/2), axis 1 and up),
which is what the squared rank-N identities are built from.  The
rank-N sinh side is the gauge route: every block is Nekrasov's pair
factor gauge_block, built from arm and leg lengths
(prodred.nekrasov_multiset), so it shares no combinatorics with the
closed side, which reads the row-pair multiset (prodred.pair_multiset).
The rank-2 sinh side (the squared transposed pair) is its two-slot case,
shifted by t**(-2 kappa(mu2)); it has no builder of its own.

The closed and sinh sides of the rank-N identities factor over pairs of
slots k < l: each pair contributes a one-variable series in the chain
monomial Q_k ... Q_{l-1} (kgen_pair on the closed side, sun_pair_square
on the sinh side), and ray_product places each on its ray of the Q box
and returns their unevaluated series.Product.  kgen_closed is that
Product, so verify_thm_kgen compares it with the brute side by
cross-multiplication, and verify_sun_squares compares Product(kt, kt)
with the sinh side left unevaluated too (sun_square_product: the rays of
sun_pair_square, scaled by _sun_scalar).  The scalar's diagonal hook
factors cancel only after reduction, so the evaluated side reduced every
ray product and the scaling; series._cross_equal multiplies the rays on
ints packed in t (every ray coefficient is a polynomial in t alone over
its factors) and reduces nothing.  sun_square_series is that value, for
the checks that scale or shift it further.  The brute side,
ktilde_brute, sums the chain one link at a time over the partial sums of
chain_links.

Everything here is exact: series coefficients are Laurent fractions in
t, and the sinh-side equalities are fraction equalities, never truncated
comparisons.

The kgen and sun suites sweep the same chains, so the chain pieces are
computed once per process: ktilde_brute and chain_links (brute side),
kgen_pair (closed side), sun_pair_square, k00_square and gauge_block
(sinh side), ray_keys, k_brute_square and k_transposed_rational are
memoized like k_brute, keyed on their raw arguments, so every entry
point takes mus as a tuple of canonical partition tuples and dims as a
tuple; a list reaching a memo table is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .fcoeff import c_coeffs, f_pair
from .partitions import all_partitions, conjugate, kappa, partitions_of, weight
from .prodred import (bracket, nekrasov_multiset, one_minus_qq, pair_multiset,
                      product_over, sinh_factor)
from .series import LaurentFraction, MultiQSeries, Product, expand_in_q_multi, memo, same
from .vertex import w1, w2, w3

_K00_CACHE: dict = {}
_K00_SQUARE_CACHE: dict = {}
_KB_CACHE: dict = {}
_KBSQ_CACHE: dict = {}
_KT_CACHE: dict = {}
_LINK_CACHE: dict = {}
_RAY_CACHE: dict = {}
_KPAIR_CACHE: dict = {}
_SPAIR_CACHE: dict = {}
_GAUGE_CACHE: dict = {}
_KTR_CACHE: dict = {}


@memo(_KB_CACHE)
def k_brute(mu1, mu2, trunc: int) -> MultiQSeries:
    """Sum over the middle partition, graded by its box count."""
    coeffs = {}
    for d in range(trunc + 1):
        coeffs[(d,)] = LaurentFraction.sum(w2(mu1, nu) * w2(nu, mu2) for nu in partitions_of(d))
    return MultiQSeries((trunc,), coeffs)


@memo(_KBSQ_CACHE)
def k_brute_square(mu1, mu2, trunc: int) -> MultiQSeries:
    """k_brute squared: the brute side of every squared pair identity."""
    kb = k_brute(mu1, mu2, trunc)
    return kb * kb


@memo(_K00_CACHE)
def k00_closed(trunc: int) -> MultiQSeries:
    """Empty-pair series: exp of sum_n Q^n / (n (t^n - t^-n)^2)."""
    arg = {}
    for n in range(1, trunc + 1):
        arg[(n,)] = (bracket(n) ** -2).scale(Fraction(1, n))
    return MultiQSeries((trunc,), arg).exp()


@memo(_K00_SQUARE_CACHE)
def k00_square(trunc: int) -> MultiQSeries:
    """k00_closed squared: the k00 factor of every sinh pair series."""
    k0 = k00_closed(trunc)
    return k0 * k0


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


@memo(_KTR_CACHE)
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
    """Squared brute series against the two-slot sinh side."""
    mono = LaurentFraction.monomial(1, (-2 * kappa(mu2),))
    return same(k_brute_square(mu1, conjugate(mu2), trunc),
                sun_square_series((mu1, mu2), (trunc,)).scale(mono))


@memo(_LINK_CACHE)
def chain_links(mus, dims) -> dict:
    """Partial chain sums over the first len(mus) links.

    Maps (the weights of the middle partitions so far, the last of them)
    to the sum, over the earlier middle partitions, of the product of
    the link factors; middle partition j has weight at most dims[j].
    Each call adds one link to the memoized sums of its prefix, so
    chains that share their first slots share those sums.
    """
    if not mus:
        return {((), ()): LaurentFraction.one()}
    parts: dict = {}
    for (ws, last), val in chain_links(mus[:-1], dims[:-1]).items():
        for nu in all_partitions(dims[-1]):
            link = w3(last, mus[-1], conjugate(nu)).shift((kappa(nu),))
            parts.setdefault((ws + (weight(nu),), nu), []).append(val * link)
    return {key: LaurentFraction.sum(ts) for key, ts in parts.items()}


@memo(_KT_CACHE)
def ktilde_brute(mus, dims) -> MultiQSeries:
    """Chain series over middle-partition tuples.

    mus has length N, dims has length N - 1 (one truncation per chain
    variable).  Each tuple contributes the product over the N links of
    t^kappa times the three-leg amplitude with the incoming partition,
    the fixed leg, and the transposed outgoing partition; the last link
    closes the chain on the empty partition.
    """
    if len(dims) != len(mus) - 1:
        raise ValueError("need one truncation per chain variable")
    terms: dict = {}
    for (ws, last), val in chain_links(mus[:-1], dims).items():
        terms.setdefault(ws, []).append(val * w3(last, mus[-1], ()))
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


@memo(_RAY_CACHE)
def ray_keys(dims, k: int, l: int) -> tuple[tuple[int, ...], ...]:
    """Box keys of (Q_k ... Q_{l-1})**j, j = 0 .. min(dims[k-1:l-1]): j on axes k-1 .. l-2."""
    depth = min(dims[k - 1:l - 1])
    return tuple(tuple(j if k - 1 <= i <= l - 2 else 0 for i in range(len(dims)))
                 for j in range(depth + 1))


def ray_product(pair, mus, dims, scalar=None) -> Product:
    """Product over slots k < l of pair(mu_k, mu_l, depth) on the ray Q_k ... Q_{l-1},
    times scalar, unevaluated.

    pair returns a one-variable series truncated at depth, the largest
    power of the chain monomial inside the box.  The rays are the
    Product's factors in slot-pair order, so its value() multiplies them
    one after another and then scales.
    """
    rays = []
    n = len(mus)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            keys = ray_keys(dims, k, l)
            s = pair(mus[k - 1], mus[l - 1], len(keys) - 1)
            rays.append(MultiQSeries._of(dims, {keys[j]: v for (j,), v in s.c.items()}))
    return Product(*(rays or [MultiQSeries.one(dims)]), scalar=scalar)


@memo(_KPAIR_CACHE)
def kgen_pair(mu, nu, depth: int) -> MultiQSeries:
    """Closed pair factor of the chain series in one chain monomial:
    k00 times the expanded reduced product over pair_multiset(mu, nu)."""
    fr = product_over(pair_multiset(mu, nu), one_minus_qq)
    return k00_closed(depth) * expand_in_q_multi(fr, (depth,))


def kgen_closed(mus, dims) -> Product:
    """Closed form of the chain series: the per-slot amplitudes times the
    closed pair factor of every pair of slots on its ray, unevaluated."""
    amp = LaurentFraction.one()
    for mu in mus:
        amp = amp * w1(mu)
    return ray_product(kgen_pair, mus, dims, amp)


def verify_thm_kgen(mus, dims) -> bool:
    return same(ktilde_brute(mus, dims), kgen_closed(mus, dims))


@memo(_GAUGE_CACHE)
def gauge_block(mu, nu, shift) -> LaurentFraction:
    """Nekrasov's pair factor: the sinh product over nekrasov_multiset(mu, nu).

    shift is the fraction exponent key the chain variables enter with,
    trailing zeros trimmed; on the diagonal it is (), and the block is
    (-1)**|mu| times the inverse square of the sinh factors of the hook
    lengths of mu.
    """
    return product_over(nekrasov_multiset(mu, nu), lambda m: sinh_factor(m, shift))


def _sun_scalar(mus) -> LaurentFraction:
    """The Q-free part of the sinh side: the diagonal blocks, the sign
    (-1)**(sum of weights), powers of 2 and t to the kappa ladder."""
    n = len(mus)
    wsum = sum(weight(m) for m in mus)
    fr = LaurentFraction.one()
    for mu in mus:
        fr = fr * gauge_block(mu, mu, ())
    ladder = -sum((n - 2 * k) * kappa(mus[k - 1]) for k in range(1, n + 1))
    return fr.scale(Fraction((-1) ** wsum, 2 ** (2 * n * wsum))).shift((ladder,))


def sun_square_fraction(mus, naxes: int) -> LaurentFraction:
    """Sinh-block fraction whose expansion matches the squared chain series.

    The product over slots k < l of Nekrasov's pair factor of mus[k-1]
    and mus[l-1], shifted by the chain variables k..l-1 and squared,
    times _sun_scalar and negative powers of each chain variable.
    """
    n = len(mus)
    fr = _sun_scalar(mus)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            fr = fr * gauge_block(mus[k - 1], mus[l - 1], _ray_key(k, l, 1)) ** 2
    shift = [0] * (naxes + 1)
    for k in range(1, n):
        ek = ((n - k) * sum(weight(mus[i - 1]) for i in range(1, k + 1))
              + k * sum(weight(mus[i - 1]) for i in range(k + 1, n + 1)))
        shift[k] = -2 * ek
    return fr.shift(tuple(shift))


@memo(_SPAIR_CACHE)
def sun_pair_square(mu, nu, depth: int) -> MultiQSeries:
    """Sinh pair factor of the squared chain series in one chain monomial
    x = s**2: k00 squared times the expanded square of gauge_block(mu, nu)
    over x**(|mu| + |nu|)."""
    blk = (gauge_block(mu, nu, (0, 1)) ** 2).shift((0, -2 * (weight(mu) + weight(nu))))
    return k00_square(depth) * expand_in_q_multi(blk, (depth,))


def sun_square_product(mus, dims) -> Product:
    """The sinh side of the squared chain series, unevaluated: _sun_scalar
    times the sinh pair factor of every pair of slots on its ray."""
    return ray_product(sun_pair_square, mus, dims, _sun_scalar(mus))


def sun_square_series(mus, dims) -> MultiQSeries:
    """The sinh side of the squared chain series, evaluated."""
    return sun_square_product(mus, dims).value()


def verify_sun_squares(mus, dims) -> bool:
    """Squared chain series against the sinh-block normal form, both sides unevaluated."""
    kt = ktilde_brute(mus, dims)
    return same(Product(kt, kt), sun_square_product(mus, dims))
