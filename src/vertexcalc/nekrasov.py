"""Gauge partition sums assembled from the box-count series.

The rank-2 sum grades squared transposed-pair series by base degree,
with an optional framing twist.  Every base/fiber term has an exact
sinh-block normal form, checked termwise, so the graded sum inherits
the identity.  The rank-N variant couples the chain series with framing
monomials; its residual prefactor decomposes over the slots, which is
reported rather than postulated.
"""

from __future__ import annotations

from fractions import Fraction

from .ksum import k_brute_square, ktilde_brute, sun_square_product, sun_square_series
from .partitions import all_partitions, conjugate, kappa, partitions_of, weight
from .series import LaurentFraction, MultiQSeries, Product, memo, same

_FPS_CACHE: dict = {}


def pair_layer(total: int):
    """The pairs of tuple_sweep(2, total) whose weight sum is exactly total, in its order."""
    for a in all_partitions(total):
        for b in partitions_of(total - weight(a)):
            yield a, b


def tuple_sweep(n: int, bdeg: int):
    """Ordered partition n-tuples with weight sum at most bdeg."""
    if n == 0:
        return [()]
    out = []
    for head in all_partitions(bdeg):
        for tail in tuple_sweep(n - 1, bdeg - weight(head)):
            out.append((head,) + tail)
    return out


@memo(_FPS_CACHE)
def _framed_pair_square(mu1, mu2, m: int, fdeg: int) -> MultiQSeries:
    """Squared transposed-pair series with the framing twist to power m.

    Memoized: z_su2 and the termwise side of verify_su2 both build it.
    """
    ks = k_brute_square(mu1, conjugate(mu2), fdeg)
    if m:
        w = weight(mu1) + weight(mu2)
        sgn = (-1) ** (m * w)
        tw = LaurentFraction.monomial(sgn, (-m * (kappa(mu1) + kappa(mu2)),))
        ks = ks.scale(tw).shift((m * weight(mu2),))
    return ks


def z_su2(m: int, bdeg: int, fdeg: int) -> MultiQSeries:
    """Rank-2 sum over partition pairs, graded by (base, fiber) degree."""
    terms: dict = {}
    for mu1, mu2 in tuple_sweep(2, bdeg):
        b = weight(mu1) + weight(mu2)
        ks = _framed_pair_square(mu1, mu2, m, fdeg)
        for (d,), val in ks.c.items():
            terms.setdefault((b, d), []).append(val)
    return MultiQSeries((bdeg, fdeg), {key: LaurentFraction.sum(ts) for key, ts in terms.items()})


def verify_su2(m: int, bdeg: int, fdeg: int) -> bool:
    """Termwise sinh identity, then the graded aggregate.

    The sinh side of one term is the two-slot sun_square_series with the
    framing twist: a sign, t**(-2 kappa(mu2) - m (kappa(mu1) + kappa(mu2)))
    and the fiber variable to the power m |mu2|.
    """
    agg: dict = {b: [] for b in range(bdeg + 1)}
    for mu1, mu2 in tuple_sweep(2, bdeg):
        b = weight(mu1) + weight(mu2)
        lhs = _framed_pair_square(mu1, mu2, m, fdeg)
        tw = LaurentFraction.monomial((-1) ** (m * b),
                                      (-2 * kappa(mu2) - m * (kappa(mu1) + kappa(mu2)),))
        rhs = sun_square_series((mu1, mu2), (fdeg,)).scale(tw).shift((m * weight(mu2),))
        same(lhs, rhs)
        agg[b].append(rhs)
    z = z_su2(m, bdeg, fdeg)
    for b in range(bdeg + 1):
        zb = MultiQSeries((fdeg,), {(d,): z.get((b, d)) for d in range(fdeg + 1)})
        same(zb, MultiQSeries.sum((fdeg,), agg[b]))
    return True


def verify_fiber_swap(bdeg: int, fdeg: int) -> bool:
    """Transposing the second slot leaves each base-degree layer fixed."""
    for b in range(bdeg + 1):
        layer = list(pair_layer(b))
        plain = MultiQSeries.sum((fdeg,), (k_brute_square(mu1, mu2, fdeg) for mu1, mu2 in layer))
        swapped = MultiQSeries.sum((fdeg,), (k_brute_square(mu1, conjugate(mu2), fdeg)
                                             for mu1, mu2 in layer))
        same(plain, swapped)
    return True


def sun_framing(n: int, m: int, mus) -> LaurentFraction:
    """Framing monomial of one rank-n tuple at twist m."""
    wsum = sum(weight(mu) for mu in mus)
    sgn = (-1) ** ((n + m) * wsum)
    ke = sum((n + m - 2 * i) * kappa(mus[i - 1]) for i in range(1, n + 1))
    return LaurentFraction.monomial(sgn, (ke,))


def sun_phi_slot(n: int, slot: int) -> LaurentFraction:
    """Per-slot residual monomial at weight one.

    Slot i carries 2**(-2n) with a global sign and the chain variables
    to the powers -(n-k) for k >= i and -k for k < i, all on the
    half-power axes.
    """
    sgn = (-1) ** (3 * n - 2)
    key = [0] * n
    for k in range(1, n):
        c = (n - k) if slot <= k else k
        key[k] = -2 * c
    return LaurentFraction.monomial(Fraction(sgn, 4 ** n), tuple(key))


def sun_residual(n: int, mus) -> LaurentFraction:
    """Monomial left of the squared chain identity after framing."""
    wsum = sum(weight(mu) for mu in mus)
    sgn = (-1) ** ((3 * n - 2) * wsum)
    key = [0] * n
    key[0] = sum((2 * n - 2 - 2 * i) * kappa(mus[i - 1]) for i in range(1, n + 1))
    for k in range(1, n):
        ek = ((n - k) * sum(weight(mus[i - 1]) for i in range(1, k + 1))
              + k * sum(weight(mus[i - 1]) for i in range(k + 1, n + 1)))
        key[k] = -2 * ek
    return LaurentFraction.monomial(Fraction(sgn, 2 ** (2 * n * wsum)), tuple(key))


def sun_tuple_identity(n: int, mus, dims) -> bool:
    """Framed squared chain series of one tuple against its normal form."""
    framing = sun_framing(n, n - 2, mus) * sun_framing(n, 0, mus)
    kt = ktilde_brute(mus, dims)
    sinh = sun_square_product(mus, dims)
    return same(Product(kt, kt, scalar=framing), Product(*sinh.factors, scalar=sinh.scalar * framing))


def sun_phi_model(n: int, mus) -> LaurentFraction:
    """Candidate slot factorization of the residual, to compare with sun_residual.

    The product over slots of the weight-one monomial raised to the slot
    weight, times t to the kappa ladder exponent.
    """
    cand = LaurentFraction.one()
    for i in range(1, n + 1):
        cand = cand * sun_phi_slot(n, i) ** weight(mus[i - 1])
    ke = sum((2 * n - 2 - 2 * i) * kappa(mus[i - 1]) for i in range(1, n + 1))
    return cand.shift((ke,) + (0,) * (n - 1))


def verify_sun_pair_consistency(mu1, mu2, trunc: int) -> bool:
    """At rank 2 the framed chain square is the plain pair square."""
    kt = ktilde_brute((mu1, mu2), (trunc,))
    m0 = LaurentFraction.monomial(1, (-2 * kappa(mu2),))
    return same(Product(kt, kt, scalar=m0), k_brute_square(mu1, conjugate(mu2), trunc))
