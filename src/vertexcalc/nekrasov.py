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

from .ksum import k00_chain_square, k_brute, ktilde_brute, sun_square_fraction
from .partitions import all_partitions, conjugate, kappa, partitions_of, weight
from .series import LaurentFraction, MultiQSeries, expand_in_q_multi, memo, same

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
    ks = k_brute(mu1, conjugate(mu2), fdeg)
    ks = ks * ks
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


def z_su2_sinh_term(mu1, mu2, m: int) -> LaurentFraction:
    """Sinh normal form of one framed base/fiber term, divided by k00**2.

    Axis 0 is t, axis 1 is the fiber half-power s.  The base variable is
    implicit: the term sits at base degree |mu1| + |mu2|.
    """
    sgn = (-1) ** (m * (weight(mu1) + weight(mu2)))
    four = sun_square_fraction((mu1, mu2), 1).shift((-2 * kappa(mu2),))
    return four.scale(sgn).shift((-m * (kappa(mu1) + kappa(mu2)), 2 * m * weight(mu2)))


def verify_su2(m: int, bdeg: int, fdeg: int) -> bool:
    """Termwise sinh identity, then the graded aggregate."""
    k0sq = k00_chain_square((fdeg,), 2)
    agg = {b: MultiQSeries((fdeg,)) for b in range(bdeg + 1)}
    for mu1, mu2 in tuple_sweep(2, bdeg):
        lhs = _framed_pair_square(mu1, mu2, m, fdeg)
        rhs = k0sq * expand_in_q_multi(z_su2_sinh_term(mu1, mu2, m), (fdeg,))
        same(lhs, rhs)
        b = weight(mu1) + weight(mu2)
        agg[b] = agg[b] + rhs
    z = z_su2(m, bdeg, fdeg)
    for b in range(bdeg + 1):
        zb = MultiQSeries((fdeg,), {(d,): z.get((b, d)) for d in range(fdeg + 1)})
        same(zb, agg[b])
    return True


def verify_fiber_swap(bdeg: int, fdeg: int) -> bool:
    """Transposing the second slot leaves each base-degree layer fixed."""
    for b in range(bdeg + 1):
        plain = MultiQSeries((fdeg,))
        swapped = MultiQSeries((fdeg,))
        for mu1, mu2 in pair_layer(b):
            p = k_brute(mu1, mu2, fdeg)
            s = k_brute(mu1, conjugate(mu2), fdeg)
            plain = plain + p * p
            swapped = swapped + s * s
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
    dims = tuple(dims)
    framing = sun_framing(n, n - 2, mus) * sun_framing(n, 0, mus)
    kt = ktilde_brute(mus, dims)
    lhs = (kt * kt).scale(framing)
    fr = sun_square_fraction(mus, len(dims)) * framing
    rhs = k00_chain_square(dims, n) * expand_in_q_multi(fr, dims)
    return same(lhs, rhs)


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
    lhs = (kt * kt).scale(m0)
    kb = k_brute(mu1, conjugate(mu2), trunc)
    return same(lhs, kb * kb)
