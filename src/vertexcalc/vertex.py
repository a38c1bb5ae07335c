"""Vertex amplitudes with one, two and three partition legs.

All values are Laurent fractions in the half-power variable t = q**(1/2).
Every amplitude has two independently coded routes (hook products against
bracket ratios for one leg, background specialization against skew sums for
two and three legs); the test suite pins the routes against each other and
against the degeneration and symmetry laws.

The definition route w3_def memoizes each glue sum
sum_rho c^lam_{eta rho} w2(leg, rho) on (leg, lam, eta), since one sum
serves every third leg, and divides by w1 of the middle leg in factored
form (LaurentFraction's /), so w1's hook denominator is cancelled against
the glued fraction's factors instead of being expanded and divided back
out.  The skew route w3 uses neither.
"""

from __future__ import annotations

from .partitions import common_subpartitions, conjugate, hooks, kappa, weight
from .prodred import bracket
from .schur import (lr_coeffs, principal_schur, principal_skew, schur_at_mu_rho,
                    skew_at_mu_rho)
from .series import LaurentFraction, memo, same

_W1_CACHE: dict = {}
_W2_CACHE: dict = {}
_W3_CACHE: dict = {}
_GLUE_CACHE: dict = {}


@memo(_W1_CACHE)
def w1(mu) -> LaurentFraction:
    """One-leg amplitude t^(kappa/2) / prod_hooks (t^h - t^-h)."""
    out = LaurentFraction.monomial(1, (kappa(mu) // 2,))
    for h in hooks(mu):
        out = out * bracket(h) ** -1
    return out


def w1_bracket(mu) -> LaurentFraction:
    """Row-difference bracket route to the one-leg amplitude."""
    l = len(mu)
    out = LaurentFraction.monomial(1, (kappa(mu) // 2,))
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            out = out * bracket(mu[i - 1] - mu[j - 1] + j - i) * bracket(j - i) ** -1
    for i in range(1, l + 1):
        for v in range(1, mu[i - 1] + 1):
            out = out * bracket(v - i + l) ** -1
    return out


@memo(_W2_CACHE)
def w2(mu, nu) -> LaurentFraction:
    """Two-leg amplitude: w1(mu) times the specialization of nu at mu's background."""
    return w1(mu) * schur_at_mu_rho(nu, mu)


def w2_skew(mu, nu) -> LaurentFraction:
    """Manifestly symmetric skew-sum route to the two-leg amplitude."""
    acc = LaurentFraction.sum(principal_skew(mu, eta) * principal_skew(nu, eta)
                              for eta in common_subpartitions(mu, nu))
    sign = (-1) ** (weight(mu) + weight(nu))
    return acc.scale(sign).shift((kappa(mu) + kappa(nu),))


@memo(_W3_CACHE)
def w3(mu1, mu2, mu3) -> LaurentFraction:
    """Three-leg amplitude, skew route (the fast production path)."""
    m2t = conjugate(mu2)
    m3t = conjugate(mu3)
    acc = LaurentFraction.sum(skew_at_mu_rho(mu1, eta, m2t) * skew_at_mu_rho(m3t, eta, mu2)
                              for eta in common_subpartitions(mu1, m3t))
    out = acc * principal_schur(m2t)
    return out.scale((-1) ** weight(mu2)).shift((kappa(mu3),))


@memo(_GLUE_CACHE)
def _glue(leg, lam, eta) -> LaurentFraction:
    """sum over rho of c^lam_{eta rho} w2(leg, rho), one side of a w3_def term."""
    return LaurentFraction.sum(w2(leg, rho).scale(c) for rho, c in lr_coeffs(lam, eta).items())


def w3_def(mu1, mu2, mu3) -> LaurentFraction:
    """Definition route: glue two-leg amplitudes along shared shapes."""
    m2t = conjugate(mu2)
    m3t = conjugate(mu3)
    out = LaurentFraction.sum(_glue(m2t, mu1, eta) * _glue(mu2, m3t, eta)
                              for eta in common_subpartitions(mu1, m3t)) / w1(mu2)
    return out.shift((kappa(mu2) + kappa(mu3),))


def verify_w1_routes(mu) -> bool:
    return same(w1(mu), w1_bracket(mu))


def verify_w2_routes(mu, nu) -> bool:
    return same(w2(mu, nu), w2_skew(mu, nu))


def verify_w2_symmetry(mu, nu) -> bool:
    return same(w2(mu, nu), w2(nu, mu))


def verify_w3_routes(mu1, mu2, mu3) -> bool:
    return same(w3(mu1, mu2, mu3), w3_def(mu1, mu2, mu3))


def verify_w3_cyclic(mu1, mu2, mu3) -> bool:
    a = w3(mu1, mu2, mu3)
    same(a, w3(mu2, mu3, mu1))
    return same(a, w3(mu3, mu1, mu2))


def verify_w3_degenerations(mu, nu) -> bool:
    same(w3(mu, nu, ()), w2(mu, conjugate(nu)).shift((kappa(nu),)))
    same(w3(mu, (), nu), w2(conjugate(mu), nu).shift((kappa(mu),)))
    return same(w3((), mu, nu), w2(mu, conjugate(nu)).shift((kappa(nu),)))


def verify_w3_transpose_all(mu1, mu2, mu3) -> bool:
    """Transposing all three legs reverses the order, with a t shift."""
    ks = kappa(mu1) + kappa(mu2) + kappa(mu3)
    lhs = w3(conjugate(mu1), conjugate(mu2), conjugate(mu3))
    return same(lhs, w3(mu3, mu2, mu1).shift((-ks,)))


def verify_w3_inversion(mu1, mu2, mu3) -> bool:
    """Inverting t equals transposing every leg, up to a global sign."""
    sign = (-1) ** (weight(mu1) + weight(mu2) + weight(mu3))
    lhs = w3(mu1, mu2, mu3).invert_vars()
    rhs = w3(conjugate(mu1), conjugate(mu2), conjugate(mu3)).scale(sign)
    return same(lhs, rhs)


def verify_w3_outer_transpose(mu1, mu2, mu3) -> bool:
    """Transposing the outer legs at inverted t reverses their order.

    The monomial factor carries kappa of each outer leg positively and
    kappa of the middle leg negatively.
    """
    sign = (-1) ** (weight(mu1) + weight(mu2) + weight(mu3))
    ke = kappa(mu1) - kappa(mu2) + kappa(mu3)
    lhs = w3(conjugate(mu1), mu2, conjugate(mu3)).invert_vars()
    rhs = w3(conjugate(mu3), mu2, conjugate(mu1)).scale(sign).shift((ke,))
    return same(lhs, rhs)


def verify_w3_reversal(mu1, mu2, mu3) -> bool:
    """Reversing the legs matches evaluation at inverted t with a shift."""
    sign = (-1) ** (weight(mu1) + weight(mu2) + weight(mu3))
    ks = kappa(mu1) + kappa(mu2) + kappa(mu3)
    lhs = w3(mu3, mu2, mu1)
    rhs = w3(mu1, mu2, mu3).invert_vars().scale(sign).shift((ks,))
    return same(lhs, rhs)
