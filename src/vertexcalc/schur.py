"""Schur functions: expansion coefficients and principal specializations.

Two kinds of objects live here.  Polynomial-valued Schur and skew Schur
functions in finitely many letters back the Cauchy-type series
verifications and serve as independent oracles; those checks run on a
one-axis MultiQSeries whose variable z counts total degree (each letter
x becomes z*x), so the box cuts at a total degree and the z^d coefficient
is a LaurentPoly in the letters.  Fraction-valued principal
specializations (LaurentFraction in the half-power variable t) feed the
amplitude layer; the key evaluation is schur_at_mu_rho, the Schur function
at the shifted geometric alphabet attached to a background partition.
"""

from __future__ import annotations

from collections import Counter

from .partitions import (all_partitions, conjugate, contains, hooks, kappa, subpartitions,
                         weight)
from .prodred import bracket
from .series import LaurentFraction, LaurentPoly, MultiQSeries, memo, same

_LR_CACHE: dict = {}
_SSYT_CACHE: dict = {}
_PS_CACHE: dict = {}
_PSK_CACHE: dict = {}
_SAT_CACHE: dict = {}
_SKAT_CACHE: dict = {}


@memo(_LR_CACHE)
def lr_coeffs(lam, eta) -> dict:
    """Expansion of the skew Schur function of lam/eta into straight shapes.

    Returns {nu: coefficient}; counts lattice skew tableaux by content.
    """
    if not contains(eta, lam):
        return {}
    if lam == eta:
        return {(): 1}
    pad = eta + (0,) * (len(lam) - len(eta))
    cells = []
    for r, top in enumerate(lam):
        for c in range(top - 1, pad[r] - 1, -1):
            cells.append((r, c))
    nrows = len(lam)
    grid: dict = {}
    cnt = [0] * (nrows + 2)
    out: Counter = Counter()

    def place(idx: int):
        if idx == len(cells):
            nu = tuple(cnt[1:nrows + 1])
            while nu and nu[-1] == 0:
                nu = nu[:-1]
            out[nu] += 1
            return
        r, c = cells[idx]
        lo = 1
        if r > 0 and c >= pad[r - 1]:
            lo = grid[(r - 1, c)] + 1
        hi = r + 1
        if c + 1 < lam[r]:
            hi = min(hi, grid[(r, c + 1)])
        for v in range(lo, hi + 1):
            if v == 1 or cnt[v - 1] > cnt[v]:
                grid[(r, c)] = v
                cnt[v] += 1
                place(idx + 1)
                cnt[v] -= 1

    place(0)
    return dict(out)


@memo(_SSYT_CACHE)
def _ssyt_weights(lam, eta, nletters: int) -> dict:
    """Content vectors of the semistandard fillings of lam/eta, with counts."""
    if not contains(eta, lam):
        return {}
    pad = eta + (0,) * (len(lam) - len(eta))
    cells = []
    for r, top in enumerate(lam):
        for c in range(pad[r], top):
            cells.append((r, c))
    grid: dict = {}
    wvec = [0] * (nletters + 1)
    out: Counter = Counter()

    def place(idx: int):
        if idx == len(cells):
            out[tuple(wvec[1:])] += 1
            return
        r, c = cells[idx]
        lo = 1
        if c > pad[r]:
            lo = grid[(r, c - 1)]
        if r > 0 and pad[r - 1] <= c < lam[r - 1]:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, nletters + 1):
            grid[(r, c)] = v
            wvec[v] += 1
            place(idx + 1)
            wvec[v] -= 1

    place(0)
    return dict(out)


def skew_schur_poly(lam, eta, trunc: int, first_axis: int, nletters: int) -> MultiQSeries:
    """Skew Schur polynomial in nletters letters on the axes from first_axis on.

    A series graded by total degree: its one term sits at |lam| - |eta|,
    and it is empty above trunc or when eta does not fit in lam.
    """
    deg = weight(lam) - weight(eta)
    if not 0 <= deg <= trunc:
        return MultiQSeries((trunc,))
    acc: Counter = Counter()
    for wvec, mult in _ssyt_weights(lam, eta, nletters).items():
        acc[(0,) * first_axis + wvec] += mult
    return MultiQSeries((trunc,), {(deg,): LaurentPoly(acc)})


def schur_poly(mu, trunc: int, first_axis: int, nletters: int) -> MultiQSeries:
    return skew_schur_poly(mu, (), trunc, first_axis, nletters)


def _geometric(key, trunc: int) -> MultiQSeries:
    """1/(1 - x^key) graded by total degree, cut above trunc; key is not zero."""
    d = sum(key)
    return MultiQSeries((trunc,), {(j * d,): LaurentPoly.term(1, [j * e for e in key])
                                   for j in range(trunc // d + 1)})


def _flat(s: MultiQSeries) -> LaurentPoly:
    """A degree-graded series as one polynomial in its letters, so that a
    mismatch names one monomial."""
    return LaurentFraction.sum(s.c.values()).as_poly()


def principal_schur_finite(mu, n: int) -> LaurentPoly:
    """Schur function at the finite odd-power alphabet t, t^3, ..., t^(2n-1)."""
    out: dict = {}
    for wvec, mult in _ssyt_weights(mu, (), n).items():
        e = sum(c * (2 * v + 1) for v, c in enumerate(wvec))
        out[(e,)] = out.get((e,), 0) + mult
    return LaurentPoly(out)


@memo(_PS_CACHE)
def principal_schur(mu) -> LaurentFraction:
    """Closed form of the stable principal specialization.

    Equals (-1)^|mu| t^(-kappa/2) / prod_hooks (t^h - t^-h); positive
    series in t, lowest term t^|mu| times higher order.
    """
    out = LaurentFraction.monomial((-1) ** weight(mu), (-kappa(mu) // 2,))
    for h in hooks(mu):
        out = out * bracket(h) ** -1
    return out


@memo(_PSK_CACHE)
def principal_skew(lam, eta) -> LaurentFraction:
    return LaurentFraction.sum(principal_schur(nu).scale(c)
                               for nu, c in lr_coeffs(lam, eta).items())


@memo(_SAT_CACHE)
def schur_at_mu_rho(nu, mu) -> LaurentFraction:
    """Schur function of nu at the alphabet q^(mu_i - i + 1/2), i = 1, 2, ...

    Computed through the skew principal expansion
        (-1)^|nu| t^kappa(nu) * sum_eta ps(mu/eta) ps(nu/eta) / ps(mu)
    with eta running over shapes contained in both arguments.
    """
    acc = LaurentFraction.sum(principal_skew(mu, eta) * principal_skew(nu, eta)
                              for eta in subpartitions(mu if weight(mu) <= weight(nu) else nu)
                              if contains(eta, mu) and contains(eta, nu))
    out = acc * principal_schur(mu).inv()
    return out.scale((-1) ** weight(nu)).shift((kappa(nu),))


@memo(_SKAT_CACHE)
def skew_at_mu_rho(lam, eta, mu) -> LaurentFraction:
    """Skew analogue of schur_at_mu_rho via the straight-shape expansion."""
    return LaurentFraction.sum(schur_at_mu_rho(nu, mu).scale(c)
                               for nu, c in lr_coeffs(lam, eta).items())


def verify_principal_against_finite(mu, deg: int) -> bool:
    """Cross-check the closed principal form against explicit tableaux."""
    n = (deg + weight(mu)) // 2 + 2
    closed = principal_schur(mu).expand_at_zero(deg)
    finite = {e[0] if e else 0: c for e, c in principal_schur_finite(mu, n).d.items() if (e[0] if e else 0) <= deg}
    return same(closed, finite)


def verify_schur_at_empty(nu) -> bool:
    """Three routes to the same value at the empty background."""
    a = schur_at_mu_rho(nu, ())
    b = principal_schur(nu).invert_vars()
    same(a, b)
    w = LaurentFraction.monomial(1, (kappa(nu) // 2,))
    for h in hooks(nu):
        w = w * bracket(h) ** -1
    return same(a, w)


def verify_schur_at_conjugation(nu, mu) -> bool:
    """Inverting t matches transposing both partitions, up to (-1)^|nu|."""
    sign = (-1) ** weight(nu)
    return same(schur_at_mu_rho(nu, mu).invert_vars(),
                schur_at_mu_rho(conjugate(nu), conjugate(mu)).scale(sign))


def verify_skew_duality(lam, eta) -> bool:
    """Principal skew at 1/t equals the transposed skew up to sign."""
    sign = (-1) ** (weight(lam) - weight(eta))
    return same(principal_skew(lam, eta).invert_vars(),
                principal_skew(conjugate(lam), conjugate(eta)).scale(sign))


def verify_skew_cauchy(mu, nu, nx: int, ny: int, trunc: int) -> bool:
    """Skew Cauchy identity on finite alphabets, truncated by total degree.

    sum_lam s_{lam/mu}(x) s_{lam/nu}(y)
        = prod_{i,j} (1 - x_i y_j)^(-1) * sum_tau s_{nu/tau}(x) s_{mu/tau}(y)
    """
    wmax = max(weight(mu), weight(nu)) + trunc
    lhs = MultiQSeries((trunc,))
    for lam in all_partitions(wmax):
        wl = weight(lam)
        if 2 * wl - weight(mu) - weight(nu) > trunc:
            continue
        if not (contains(mu, lam) and contains(nu, lam)):
            continue
        a = skew_schur_poly(lam, mu, trunc, 0, nx)
        if not a.c:
            continue
        b = skew_schur_poly(lam, nu, trunc, nx, ny)
        if not b.c:
            continue
        lhs = lhs + a * b
    kern = MultiQSeries.one((trunc,))
    for i in range(nx):
        for j in range(ny):
            kern = kern * _geometric([1 if a in (i, nx + j) else 0 for a in range(nx + ny)], trunc)
    rhs = MultiQSeries((trunc,))
    for tau in subpartitions(mu if weight(mu) <= weight(nu) else nu):
        if not (contains(tau, mu) and contains(tau, nu)):
            continue
        a = skew_schur_poly(nu, tau, trunc, 0, nx)
        b = skew_schur_poly(mu, tau, trunc, nx, ny)
        rhs = rhs + a * b
    return same(_flat(lhs), _flat(kern * rhs))


def verify_chain_sum(nlegs: int, nletters: int, trunc: int) -> bool:
    """Chain gluing identity for a row of nlegs skew Cauchy kernels.

    LHS: sum over partition tuples (nu^1..nu^N) weighted by Q_k^|nu^k|, with
    adjacent tuples glued through a shared skew shape.  RHS: the product of
    (1 - Q_k...Q_{l-1} x^k y^{l-1})^(-1) kernels over 1 <= k < l <= N+1.
    """
    n = nletters
    nvars = 2 * nlegs * n + nlegs

    def xaxis(k: int, i: int) -> int:
        return (k - 1) * n + i

    def yaxis(k: int, i: int) -> int:
        return nlegs * n + (k - 1) * n + i

    def qaxis(k: int) -> int:
        return 2 * nlegs * n + k - 1

    shapes = [p for p in all_partitions(trunc) if len(p) <= n]
    lhs = MultiQSeries((trunc,))

    def rec(idx: int, chain: list, acc: MultiQSeries):
        nonlocal lhs
        if idx > nlegs:
            lhs = lhs + acc * skew_schur_poly(chain[-1], (), trunc, yaxis(nlegs, 0), n)
            return
        for nu in shapes:
            w = weight(nu)
            qpart = MultiQSeries((trunc,), {(w,): LaurentPoly.var(qaxis(idx), w)})
            if idx == 1:
                head = schur_poly(nu, trunc, xaxis(1, 0), n)
                if head.c:
                    rec(2, [nu], acc * qpart * head)
            else:
                prev = chain[-1]
                link = MultiQSeries((trunc,))
                for eta in subpartitions(prev if weight(prev) <= weight(nu) else nu):
                    if not (contains(eta, prev) and contains(eta, nu)):
                        continue
                    a = skew_schur_poly(prev, eta, trunc, yaxis(idx - 1, 0), n)
                    b = skew_schur_poly(nu, eta, trunc, xaxis(idx, 0), n)
                    link = link + a * b
                if link.c:
                    rec(idx + 1, chain + [nu], acc * qpart * link)

    rec(1, [], MultiQSeries.one((trunc,)))

    rhs = MultiQSeries.one((trunc,))
    for k in range(1, nlegs + 1):
        for l in range(k + 1, nlegs + 2):
            for i in range(n):
                for j in range(n):
                    key = [0] * nvars
                    for a in range(k, l):
                        key[qaxis(a)] = 1
                    key[xaxis(k, i)] += 1
                    key[yaxis(l - 1, j)] += 1
                    rhs = rhs * _geometric(key, trunc)
    return same(_flat(lhs), _flat(rhs))
