"""Schur functions: expansion coefficients and principal specializations.

Two kinds of objects live here.  Polynomial-valued Schur and skew Schur
functions in finitely many letters (MultiPoly) back the Cauchy-type series
verifications and serve as independent oracles.  Fraction-valued principal
specializations (LaurentFraction in the half-power variable t) feed the
amplitude layer; the key evaluation is schur_at_mu_rho, the Schur function
at the shifted geometric alphabet attached to a background partition.
"""

from __future__ import annotations

from collections import Counter

from .partitions import (all_partitions, conjugate, contains, hooks, kappa,
                         normalize, subpartitions, weight)
from .prodred import bracket
from .series import LaurentFraction, LaurentPoly, MultiPoly, memo

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
    lam = normalize(lam)
    eta = normalize(eta)
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
    lam = normalize(lam)
    eta = normalize(eta)
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


def skew_schur_poly(lam, eta, nvars: int, trunc: int, first_axis: int, nletters: int) -> MultiPoly:
    """Skew Schur polynomial in letters occupying a window of ring axes."""
    deg = weight(lam) - weight(eta)
    if deg > trunc:
        return MultiPoly.zero(nvars, trunc)
    acc: Counter = Counter()
    for wvec, mult in _ssyt_weights(lam, eta, nletters).items():
        key = [0] * nvars
        for i, e in enumerate(wvec):
            key[first_axis + i] = e
        acc[tuple(key)] += mult
    return MultiPoly(nvars, trunc, acc)


def schur_poly(mu, nvars: int, trunc: int, first_axis: int, nletters: int) -> MultiPoly:
    return skew_schur_poly(mu, (), nvars, trunc, first_axis, nletters)


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
    mu = normalize(mu)
    out = LaurentFraction.monomial((-1) ** weight(mu), (-kappa(mu) // 2,))
    for h in hooks(mu):
        out = out * bracket(h) ** -1
    return out


@memo(_PSK_CACHE)
def principal_skew(lam, eta) -> LaurentFraction:
    lam = normalize(lam)
    eta = normalize(eta)
    out = LaurentFraction.zero()
    for nu, c in lr_coeffs(lam, eta).items():
        out = out + principal_schur(nu).scale(c)
    return out


@memo(_SAT_CACHE)
def schur_at_mu_rho(nu, mu) -> LaurentFraction:
    """Schur function of nu at the alphabet q^(mu_i - i + 1/2), i = 1, 2, ...

    Computed through the skew principal expansion
        (-1)^|nu| t^kappa(nu) * sum_eta ps(mu/eta) ps(nu/eta) / ps(mu)
    with eta running over shapes contained in both arguments.
    """
    nu = normalize(nu)
    mu = normalize(mu)
    acc = LaurentFraction.zero()
    for eta in subpartitions(mu if weight(mu) <= weight(nu) else nu):
        if not (contains(eta, mu) and contains(eta, nu)):
            continue
        term = principal_skew(mu, eta) * principal_skew(nu, eta)
        if not term.is_zero():
            acc = acc + term
    out = acc * principal_schur(mu).inv()
    return out.scale((-1) ** weight(nu)).shift((kappa(nu),))


@memo(_SKAT_CACHE)
def skew_at_mu_rho(lam, eta, mu) -> LaurentFraction:
    """Skew analogue of schur_at_mu_rho via the straight-shape expansion."""
    lam = normalize(lam)
    eta = normalize(eta)
    mu = normalize(mu)
    out = LaurentFraction.zero()
    for nu, c in lr_coeffs(lam, eta).items():
        out = out + schur_at_mu_rho(nu, mu).scale(c)
    return out


def verify_principal_against_finite(mu, deg: int) -> bool:
    """Cross-check the closed principal form against explicit tableaux."""
    mu = normalize(mu)
    n = (deg + weight(mu)) // 2 + 2
    closed = principal_schur(mu).expand_at_zero(deg)
    finite = {e[0] if e else 0: c for e, c in principal_schur_finite(mu, n).d.items() if (e[0] if e else 0) <= deg}
    return closed == finite


def verify_schur_at_empty(nu) -> bool:
    """Three routes to the same value at the empty background."""
    a = schur_at_mu_rho(nu, ())
    b = principal_schur(nu).invert_vars()
    if not (a == b):
        return False
    w = LaurentFraction.monomial(1, (kappa(nu) // 2,))
    for h in hooks(normalize(nu)):
        w = w * bracket(h) ** -1
    return a == w


def verify_schur_at_conjugation(nu, mu) -> bool:
    """Inverting t matches transposing both partitions, up to (-1)^|nu|."""
    sign = (-1) ** weight(normalize(nu))
    return schur_at_mu_rho(nu, mu).invert_vars() == schur_at_mu_rho(conjugate(nu), conjugate(mu)).scale(sign)


def verify_skew_duality(lam, eta) -> bool:
    """Principal skew at 1/t equals the transposed skew up to sign."""
    sign = (-1) ** (weight(lam) - weight(eta))
    return principal_skew(lam, eta).invert_vars() == principal_skew(conjugate(lam), conjugate(eta)).scale(sign)


def verify_skew_cauchy(mu, nu, nx: int, ny: int, trunc: int) -> bool:
    """Skew Cauchy identity on finite alphabets, truncated by total degree.

    sum_lam s_{lam/mu}(x) s_{lam/nu}(y)
        = prod_{i,j} (1 - x_i y_j)^(-1) * sum_tau s_{nu/tau}(x) s_{mu/tau}(y)
    """
    mu = normalize(mu)
    nu = normalize(nu)
    nvars = nx + ny
    wmax = max(weight(mu), weight(nu)) + trunc
    lhs = MultiPoly.zero(nvars, trunc)
    for lam in all_partitions(wmax):
        wl = weight(lam)
        if 2 * wl - weight(mu) - weight(nu) > trunc:
            continue
        if not (contains(mu, lam) and contains(nu, lam)):
            continue
        a = skew_schur_poly(lam, mu, nvars, trunc, 0, nx)
        if not a.d:
            continue
        b = skew_schur_poly(lam, nu, nvars, trunc, nx, ny)
        if not b.d:
            continue
        lhs = lhs + a * b
    kern = MultiPoly.one(nvars, trunc)
    for i in range(nx):
        for j in range(ny):
            xy = MultiPoly(nvars, trunc, {tuple(1 if a in (i, nx + j) else 0 for a in range(nvars)): 1})
            kern = kern * xy.geometric()
    rhs = MultiPoly.zero(nvars, trunc)
    for tau in subpartitions(mu if weight(mu) <= weight(nu) else nu):
        if not (contains(tau, mu) and contains(tau, nu)):
            continue
        a = skew_schur_poly(nu, tau, nvars, trunc, 0, nx)
        b = skew_schur_poly(mu, tau, nvars, trunc, nx, ny)
        rhs = rhs + a * b
    return lhs == kern * rhs


def verify_chain_sum(nlegs: int, nletters: int, trunc: int) -> bool:
    """Chain gluing identity for a row of nlegs skew Cauchy kernels.

    LHS: sum over partition tuples (nu^1..nu^N) weighted by Q_k^|nu^k|, with
    adjacent tuples glued through a shared skew shape.  RHS: the product of
    (1 - Q_k...Q_{l-1} x^k y^{l-1})^(-1) kernels over 1 <= k < l <= N+1.
    """
    n = nletters
    nq = nlegs
    nvars = 2 * nlegs * n + nq

    def xaxis(k: int, i: int) -> int:
        return (k - 1) * n + i

    def yaxis(k: int, i: int) -> int:
        return nlegs * n + (k - 1) * n + i

    shapes = [p for p in all_partitions(trunc) if len(p) <= n]
    lhs = MultiPoly.zero(nvars, trunc)

    def rec(idx: int, chain: list, acc: MultiPoly):
        nonlocal lhs
        if idx > nlegs:
            lhs = lhs + acc * skew_schur_poly(chain[-1], (), nvars, trunc, yaxis(nlegs, 0), n)
            return
        for nu in shapes:
            key = [0] * nvars
            key[2 * nlegs * n + (idx - 1)] = weight(nu)
            qpart = MultiPoly(nvars, trunc, {tuple(key): 1})
            if idx == 1:
                head = schur_poly(nu, nvars, trunc, xaxis(1, 0), n)
                if head.d:
                    rec(2, [nu], acc * qpart * head)
            else:
                prev = chain[-1]
                link = MultiPoly.zero(nvars, trunc)
                for eta in subpartitions(prev if weight(prev) <= weight(nu) else nu):
                    if not (contains(eta, prev) and contains(eta, nu)):
                        continue
                    a = skew_schur_poly(prev, eta, nvars, trunc, yaxis(idx - 1, 0), n)
                    b = skew_schur_poly(nu, eta, nvars, trunc, xaxis(idx, 0), n)
                    link = link + a * b
                if link.d:
                    rec(idx + 1, chain + [nu], acc * qpart * link)

    rec(1, [], MultiPoly.one(nvars, trunc))

    rhs = MultiPoly.one(nvars, trunc)
    for k in range(1, nlegs + 1):
        for l in range(k + 1, nlegs + 2):
            for i in range(n):
                for j in range(n):
                    key = [0] * nvars
                    for a in range(k, l):
                        key[2 * nlegs * n + (a - 1)] = 1
                    key[xaxis(k, i)] += 1
                    key[yaxis(l - 1, j)] += 1
                    rhs = rhs * MultiPoly(nvars, trunc, {tuple(key): 1}).geometric()
    return lhs == rhs
