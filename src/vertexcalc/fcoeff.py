"""Coefficient functions attached to partitions and partition pairs.

f_one collects q**content over the cells of one partition; f_pair couples
two of them.  The Laurent coefficients of f_pair are exactly the exponents
C_k governing box-count product expansions, which is what ties this module
to the pair multisets of prodred.

The two-variable refinement f_pair_2var lives on two half-power axes
(axis 0 is t1, axis 1 is t2, with q_k = t_k**2); identifying the axes
recovers f_pair.  Unlike the one-variable case it is a genuine rational
function, not a Laurent polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import conjugate, contents, kappa, weight
from .prodred import pair_multiset
from .series import LaurentFraction, LaurentPoly, same


def f_one(mu) -> LaurentPoly:
    """Sum of q**content over the cells of mu."""
    out: dict = {}
    for c in contents(mu):
        key = (2 * c,)
        out[key] = out.get(key, 0) + 1
    return LaurentPoly(out)


def f_one_rows(mu) -> LaurentPoly:
    """Row-by-row double sum route to f_one."""
    out: dict = {}
    for i, p in enumerate(mu, start=1):
        for v in range(1, p + 1):
            key = (2 * (v - i),)
            out[key] = out.get(key, 0) + 1
    return LaurentPoly(out)


def _fsum(mu, axis: int) -> LaurentPoly:
    """sum_i q_axis^(mu_i - i) - q_axis^(-i) over the rows of mu (1-based)."""
    out: dict = {}

    def bump(e: int, c: int):
        key = [0] * (axis + 1)
        key[axis] = 2 * e
        k = tuple(key)
        out[k] = out.get(k, 0) + c

    for i, p in enumerate(mu, start=1):
        bump(p - i, 1)
        bump(-i, -1)
    return LaurentPoly(out)


def f_one_closed(mu) -> LaurentFraction:
    """Closed fraction q/(q-1) * sum_i (q^(mu_i - i) - q^(-i))."""
    num = _fsum(mu, 0).shift((2,))
    den = LaurentPoly.var(0, 2) - LaurentPoly.one()
    if num.is_zero():
        return LaurentFraction.zero()
    return LaurentFraction.ratio(num, den)


def f_pair(mu1, mu2) -> LaurentPoly:
    """(q - 2 + 1/q) f1 f2 + f1 + f2 for the pair of content sums."""
    f1 = f_one(mu1)
    f2 = f_one(mu2)
    coupler = LaurentPoly({(2,): 1, (): -2, (-2,): 1})
    return coupler * f1 * f2 + f1 + f2


def c_coeffs(mu1, mu2) -> dict[int, int]:
    """Laurent coefficients of f_pair indexed by the q exponent."""
    out = {}
    for key, v in f_pair(mu1, mu2).d.items():
        e = key[0] if key else 0
        out[e // 2] = v
    return out


def f_row_pair(m: int, n: int) -> LaurentPoly:
    """Closed form of f_pair for two single rows (m, n >= 1)."""
    if m < 1 or n < 1:
        raise ValueError("rows must be nonempty")
    out: dict = {(-2,): 1}
    for j in range(m - 1):
        out[(2 * j,)] = out.get((2 * j,), 0) + 1
    for j in range(n - 1):
        out[(2 * j,)] = out.get((2 * j,), 0) + 1
    key = (2 * (m + n - 1),)
    out[key] = out.get(key, 0) + 1
    return LaurentPoly(out)


def f_pair_2var(mu1, mu2) -> LaurentFraction:
    """Two-variable pair function sqrt(q1 q2) [F1 F2 + F1/(q2-1) + F2/(q1-1)]."""
    f1 = _fsum(mu1, 0)
    f2 = _fsum(mu2, 1)
    q1m1 = LaurentPoly.var(0, 2) - LaurentPoly.one()
    q2m1 = LaurentPoly.var(1, 2) - LaurentPoly.one()
    acc = LaurentFraction.from_poly(f1 * f2)
    if not f1.is_zero():
        acc = acc + LaurentFraction.ratio(f1, q2m1)
    if not f2.is_zero():
        acc = acc + LaurentFraction.ratio(f2, q1m1)
    return acc.shift((1, 1))


def f_pair_2var_transposed(mu1, mu2) -> LaurentFraction:
    """Finite reduction of f_pair_2var(mu1, conjugate(mu2)).

    Uses the reflected row sum G2 = sum_j q2^(j - mu2_j) - q2^j so that the
    second partition enters through its rows rather than its columns:
        -sqrt(q1/q2) [F1 G2 + F1 q2/(1-q2) + G2/(q1-1)].
    """
    f1 = _fsum(mu1, 0)
    g2d: dict = {}
    for j, p in enumerate(mu2, start=1):
        k1 = (0, 2 * (j - p))
        g2d[k1] = g2d.get(k1, 0) + 1
        k2 = (0, 2 * j)
        g2d[k2] = g2d.get(k2, 0) - 1
    g2 = LaurentPoly(g2d)
    q1m1 = LaurentPoly.var(0, 2) - LaurentPoly.one()
    one_m_q2 = LaurentPoly.one() - LaurentPoly.var(1, 2)
    acc = LaurentFraction.from_poly(f1 * g2)
    if not f1.is_zero():
        acc = acc + LaurentFraction.ratio(f1.shift((0, 2)), one_m_q2)
    if not g2.is_zero():
        acc = acc + LaurentFraction.ratio(g2, q1m1)
    return acc.shift((1, -1)).scale(-1)


def verify_pair_conjugation(mu1, mu2) -> bool:
    """Transposing both partitions inverts q."""
    return same(f_pair(conjugate(mu1), conjugate(mu2)), f_pair(mu1, mu2).invert_vars())


def verify_coeff_sums(mu1, mu2) -> bool:
    cs = c_coeffs(mu1, mu2)
    same(sum(cs.values()), weight(mu1) + weight(mu2))
    return same(2 * sum(k * v for k, v in cs.items()), kappa(mu1) + kappa(mu2))


def verify_multiset_rebuild(mu1, mu2) -> bool:
    """f_pair of (mu1, conjugate(mu2)) against the pair multiset, termwise."""
    pm = pair_multiset(mu1, mu2)
    rebuilt = LaurentPoly({(2 * m,): -c for m, c in pm.items()})
    return same(rebuilt, f_pair(mu1, conjugate(mu2)))


def verify_2var_transposed(mu1, mu2) -> bool:
    return same(f_pair_2var_transposed(mu1, mu2), f_pair_2var(mu1, conjugate(mu2)))


def verify_2var_diagonal(mu1, mu2) -> bool:
    return same(f_pair_2var(mu1, mu2).fold_axes(), LaurentFraction.from_poly(f_pair(mu1, mu2)))
