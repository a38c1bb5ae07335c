from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vertexcalc.partitions import conjugate, kappa, partitions_of, weight
from vertexcalc.series import LaurentPoly
from vertexcalc.schur import (lr_coeffs, principal_schur,
                              principal_schur_finite, principal_skew,
                              schur_at_mu_rho, skew_schur_poly, verify_chain_sum,
                              verify_principal_against_finite,
                              verify_schur_at_conjugation,
                              verify_schur_at_empty, verify_skew_cauchy,
                              verify_skew_duality)


@st.composite
def partitions(draw, max_weight=5):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    mu = []
    while n > 0:
        part = draw(st.integers(min_value=1, max_value=n))
        if mu and part > mu[-1]:
            part = mu[-1]
        mu.append(part)
        n -= part
    return tuple(mu)


def test_lr_known_values():
    # s_{(1)} * s_{(1)} = s_{(2)} + s_{(1,1)}, read through the skew side
    assert lr_coeffs((2,), (1,)) == {(1,): 1}
    assert lr_coeffs((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_coeffs((2, 1), ()) == {(2, 1): 1}
    assert lr_coeffs((3, 2, 1), (2, 1)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_lr_empty_and_disjoint():
    assert lr_coeffs((2,), (3,)) == {}
    assert lr_coeffs((), ()) == {(): 1}


@given(partitions(4), partitions(3))
@settings(max_examples=40, deadline=None)
def test_lr_conjugation_symmetry(lam, eta):
    cs = lr_coeffs(lam, eta)
    flipped = lr_coeffs(conjugate(lam), conjugate(eta))
    assert flipped == {conjugate(nu): c for nu, c in cs.items()}


def test_principal_finite_anchor():
    # single box in the three-letter odd-power alphabet: t + t^3 + t^5
    p = principal_schur_finite((1,), 3)
    assert sorted(p.d.items()) == [((1,), 1), ((3,), 1), ((5,), 1)]


def test_principal_closed_form_small():
    for w in range(6):
        for mu in partitions_of(w):
            assert verify_principal_against_finite(mu, 8)


@given(partitions(6))
@settings(max_examples=50, deadline=None)
def test_principal_symmetries(mu):
    ps = principal_schur(mu)
    assert principal_schur(conjugate(mu)) == ps.shift((kappa(mu),))
    sign = Fraction(-1) ** weight(mu)
    assert ps.invert_vars() == principal_schur(conjugate(mu)).scale(sign)


def test_background_evaluations():
    for w in range(4):
        for nu in partitions_of(w):
            assert verify_schur_at_empty(nu)
    assert verify_schur_at_conjugation((2, 1), (1, 1))
    assert verify_schur_at_conjugation((2,), (3, 1))


def test_background_empty_reduces_to_principal():
    # the empty background lives at inverted variables
    for w in range(4):
        for nu in partitions_of(w):
            assert schur_at_mu_rho(nu, ()) == principal_schur(nu).invert_vars()


def test_skew_duality_and_empty_skew():
    for w in range(4):
        for lam in partitions_of(w):
            assert verify_skew_duality(lam, (1,))
            assert principal_skew(lam, ()) == principal_schur(lam)


def test_skew_schur_poly_is_graded_by_total_degree():
    # s_{21/1}(x1, x2) = (x1 + x2)^2, a single term at degree 2
    s = skew_schur_poly((2, 1), (1,), 3, 0, 2)
    assert s.dims == (3,)
    assert s.c.keys() == {(2,)}
    assert s.get((2,)) == LaurentPoly({(2,): 1, (1, 1): 2, (0, 2): 1})
    # the letters start at first_axis
    assert skew_schur_poly((1,), (), 3, 2, 1).get((1,)) == LaurentPoly.var(2)
    # a shape above the cut gives an empty series
    assert not skew_schur_poly((2, 2), (), 3, 0, 2).c


def test_skew_cauchy_small():
    assert verify_skew_cauchy((), (), 2, 2, 4)
    assert verify_skew_cauchy((1,), (), 2, 2, 4)
    assert verify_skew_cauchy((1,), (1,), 2, 2, 4)
    assert verify_skew_cauchy((2,), (1, 1), 2, 2, 3)


def test_chain_sums():
    assert verify_chain_sum(2, 2, 4)
    assert verify_chain_sum(3, 2, 3)
