"""Named verification sweeps at desk scale.

Each suite builder returns an ordered list of checks; the order is the
deterministic enumeration order of the underlying partition sweeps, so
reports are reproducible byte for byte.  Sizes default to the values
the identities are routinely exercised at; --max-weight and the degree
flags override them.
"""

from __future__ import annotations

from fractions import Fraction

from . import fcoeff, ksum, nekrasov, schur, vertex
from .partitions import (all_partitions, conjugate, contents, hooks, kappa,
                         normalize, partitions_of, subpartitions,
                         verify_hook_identity, weight)
from .prodred import bracket, one_minus_qq, pair_multiset, single_multiset, sinh_factor
from .report import Check
from .series import LaurentFraction, QSeries, fraction_json


def pstr(mu) -> str:
    return "(" + ",".join(str(p) for p in normalize(mu)) + ")"


def _size(params: dict, key: str, default: int) -> int:
    val = params.get(key)
    return default if val is None else val


def _pairs(total: int):
    return nekrasov.pair_sweep(total)


def euler_counts(n: int) -> list[int]:
    """Partition counts from the pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, s, acc = 1, 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            if g1 <= m:
                acc += s * p[m - g1]
            if g2 <= m:
                acc += s * p[m - g2]
            k += 1
            s = -s
        p[m] = acc
    return p


def suite_partitions(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 10)
    checks = []

    def invariants(w):
        for mu in partitions_of(w):
            mc = conjugate(mu)
            k = kappa(mu)
            if kappa(mc) != -k or k % 2:
                return False
            if 2 * sum(contents(mu)) != k:
                return False
            hs = hooks(mu)
            if len(hs) != w or sum(hs) != sum(p * p for p in mu) - k // 2:
                return False
            if sorted(hooks(mc)) != sorted(hs):
                return False
        return True

    for w in range(wmax + 1):
        checks.append(Check("partition-invariants", f"weight={w}",
                            lambda w=w: invariants(w)))
    for w in range(min(wmax, 8) + 1):
        checks.append(Check("hook-content-identity", f"weight={w} order=8",
                            lambda w=w: all(verify_hook_identity(mu, 8)
                                            for mu in partitions_of(w))))
    checks.append(Check("enumeration-count", f"max={wmax}",
                        lambda: [sum(1 for _ in partitions_of(n))
                                 for n in range(wmax + 1)] == euler_counts(wmax)))
    return checks


def suite_prodred(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 8)
    checks = []

    def normal_form(w):
        for mu1, mu2 in _pairs(w):
            if weight(mu1) + weight(mu2) != w:
                continue
            pm = pair_multiset(mu1, mu2)
            if any(c >= 0 for c in pm.values()):
                return False
            if -sum(pm.values()) != w:
                return False
            if 2 * sum(m * c for m, c in pm.items()) != -(kappa(mu1) - kappa(mu2)):
                return False
            swapped = pair_multiset(mu2, mu1)
            if swapped != {-m: c for m, c in pm.items()}:
                return False
        return True

    for w in range(wmax + 1):
        checks.append(Check("pair-multiset-normal-form", f"total={w}",
                            lambda w=w: normal_form(w)))
    checks.append(Check("single-vs-pair-multiset", f"max={min(wmax, 6)}",
                        lambda: all(pair_multiset(mu, ()) == single_multiset(mu)
                                    for mu in all_partitions(min(wmax, 6)))))

    def factor_forms():
        for m in range(1, 5):
            if not sinh_factor(m, ()) == bracket(m).scale(Fraction(-1, 2)):
                return False
            lhs = one_minus_qq(m)
            rhs = sinh_factor(m).scale(2).shift((m, 1))
            if not lhs == rhs:
                return False
        return True

    checks.append(Check("factor-normal-forms", "m=1..4", factor_forms))
    return checks


def suite_schur(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 6)
    deg = _size(params, "qdeg", 8)
    checks = []
    for w in range(wmax + 1):
        checks.append(Check("principal-vs-tableaux", f"weight={w} deg={deg}",
                            lambda w=w: all(schur.verify_principal_against_finite(mu, deg)
                                            for mu in partitions_of(w))))

    def lr_laws(w):
        for lam in partitions_of(w):
            for eta in subpartitions(lam):
                tab = schur.lr_coeffs(lam, eta)
                for nu, c in tab.items():
                    if schur.lr_coeffs(lam, nu).get(eta, 0) != c:
                        return False
                want = {conjugate(nu): c for nu, c in tab.items()}
                if schur.lr_coeffs(conjugate(lam), conjugate(eta)) != want:
                    return False
        return True

    for w in range(min(wmax, 5) + 1):
        checks.append(Check("littlewood-richardson-laws", f"weight={w}",
                            lambda w=w: lr_laws(w)))

    def principal_symmetries(w):
        for mu in partitions_of(w):
            ps = schur.principal_schur(mu)
            if not schur.principal_schur(conjugate(mu)) == ps.shift((kappa(mu),)):
                return False
            sign = (-1) ** w
            if not ps.invert_vars() == schur.principal_schur(conjugate(mu)).scale(sign):
                return False
        return True

    for w in range(min(wmax, 6) + 1):
        checks.append(Check("principal-symmetries", f"weight={w}",
                            lambda w=w: principal_symmetries(w)))
    checks.append(Check("background-evaluations", "nu<=4",
                        lambda: all(schur.verify_schur_at_empty(nu)
                                    for nu in all_partitions(4))))
    checks.append(Check("background-conjugation", "nu,mu<=3",
                        lambda: all(schur.verify_schur_at_conjugation(nu, mu)
                                    for nu in all_partitions(3)
                                    for mu in all_partitions(3))))
    checks.append(Check("skew-duality", "lam<=4",
                        lambda: all(schur.verify_skew_duality(lam, eta)
                                    for lam in all_partitions(4)
                                    for eta in subpartitions(lam))))
    for mu in all_partitions(2):
        for nu in all_partitions(2):
            checks.append(Check("skew-cauchy", f"{pstr(mu)} {pstr(nu)} vars=2+2 order=4",
                                lambda mu=mu, nu=nu: schur.verify_skew_cauchy(mu, nu, 2, 2, 4)))
    for nlegs in (2, 3):
        checks.append(Check("cyclic-chain-sum", f"legs={nlegs} order=4",
                            lambda nlegs=nlegs: schur.verify_chain_sum(nlegs, 1, 4)))
    return checks


def suite_f(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 8)
    checks = []

    def single_forms(w):
        for mu in partitions_of(w):
            direct = fcoeff.f_one(mu)
            if not direct == fcoeff.f_one_rows(mu):
                return False
            if not LaurentFraction.from_poly(direct) == fcoeff.f_one_closed(mu):
                return False
        return True

    for w in range(min(wmax, 8) + 1):
        checks.append(Check("single-partition-forms", f"weight={w}",
                            lambda w=w: single_forms(w)))
    checks.append(Check("row-pair-closed-form", "m,n<=5",
                        lambda: all(fcoeff.f_row_pair(m, n) == fcoeff.f_pair((m,), (n,))
                                    for m in range(1, 6) for n in range(1, 6))))

    def pair_laws(w):
        for mu1, mu2 in _pairs(w):
            if weight(mu1) + weight(mu2) != w:
                continue
            if not fcoeff.verify_coeff_sums(mu1, mu2):
                return False
            if not fcoeff.verify_pair_conjugation(mu1, mu2):
                return False
            if not fcoeff.verify_multiset_rebuild(mu1, mu2):
                return False
            if any(c < 0 for c in fcoeff.c_coeffs(mu1, conjugate(mu2)).values()):
                return False
        return True

    for w in range(wmax + 1):
        checks.append(Check("pair-coefficient-laws", f"total={w}",
                            lambda w=w: pair_laws(w)))
    checks.append(Check("two-variable-transpose", "total<=4",
                        lambda: all(fcoeff.verify_2var_transposed(a, b)
                                    for a, b in _pairs(4))))
    checks.append(Check("two-variable-diagonal", "total<=4",
                        lambda: all(fcoeff.verify_2var_diagonal(a, b)
                                    for a, b in _pairs(4))))
    return checks


def suite_vertex(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 8)
    checks = []
    for w in range(min(wmax, 8) + 1):
        checks.append(Check("one-leg-routes", f"weight={w}",
                            lambda w=w: all(vertex.verify_w1_routes(mu)
                                            for mu in partitions_of(w))))

    def one_leg_symmetries(w):
        for mu in partitions_of(w):
            a = vertex.w1(mu)
            if not vertex.w1(conjugate(mu)).shift((kappa(mu),)) == a:
                return False
            if not a.invert_vars() == a.scale((-1) ** w).shift((-kappa(mu),)):
                return False
        return True

    for w in range(min(wmax, 4) + 1):
        checks.append(Check("one-leg-symmetries", f"weight={w}",
                            lambda w=w: one_leg_symmetries(w)))

    def two_leg(w):
        for mu, nu in _pairs(w):
            if weight(mu) + weight(nu) != w:
                continue
            if not vertex.verify_w2_routes(mu, nu):
                return False
            if not vertex.verify_w2_symmetry(mu, nu):
                return False
        return True

    for w in range(min(wmax, 5) + 1):
        checks.append(Check("two-leg-routes", f"total={w}",
                            lambda w=w: two_leg(w)))
    for mu1 in all_partitions(3):
        checks.append(Check("three-leg-routes", f"mu1={pstr(mu1)} legs<=3",
                            lambda mu1=mu1: all(vertex.verify_w3_routes(mu1, b, c)
                                                for b in all_partitions(3)
                                                for c in all_partitions(3))))
    checks.append(Check("three-leg-cyclic", "legs<=3",
                        lambda: all(vertex.verify_w3_cyclic(a, b, c)
                                    for a in all_partitions(3)
                                    for b in all_partitions(3)
                                    for c in all_partitions(3))))
    checks.append(Check("three-leg-degenerations", "legs<=3",
                        lambda: all(vertex.verify_w3_degenerations(a, b)
                                    for a in all_partitions(3)
                                    for b in all_partitions(3))))

    def trio(w):
        for a in all_partitions(w):
            for b in all_partitions(w - weight(a)):
                for c in all_partitions(w - weight(a) - weight(b)):
                    if weight(a) + weight(b) + weight(c) != w:
                        continue
                    if not vertex.verify_w3_transpose_all(a, b, c):
                        return False
                    if not vertex.verify_w3_inversion(a, b, c):
                        return False
                    if not vertex.verify_w3_outer_transpose(a, b, c):
                        return False
                    if not vertex.verify_w3_reversal(a, b, c):
                        return False
        return True

    for w in range(min(wmax, 4) + 1):
        checks.append(Check("three-leg-symmetry-trio", f"total={w}",
                            lambda w=w: trio(w)))
    return checks


def suite_k(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 5)
    qdeg = _size(params, "qdeg", 5)
    checks = [Check("empty-pair-series", f"qdeg={qdeg}",
                    lambda: ksum.k_brute((), (), qdeg) == ksum.k00_closed(qdeg))]
    for mu1, mu2 in _pairs(min(wmax, 4)):
        checks.append(Check("pair-series-three-routes", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_k(a, b, qdeg)))
    for mu1, mu2 in _pairs(wmax):
        checks.append(Check("transposed-pair-rational", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_kt(a, b, qdeg)))
    for mu1, mu2 in _pairs(wmax):
        checks.append(Check("squared-sinh-normal-form", f"{pstr(mu1)} {pstr(mu2)}",
                            lambda a=mu1, b=mu2: ksum.verify_cor_ik2_and_ksinh(a, b)))
    for mu1, mu2 in _pairs(min(wmax, 4)):
        checks.append(Check("squared-series-expansion", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_ksinh_series(a, b, qdeg)))
    return checks


def suite_kgen(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 3)
    qdeg = _size(params, "qdeg", 4)
    checks = []
    for mu1 in all_partitions(wmax):
        checks.append(Check("chain-pair-reduction", f"mu1={pstr(mu1)} legs<={wmax} qdeg={qdeg}",
                            lambda a=mu1: all(ksum.verify_ktilde_pair_reduction(a, b, qdeg)
                                              for b in all_partitions(wmax))))
    dims2 = (min(qdeg, 3),)
    for mu1, mu2 in _pairs(2):
        checks.append(Check("chain-closed-form", f"{pstr(mu1)} {pstr(mu2)} dims={list(dims2)}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_kgen([a, b], dims2)))
    dims3 = (min(qdeg, 3), min(qdeg, 3))
    w3max = min(wmax, 2)
    for mu1 in all_partitions(w3max):
        checks.append(Check("chain-closed-form-rank3",
                            f"mu1={pstr(mu1)} legs<={w3max} dims={list(dims3)}",
                            lambda a=mu1: all(ksum.verify_thm_kgen([a, b, c], dims3)
                                              for b in all_partitions(w3max)
                                              for c in all_partitions(w3max))))
    return checks


def suite_sun(params: dict) -> list[Check]:
    qdeg = _size(params, "qdeg", 3)
    wmax = min(_size(params, "max_weight", 2), 3)
    checks = []
    dims2 = (qdeg,)
    for mu1, mu2 in _pairs(2):
        checks.append(Check("squared-chain-rank2", f"{pstr(mu1)} {pstr(mu2)} dims={list(dims2)}",
                            lambda a=mu1, b=mu2: ksum.verify_sun_squares([a, b], dims2)))
    dims3 = (qdeg, qdeg)
    for mu1 in all_partitions(wmax):
        for mu2 in all_partitions(wmax):
            checks.append(Check("squared-chain-rank3",
                                f"{pstr(mu1)} {pstr(mu2)} legs<={wmax} dims={list(dims3)}",
                                lambda a=mu1, b=mu2: all(
                                    ksum.verify_sun_squares([a, b, c], dims3)
                                    for c in all_partitions(wmax))))
    return checks


def suite_nekrasov_su2(params: dict) -> list[Check]:
    bdeg = _size(params, "bdeg", 2)
    fdeg = _size(params, "fdeg", 4)
    ms = [params["m"]] if params.get("m") is not None else [0, 1, 2]
    checks = []
    for m in ms:
        checks.append(Check("rank2-termwise-and-aggregate", f"m={m} bdeg={bdeg} fdeg={fdeg}",
                            lambda m=m: nekrasov.verify_su2(m, bdeg, fdeg)))
    checks.append(Check("rank2-transpose-swap", f"bdeg={min(bdeg + 1, 3)} fdeg={fdeg}",
                        lambda: nekrasov.verify_fiber_swap(min(bdeg + 1, 3), fdeg)))
    return checks


def suite_nekrasov_sun(params: dict) -> list[Check]:
    n = _size(params, "n", 3)
    bdeg = _size(params, "bdeg", 1)
    qdeg = _size(params, "qdeg", 2)
    dims = (qdeg,) * (n - 1)
    checks = []
    for mus in nekrasov.tuple_sweep(n, bdeg):
        inst = " ".join(pstr(mu) for mu in mus) + f" dims={list(dims)}"
        checks.append(Check("rank-n-framed-square", inst,
                            lambda mus=mus: nekrasov.sun_tuple_identity(n, mus, dims)))

    def residual_report():
        ok = all(nekrasov.sun_phi_model(n, mus)
                 for mus in nekrasov.tuple_sweep(n, bdeg))
        return True, f"slot decomposition of the residual holds: {ok}"

    checks.append(Check("residual-decomposition-report", f"n={n} bdeg={bdeg}",
                        residual_report))
    for mu1, mu2 in _pairs(2):
        checks.append(Check("rank2-chain-consistency", f"{pstr(mu1)} {pstr(mu2)} qdeg=3",
                            lambda a=mu1, b=mu2: nekrasov.verify_sun_pair_consistency(a, b, 3)))
    return checks


SUITES = {
    "partitions": suite_partitions,
    "prodred": suite_prodred,
    "schur": suite_schur,
    "f": suite_f,
    "vertex": suite_vertex,
    "k": suite_k,
    "kgen": suite_kgen,
    "sun": suite_sun,
    "nekrasov-su2": suite_nekrasov_su2,
    "nekrasov-sun": suite_nekrasov_sun,
}

SUITE_ORDER = list(SUITES)


def injected_failure_check() -> Check:
    def fn():
        true = ksum.k00_closed(2).c[1]
        bad = true + LaurentFraction.one()
        if bad == true:
            return True, None
        return False, (f"perturbed {fraction_json(bad)} vs true {fraction_json(true)}")

    return Check("injected-failure", "empty-pair Q^1 coefficient shifted by 1", fn)


def build_suite(name: str, params: dict, inject_failure: bool = False) -> list[Check]:
    if name == "all":
        checks = []
        for key in SUITE_ORDER:
            checks.extend(SUITES[key](params))
    else:
        checks = SUITES[name](params)
    if inject_failure:
        checks.append(injected_failure_check())
    return checks
