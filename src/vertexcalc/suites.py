"""Named verification sweeps at desk scale.

Each suite builder returns an ordered list of checks; the order is the
deterministic enumeration order of the underlying partition sweeps, so
reports are reproducible byte for byte.  Sizes default to the values
the identities are routinely exercised at; --max-weight and the degree
flags override them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import fcoeff, ksum, nekrasov, schur, vertex
from .partitions import (all_partitions, conjugate, contents, hooks, kappa,
                         partitions_of, subpartitions, verify_hook_identity, weight)
from .prodred import bracket, one_minus_qq, pair_multiset, single_multiset, sinh_factor
from .report import Check
from .series import LaurentFraction, Mismatch, MultiQSeries, same


def pstr(mu) -> str:
    return "(" + ",".join(str(p) for p in mu) + ")"


def each(fn, sweep) -> None:
    """Call fn(*args) for every args tuple of sweep, in order.

    A Mismatch is raised again with the failing arguments in front of
    its witness, partitions as pstr shows them: "(1) () (2): at [1]: ...".
    """
    for args in sweep:
        try:
            fn(*args)
        except Mismatch as exc:
            name = " ".join(pstr(a) if isinstance(a, tuple) else str(a) for a in args)
            raise Mismatch(f"{name}: {exc}") from None


def _size(params: dict, key: str, default: int) -> int:
    val = params.get(key)
    return default if val is None else val


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

    def invariants(mu, w):
        mc = conjugate(mu)
        k = kappa(mu)
        same(kappa(mc), -k)
        same(k % 2, 0)
        same(2 * sum(contents(mu)), k)
        hs = hooks(mu)
        same(len(hs), w)
        same(sum(hs), sum(p * p for p in mu) - k // 2)
        same(sorted(hooks(mc)), sorted(hs))

    for w in range(wmax + 1):
        checks.append(Check("partition-invariants", f"weight={w}",
                            lambda w=w: each(invariants, product(partitions_of(w), [w]))))
    for w in range(min(wmax, 8) + 1):
        checks.append(Check("hook-content-identity", f"weight={w} order=8",
                            lambda w=w: each(verify_hook_identity,
                                             product(partitions_of(w), [8]))))
    checks.append(Check("enumeration-count", f"max={wmax}",
                        lambda: same([sum(1 for _ in partitions_of(n)) for n in range(wmax + 1)],
                                     euler_counts(wmax))))
    return checks


def suite_prodred(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 8)
    checks = []

    def normal_form(mu1, mu2, w):
        pm = pair_multiset(mu1, mu2)
        same({m: c for m, c in pm.items() if c >= 0}, {})
        same(-sum(pm.values()), w)
        same(2 * sum(m * c for m, c in pm.items()), -(kappa(mu1) - kappa(mu2)))
        same(pair_multiset(mu2, mu1), {-m: c for m, c in pm.items()})

    for w in range(wmax + 1):
        checks.append(Check("pair-multiset-normal-form", f"total={w}",
                            lambda w=w: each(normal_form,
                                             ((a, b, w) for a, b in nekrasov.pair_layer(w)))))
    checks.append(Check("single-vs-pair-multiset", f"max={min(wmax, 6)}",
                        lambda: each(lambda mu: same(pair_multiset(mu, ()), single_multiset(mu)),
                                     product(all_partitions(min(wmax, 6))))))

    def factor_forms(m):
        same(sinh_factor(m, ()), bracket(m).scale(Fraction(-1, 2)))
        same(one_minus_qq(m), sinh_factor(m).scale(2).shift((m, 1)))

    checks.append(Check("factor-normal-forms", "m=1..4",
                        lambda: each(factor_forms, product(range(1, 5)))))
    return checks


def suite_schur(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 6)
    deg = _size(params, "qdeg", 8)
    checks = []
    for w in range(wmax + 1):
        checks.append(Check("principal-vs-tableaux", f"weight={w} deg={deg}",
                            lambda w=w: each(schur.verify_principal_against_finite,
                                             product(partitions_of(w), [deg]))))

    def lr_laws(lam, eta):
        tab = schur.lr_coeffs(lam, eta)
        same({nu: schur.lr_coeffs(lam, nu).get(eta, 0) for nu in tab}, tab)
        same(schur.lr_coeffs(conjugate(lam), conjugate(eta)),
             {conjugate(nu): c for nu, c in tab.items()})

    for w in range(min(wmax, 5) + 1):
        checks.append(Check("littlewood-richardson-laws", f"weight={w}",
                            lambda w=w: each(lr_laws, ((lam, eta) for lam in partitions_of(w)
                                                       for eta in subpartitions(lam)))))

    def principal_symmetries(mu, w):
        ps = schur.principal_schur(mu)
        same(schur.principal_schur(conjugate(mu)), ps.shift((kappa(mu),)))
        same(ps.invert_vars(), schur.principal_schur(conjugate(mu)).scale((-1) ** w))

    for w in range(min(wmax, 6) + 1):
        checks.append(Check("principal-symmetries", f"weight={w}",
                            lambda w=w: each(principal_symmetries,
                                             product(partitions_of(w), [w]))))
    checks.append(Check("background-evaluations", "nu<=4",
                        lambda: each(schur.verify_schur_at_empty, product(all_partitions(4)))))
    checks.append(Check("background-conjugation", "nu,mu<=3",
                        lambda: each(schur.verify_schur_at_conjugation,
                                     product(all_partitions(3), all_partitions(3)))))
    checks.append(Check("skew-duality", "lam<=4",
                        lambda: each(schur.verify_skew_duality,
                                     ((lam, eta) for lam in all_partitions(4)
                                      for eta in subpartitions(lam)))))
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

    def single_forms(mu):
        direct = fcoeff.f_one(mu)
        same(direct, fcoeff.f_one_rows(mu))
        same(LaurentFraction.from_poly(direct), fcoeff.f_one_closed(mu))

    for w in range(min(wmax, 8) + 1):
        checks.append(Check("single-partition-forms", f"weight={w}",
                            lambda w=w: each(single_forms, product(partitions_of(w)))))
    checks.append(Check("row-pair-closed-form", "m,n<=5",
                        lambda: each(lambda m, n: same(fcoeff.f_row_pair(m, n),
                                                       fcoeff.f_pair((m,), (n,))),
                                     product(range(1, 6), range(1, 6)))))

    def pair_laws(mu1, mu2):
        fcoeff.verify_coeff_sums(mu1, mu2)
        fcoeff.verify_pair_conjugation(mu1, mu2)
        fcoeff.verify_multiset_rebuild(mu1, mu2)
        same({k: c for k, c in fcoeff.c_coeffs(mu1, conjugate(mu2)).items() if c < 0}, {})

    for w in range(wmax + 1):
        checks.append(Check("pair-coefficient-laws", f"total={w}",
                            lambda w=w: each(pair_laws, nekrasov.pair_layer(w))))
    checks.append(Check("two-variable-transpose", "total<=4",
                        lambda: each(fcoeff.verify_2var_transposed, nekrasov.tuple_sweep(2, 4))))
    checks.append(Check("two-variable-diagonal", "total<=4",
                        lambda: each(fcoeff.verify_2var_diagonal, nekrasov.tuple_sweep(2, 4))))
    return checks


def suite_vertex(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 8)
    checks = []
    for w in range(min(wmax, 8) + 1):
        checks.append(Check("one-leg-routes", f"weight={w}",
                            lambda w=w: each(vertex.verify_w1_routes, product(partitions_of(w)))))

    def one_leg_symmetries(mu, w):
        a = vertex.w1(mu)
        same(vertex.w1(conjugate(mu)).shift((kappa(mu),)), a)
        same(a.invert_vars(), a.scale((-1) ** w).shift((-kappa(mu),)))

    for w in range(min(wmax, 4) + 1):
        checks.append(Check("one-leg-symmetries", f"weight={w}",
                            lambda w=w: each(one_leg_symmetries,
                                             product(partitions_of(w), [w]))))

    def two_leg(mu, nu):
        vertex.verify_w2_routes(mu, nu)
        vertex.verify_w2_symmetry(mu, nu)

    for w in range(min(wmax, 5) + 1):
        checks.append(Check("two-leg-routes", f"total={w}",
                            lambda w=w: each(two_leg, nekrasov.pair_layer(w))))
    for mu1 in all_partitions(3):
        checks.append(Check("three-leg-routes", f"mu1={pstr(mu1)} legs<=3",
                            lambda mu1=mu1: each(vertex.verify_w3_routes,
                                                 product([mu1], all_partitions(3),
                                                         all_partitions(3)))))
    checks.append(Check("three-leg-cyclic", "legs<=3",
                        lambda: each(vertex.verify_w3_cyclic, product(all_partitions(3), repeat=3))))
    checks.append(Check("three-leg-degenerations", "legs<=3",
                        lambda: each(vertex.verify_w3_degenerations,
                                     product(all_partitions(3), repeat=2))))

    def trio(a, b, c):
        vertex.verify_w3_transpose_all(a, b, c)
        vertex.verify_w3_inversion(a, b, c)
        vertex.verify_w3_outer_transpose(a, b, c)
        vertex.verify_w3_reversal(a, b, c)

    for w in range(min(wmax, 4) + 1):
        checks.append(Check("three-leg-symmetry-trio", f"total={w}",
                            lambda w=w: each(trio, (
                                (a, b, c) for a, b in nekrasov.tuple_sweep(2, w)
                                for c in partitions_of(w - weight(a) - weight(b))))))
    return checks


def suite_k(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 5)
    qdeg = _size(params, "qdeg", 5)
    checks = [Check("empty-pair-series", f"qdeg={qdeg}",
                    lambda: same(ksum.k_brute((), (), qdeg), ksum.k00_closed(qdeg)))]
    for mu1, mu2 in nekrasov.tuple_sweep(2, min(wmax, 4)):
        checks.append(Check("pair-series-three-routes", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_k(a, b, qdeg)))
    for mu1, mu2 in nekrasov.tuple_sweep(2, wmax):
        checks.append(Check("transposed-pair-rational", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_kt(a, b, qdeg)))
    for mu1, mu2 in nekrasov.tuple_sweep(2, wmax):
        checks.append(Check("squared-sinh-normal-form", f"{pstr(mu1)} {pstr(mu2)}",
                            lambda a=mu1, b=mu2: ksum.verify_cor_ik2_and_ksinh(a, b)))
    for mu1, mu2 in nekrasov.tuple_sweep(2, min(wmax, 4)):
        checks.append(Check("squared-series-expansion", f"{pstr(mu1)} {pstr(mu2)} qdeg={qdeg}",
                            lambda a=mu1, b=mu2: ksum.verify_ksinh_series(a, b, qdeg)))
    return checks


def suite_kgen(params: dict) -> list[Check]:
    wmax = _size(params, "max_weight", 3)
    qdeg = _size(params, "qdeg", 4)
    checks = []
    for mu1 in all_partitions(wmax):
        checks.append(Check("chain-pair-reduction", f"mu1={pstr(mu1)} legs<={wmax} qdeg={qdeg}",
                            lambda a=mu1: each(ksum.verify_ktilde_pair_reduction,
                                               product([a], all_partitions(wmax), [qdeg]))))
    dims2 = (min(qdeg, 3),)
    for mu1, mu2 in nekrasov.tuple_sweep(2, 2):
        checks.append(Check("chain-closed-form", f"{pstr(mu1)} {pstr(mu2)} dims={list(dims2)}",
                            lambda a=mu1, b=mu2: ksum.verify_thm_kgen((a, b), dims2)))
    dims3 = (min(qdeg, 3), min(qdeg, 3))
    w3max = min(wmax, 2)
    for mu1 in all_partitions(w3max):
        checks.append(Check("chain-closed-form-rank3",
                            f"mu1={pstr(mu1)} legs<={w3max} dims={list(dims3)}",
                            lambda a=mu1: each(lambda *mus: ksum.verify_thm_kgen(mus, dims3),
                                               product([a], all_partitions(w3max),
                                                       all_partitions(w3max)))))
    return checks


def suite_sun(params: dict) -> list[Check]:
    qdeg = _size(params, "qdeg", 3)
    wmax = min(_size(params, "max_weight", 2), 3)
    checks = []
    dims2 = (qdeg,)
    for mu1, mu2 in nekrasov.tuple_sweep(2, 2):
        checks.append(Check("squared-chain-rank2", f"{pstr(mu1)} {pstr(mu2)} dims={list(dims2)}",
                            lambda a=mu1, b=mu2: ksum.verify_sun_squares((a, b), dims2)))
    dims3 = (qdeg, qdeg)
    for mu1 in all_partitions(wmax):
        for mu2 in all_partitions(wmax):
            checks.append(Check("squared-chain-rank3",
                                f"{pstr(mu1)} {pstr(mu2)} legs<={wmax} dims={list(dims3)}",
                                lambda a=mu1, b=mu2: each(
                                    lambda *mus: ksum.verify_sun_squares(mus, dims3),
                                    product([a], [b], all_partitions(wmax)))))
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
        sweep = nekrasov.tuple_sweep(n, bdeg)
        same({mus: nekrasov.sun_phi_model(n, mus) for mus in sweep},
             {mus: nekrasov.sun_residual(n, mus) for mus in sweep})
        return "slot decomposition of the residual holds: True"

    checks.append(Check("residual-decomposition-report", f"n={n} bdeg={bdeg}",
                        residual_report))
    for mu1, mu2 in nekrasov.tuple_sweep(2, 2):
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
        k00 = ksum.k00_closed(2)
        same(k00 + MultiQSeries((2,), {(1,): 1}), k00)

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
