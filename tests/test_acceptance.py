"""Desk-scale acceptance gate.

Each test covers one numbered criterion, prints exactly one PASS/FAIL
line, and asserts exact equality (tolerance zero) within the stated
time budget.
"""

import itertools
import json
import resource
import subprocess
import sys
import time

from vertexcalc.ksum import (k00_closed, k_brute, verify_cor_ik2_and_ksinh,
                             verify_ksinh_series, verify_ktilde_pair_reduction,
                             verify_sun_squares, verify_thm_k,
                             verify_thm_kgen, verify_thm_kt)
from vertexcalc.nekrasov import (sun_phi_model, sun_residual, sun_tuple_identity, tuple_sweep,
                                 verify_su2)
from vertexcalc.partitions import all_partitions, partitions_of, weight
from vertexcalc.report import run_checks
from vertexcalc.schur import verify_chain_sum, verify_skew_cauchy
from vertexcalc.suites import build_suite


def pairs_up_to(total):
    return [(mu1, mu2)
            for w1 in range(total + 1) for mu1 in partitions_of(w1)
            for w2 in range(total + 1 - w1) for mu2 in partitions_of(w2)]


def run_suite(name):
    checks = build_suite(name, {})
    results = run_checks(checks, 1)
    bad = [r for r in results if r.status != "pass"]
    return len(results), bad


def conclude(number, label, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"{status} criterion {number}: {label} ({detail}, "
          f"{elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget"


def test_criterion_01_partition_calculus():
    t0 = time.time()
    n, bad = run_suite("partitions")
    conclude(1, "partition calculus through weight 10", not bad,
             f"{n} checks, {len(bad)} failed", time.time() - t0, 10)


def test_criterion_02_pair_multiset_normal_form():
    t0 = time.time()
    n, bad = run_suite("prodred")
    conclude(2, "pair multiset normal form through total weight 8", not bad,
             f"{n} checks, {len(bad)} failed", time.time() - t0, 30)


def test_criterion_03_schur_layer():
    t0 = time.time()
    n, bad = run_suite("schur")
    conclude(3, "principal Schur layer and its symmetries", not bad,
             f"{n} checks, {len(bad)} failed", time.time() - t0, 120)


def test_criterion_04_skew_cauchy_and_chains():
    t0 = time.time()
    small = [mu for w in range(3) for mu in partitions_of(w)]
    ok = all(verify_skew_cauchy(mu, nu, 2, 2, 4) for mu in small for nu in small)
    ok = ok and verify_chain_sum(2, 1, 4) and verify_chain_sum(3, 1, 4)
    conclude(4, "skew Cauchy sums and cyclic chain sums", ok,
             f"{len(small) ** 2} pair sums plus 2 chains",
             time.time() - t0, 60)


def test_criterion_05_vertex_amplitudes():
    t0 = time.time()
    n, bad = run_suite("vertex")
    conclude(5, "vertex amplitude routes and symmetries", not bad,
             f"{n} checks, {len(bad)} failed", time.time() - t0, 300)


def test_criterion_06_coefficient_layer():
    t0 = time.time()
    n, bad = run_suite("f")
    conclude(6, "pairing coefficient layer through total weight 8", not bad,
             f"{n} checks, {len(bad)} failed", time.time() - t0, 60)


def test_criterion_07_pair_series_three_routes():
    t0 = time.time()
    pairs = pairs_up_to(4)
    ok = all(verify_thm_k(mu1, mu2, 5) for mu1, mu2 in pairs)
    ok = ok and k_brute((), (), 5) == k00_closed(5)
    conclude(7, "pair series: brute, exp and product routes to degree 5", ok,
             f"{len(pairs)} pairs plus empty-pair anchor",
             time.time() - t0, 300)


def test_criterion_08_transposed_and_squared_forms():
    t0 = time.time()
    pairs = pairs_up_to(5)
    ok = all(verify_thm_kt(mu1, mu2, 5) for mu1, mu2 in pairs)
    ok = ok and all(verify_cor_ik2_and_ksinh(mu1, mu2) for mu1, mu2 in pairs)
    ok = ok and all(verify_ksinh_series(mu1, mu2, 5) for mu1, mu2 in pairs)
    conclude(8, "transposed rational form and squared normal forms", ok,
             f"{len(pairs)} pairs, series to degree 5",
             time.time() - t0, 300)


def test_criterion_09_chain_generalizations():
    t0 = time.time()
    parts = list(all_partitions(2))
    ok = all(verify_ktilde_pair_reduction(a, b, 3) for a in parts for b in parts)
    triples = list(itertools.product(parts, repeat=3))
    ok = ok and all(verify_thm_kgen(mus, (3, 3)) for mus in triples)
    ok = ok and all(verify_sun_squares(mus, (3, 3)) for mus in triples)
    conclude(9, "chain closed form and squared rank-3 form", ok,
             f"{len(parts) ** 2} reductions, {len(triples)} triples twice",
             time.time() - t0, 600)


def test_criterion_10_rank2_framed_equalities():
    t0 = time.time()
    ok = all(verify_su2(m, 2, 4) for m in (0, 1, 2))
    sweep = tuple_sweep(3, 1)
    ok = ok and all(sun_tuple_identity(3, mus, (2, 2)) for mus in sweep)
    matched = all(sun_phi_model(3, mus) == sun_residual(3, mus) for mus in sweep)
    phi = "confirmed" if matched else "not matched"
    conclude(10, "rank-2 framed equalities; rank-3 slot factors " + phi, ok,
             "framings 0,1,2 at base 2 fiber 4; rank-3 report at base 1",
             time.time() - t0, 600)


def child_cpu_seconds() -> float:
    """User plus system CPU seconds of this process's waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_criterion_11_deterministic_reports(tmp_path):
    # each run is timed by its own CPU seconds, so load from other
    # processes on the machine does not count against the budget
    outs = []
    times = []
    for threads in ("1", "4"):
        path = tmp_path / f"all-{threads}.json"
        r0 = child_cpu_seconds()
        proc = subprocess.run(
            [sys.executable, "-m", "vertexcalc.cli", "verify", "all",
             "--threads", threads, "--json", str(path)],
            capture_output=True, text=True)
        times.append(child_cpu_seconds() - r0)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    doc = json.loads(outs[0])
    ok = ok and doc["summary"]["failed"] == 0
    budget = 2 * times[0] + 60
    conclude(11, "byte-identical reports across thread counts", ok,
             f"runs {times[0]:.0f}s and {times[1]:.0f}s of CPU",
             sum(times), budget)
