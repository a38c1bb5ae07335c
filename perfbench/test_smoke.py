"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks that every metric named
in BENCHMARK.json is printed with its unit and that every output matched
its pin, and that the traced counts repeat exactly across two runs.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Deterministic under any worker count: check totals and memo table sizes.
POOL_STABLE = {"report.checks", "memo.entries_total", "schur.memo.entries",
               "series.expand_cache.entries", "memo.tables_at_cap"}


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}  (median, n="
                   in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat(workload):
    first = bench(workload, 1)[1]["metrics"]
    second = bench(workload, 1, attempt=1)[1]["metrics"]
    counts = [n for n, m in first.items() if m["unit"] == "count"]
    assert counts
    for name in counts:
        a, b = first[name]["value"], second[name]["value"]
        if workload == "chain-all" and name not in POOL_STABLE:
            # Its two pool workers can both miss a memo table on the same key
            # and both fill it, so call counts vary slightly between runs.
            assert abs(a - b) <= 0.01 * max(a, b), name
        else:
            assert a == b, name
