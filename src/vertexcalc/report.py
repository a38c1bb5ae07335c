"""Check scheduling and deterministic reports.

A Check is a named, lazily evaluated verification instance.  Its function
states each identity as series.same(lhs, rhs) and passes by returning
normally; a failing check carries a witness, the first key where the two
sides differ, and a passing one none, so the reports stay fixed.  Results
keep per-check wall time for the human table, but the JSON report
contains no timing, so fixed parameters give byte-identical files.
Checks run one after another in the calling thread (under the GIL a
thread pool only made sweeps slower), so importing this module, as every
compute call does, loads no thread or dataclass machinery.
"""

from __future__ import annotations

import json
from collections import namedtuple
from time import perf_counter

from . import __version__
from .series import Mismatch


Check = namedtuple("Check", "ident instance fn")
CheckResult = namedtuple("CheckResult", "ident instance status witness seconds")


def _run_one(chk: Check) -> CheckResult:
    """Run one check.  It passes only by returning None, True or an info string.

    A Mismatch fails it with the comparator's witness, any other exception
    with the error; any other return value, False included, fails it too.
    """
    t0 = perf_counter()
    try:
        out = chk.fn()
    except Mismatch as exc:
        status, witness = "fail", str(exc)
    except Exception as exc:
        status, witness = "fail", f"error: {exc!r}"
    else:
        if out is None or out is True or isinstance(out, str):
            status, witness = "pass", out if isinstance(out, str) else None
        else:
            status, witness = "fail", f"returned {out!r}"
    return CheckResult(chk.ident, chk.instance, status, witness, perf_counter() - t0)


def run_checks(checks, threads: int = 1) -> list[CheckResult]:
    """Run every check in order in this thread; the results keep that order.

    threads is accepted for callers that still pass a worker count, and
    ignored: every count gives the same results in the same order.
    """
    return [_run_one(c) for c in checks]


def report_dict(suite: str, params: dict, results) -> dict:
    entries = []
    for r in results:
        e = {"id": r.ident, "instance": r.instance, "status": r.status}
        if r.witness is not None:
            e["witness"] = r.witness
        entries.append(e)
    passed = sum(1 for r in results if r.status == "pass")
    return {
        "suite": suite,
        "params": {k: params[k] for k in sorted(params) if params[k] is not None},
        "engine": __version__,
        "entries": entries,
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }


def report_json(suite: str, params: dict, results) -> str:
    return json.dumps(report_dict(suite, params, results),
                      sort_keys=True, separators=(",", ":")) + "\n"


def render_human(suite: str, results, elapsed: float) -> str:
    lines = []
    width = max((len(r.ident) for r in results), default=0)
    for r in results:
        mark = "pass" if r.status == "pass" else "FAIL"
        line = f"  {mark}  {r.ident.ljust(width)}  {r.instance}  ({r.seconds:.2f}s)"
        if r.status != "pass" and r.witness:
            line += f"\n        {r.witness}"
        elif r.witness:
            line += f"  [{r.witness}]"
        lines.append(line)
    passed = sum(1 for r in results if r.status == "pass")
    failed = len(results) - passed
    lines.append(f"{suite}: {passed} passed, {failed} failed in {elapsed:.1f}s")
    return "\n".join(lines)
