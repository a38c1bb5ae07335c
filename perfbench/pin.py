"""Regenerate perfbench/pins.json: the benchmark's correctness pins.

    python3 perfbench/pin.py

Records the sha256 of every verify workload's --json report (benchmark and
tiny sizes) and, for the compute-calls pool, the sha256 of each call's
stdout.  The pool is a fixed, seeded sample of each request class, so it
does not change between runs of this script.  Run it only when a change
alters report bytes or compute output on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import run

# Partitions up to weight 4, in CLI spelling ("0" is the empty partition).
PARTS = ["0", "1", "2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
PER_CLASS = 12


def _pairs(kind, *extra):
    return [["compute", kind, "--mu1", a, "--mu2", b, *extra]
            for a, b in itertools.product(PARTS, repeat=2)]


def _triples(*extra):
    return [["compute", "w3", "--mu1", a, "--mu2", b, "--mu3", c, *extra]
            for a, b, c in itertools.product(PARTS, repeat=3)]


# Every kind and its --transpose2, --two-var and --expand variants.
# f --two-var --expand is invalid input and is left out.  z is drawn only
# where m * bdeg <= fdeg + 1: beyond that QSeries.shift_q overruns the
# truncation and the call ends in a ValueError traceback (a known defect,
# e.g. "compute z --m 2 --bdeg 2 --fdeg 2"), which a test should pin down.
CLASSES = {
    "w1": [["compute", "w1", "--mu", p] for p in PARTS],
    "w1-expand-zero": [["compute", "w1", "--mu", p, "--expand", "at_zero", "--order", "6"]
                       for p in PARTS],
    "w1-expand-infinity": [["compute", "w1", "--mu", p, "--expand", "at_infinity",
                            "--order", "6"] for p in PARTS],
    "w2": _pairs("w2"),
    "w2-expand-zero": _pairs("w2", "--expand", "at_zero", "--order", "6"),
    "w3": _triples(),
    "w3-expand-infinity": _triples("--expand", "at_infinity", "--order", "6"),
    "f": _pairs("f"),
    "f-transpose2": _pairs("f", "--transpose2"),
    "f-two-var": _pairs("f", "--two-var"),
    "f-two-var-transpose2": _pairs("f", "--two-var", "--transpose2"),
    "k": _pairs("k", "--qdeg", "3"),
    "k-transpose2": _pairs("k", "--transpose2"),
    "k-transpose2-expand": _pairs("k", "--transpose2", "--expand", "at_zero", "--order", "3"),
    "z": [["compute", "z", "--m", str(m), "--bdeg", str(b), "--fdeg", str(f)]
          for m in (0, 1, 2) for b in (1, 2) for f in (2, 3) if m * b <= f + 1],
    "multiset": _pairs("multiset"),
}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    verify = {}
    report = run.OUT / "report.json"
    for sizes in run.VERIFY.values():
        for args in sizes["full"] + sizes["tiny"]:
            p = run.Proc(args + ["--json", str(report)])
            data = report.read_bytes()
            if not p.ok or json.loads(data)["summary"]["failed"]:
                print(f"error: {' '.join(args)} did not pass", file=sys.stderr)
                return 1
            verify[" ".join(args)] = run.sha256(data)
    compute = {}
    for cls, cands in CLASSES.items():
        pool = random.Random(f"pool-{cls}").sample(cands, min(PER_CLASS, len(cands)))
        compute[cls] = {}
        for args in pool:
            p = run.Proc(args)
            if not p.ok:
                print(f"error: {' '.join(args)} exited {p.code}", file=sys.stderr)
                return 1
            compute[cls][" ".join(args)] = run.sha256(p.stdout)
    run.PINS.write_text(json.dumps({"verify": verify, "compute": compute},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
