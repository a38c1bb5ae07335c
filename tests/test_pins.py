"""Byte-identity guard: replay the benchmark's pinned outputs in-process.

perfbench/pins.json holds the sha256 of every pooled `compute` stdout and
of the verify --json reports.  A change in how a value is represented
(the order of a sum, the factoring of a denominator) alters those bytes
without altering any value, so equality-based tests cannot see it.  This
file is read, never written; regenerate it with perfbench/pin.py only
when output changes on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.cli import main

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
# The smallest pinned verify run; the full-size one stays with the benchmark.
TINY_VERIFY = "verify all --max-weight 1 --qdeg 1 --bdeg 1 --fdeg 2 --threads 2"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cls", sorted(PINS["compute"]))
def test_compute_stdout_matches_pin(cls, capsys):
    drift = []
    for call, digest in PINS["compute"][cls].items():
        code = main(call.split())
        out = capsys.readouterr().out
        if code != 0 or sha256(out.encode()) != digest:
            drift.append((call, code, out))
    assert not drift, drift[0]


def test_tiny_verify_report_matches_pin(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(TINY_VERIFY.split() + ["--json", str(report)]) == 0
    capsys.readouterr()
    assert sha256(report.read_bytes()) == PINS["verify"][TINY_VERIFY]
