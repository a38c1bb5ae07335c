"""Byte-identity guard: replay the benchmark's pinned outputs in-process.

perfbench/pins.json holds the sha256 of every pooled `compute` stdout and
of both verify --json reports; all of them are replayed here.  A change in
how a value is represented (the order of a sum, the factoring of a
denominator) alters those bytes without altering any value, so
equality-based tests cannot see it.  This file is read, never written;
regenerate it with perfbench/pin.py only when output changes on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.cli import main
from vertexcalc.suites import SUITE_ORDER

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
TINY_SIZES = "--max-weight 1 --qdeg 1 --bdeg 1 --fdeg 2"
TINY_VERIFY = f"verify all {TINY_SIZES} --threads 2"
# The benchmark's chain-all run: its own byte gate, about 10 s.
CHAIN_ALL_VERIFY = "verify all --max-weight 2 --qdeg 2 --threads 2"


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


def assert_verify_report_matches_pin(call, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(call.split() + ["--json", str(report)]) == 0
    capsys.readouterr()
    assert sha256(report.read_bytes()) == PINS["verify"][call]


def test_tiny_verify_report_matches_pin(tmp_path, capsys):
    assert_verify_report_matches_pin(TINY_VERIFY, tmp_path, capsys)


def test_chain_all_verify_report_matches_pin(tmp_path, capsys):
    assert_verify_report_matches_pin(CHAIN_ALL_VERIFY, tmp_path, capsys)


def test_tiny_verify_report_matches_pin_with_warm_memo_tables(tmp_path, capsys):
    # The memo tables are no input: filled by every suite, run in reverse
    # order, they leave the report's bytes where a cold run puts them.
    for suite in reversed(SUITE_ORDER):
        assert main(["verify", suite, *TINY_SIZES.split()]) == 0
    assert_verify_report_matches_pin(TINY_VERIFY, tmp_path, capsys)
