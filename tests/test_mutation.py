"""Mutation smoke test: every layer's checks must be able to fail.

Each test swaps one primitive for a subtly wrong copy, in every vertexcalc
module that bound it by name, and asserts that the checks meant to cover
it report at least one failure.  The memo tables are emptied before and
after each mutant, so no wrong value leaks into a table another test reads.
"""

import hashlib
import inspect
import json
import sys
import textwrap
from pathlib import Path

import pytest

from vertexcalc import partitions, prodred, series
from vertexcalc.cli import main

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
TINY_SIZES = ["--max-weight", "1", "--qdeg", "1", "--bdeg", "1", "--fdeg", "2"]


def vertexcalc_modules():
    return [mod for name, mod in sys.modules.items()
            if name.startswith("vertexcalc.") and mod is not None]


def clear_memo_tables():
    for mod in vertexcalc_modules():
        for attr, val in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(val, dict):
                val.clear()


@pytest.fixture
def mutate(monkeypatch):
    """Rebind module.name to a mutant wherever a vertexcalc module holds it."""
    def install(module, name, mutant):
        original = getattr(module, name)
        for mod in vertexcalc_modules():
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, mutant)
        clear_memo_tables()

    yield install
    monkeypatch.undo()
    clear_memo_tables()


def source_mutant(fn, old: str, new: str):
    """fn recompiled in its module with one source fragment replaced."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, "the mutated fragment is no longer in the source"
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(src.replace(old, new), f"<mutant {fn.__name__}>", "exec"), namespace)
    return namespace[fn.__name__]


def tiny_failures(suite: str, tmp_path, capsys) -> int:
    report = tmp_path / "report.json"
    main(["verify", suite, *TINY_SIZES, "--json", str(report)])
    capsys.readouterr()
    return json.loads(report.read_text())["summary"]["failed"]


def compute_pin_drift(capsys):
    """The first pinned compute call whose stdout no longer matches, or None."""
    for cls in sorted(PINS["compute"]):
        for call, digest in PINS["compute"][cls].items():
            try:
                code = main(call.split())
            except Exception:
                code = None
            out = capsys.readouterr().out
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                return call
    return None


def test_unmutated_tiny_suites_pass(tmp_path, capsys):
    for suite in ("partitions", "prodred"):
        assert tiny_failures(suite, tmp_path, capsys) == 0


def test_division_without_top_key_test_is_caught(mutate, capsys):
    mutant = source_mutant(series._exact_div,
                           "        if cs[hi] != v * acc:\n            return None\n", "")
    mutate(series, "_exact_div", mutant)
    assert compute_pin_drift(capsys) is not None


def test_kappa_off_by_one_is_caught(mutate, tmp_path, capsys):
    kappa = partitions.kappa
    mutate(partitions, "kappa", lambda mu: kappa(mu) + 1)
    assert tiny_failures("partitions", tmp_path, capsys) > 0


def test_bracket_wrong_sign_is_caught(mutate, tmp_path, capsys):
    bracket = prodred.bracket
    mutate(prodred, "bracket", lambda m: bracket(m).scale(-1))
    assert tiny_failures("prodred", tmp_path, capsys) > 0
