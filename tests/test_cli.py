import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertexcalc
from vertexcalc.cli import main, partition_arg
from vertexcalc.report import Check, run_checks
from vertexcalc.series import same


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_partition_arg_parsing():
    assert partition_arg("2,1") == (2, 1)
    assert partition_arg("1,2") == (2, 1)
    assert partition_arg("0") == ()
    assert partition_arg("()") == ()
    with pytest.raises(Exception):
        partition_arg("a,b")


def test_compute_one_leg(capsys):
    code, out, _ = run(capsys, "compute", "w1", "--mu", "1")
    assert code == 0
    assert out.strip() == "t / (t^2 - 1)"


def test_compute_two_leg(capsys):
    code, out, _ = run(capsys, "compute", "w2", "--mu1", "1", "--mu2", "1")
    assert code == 0
    assert out.strip() == "(q^2 - q + 1) / (q^2 - 2*q + 1)"


def test_compute_f_anchor(capsys):
    code, out, _ = run(capsys, "compute", "f", "--mu1", "1", "--mu2", "1")
    assert code == 0
    assert out.strip() == "q + q^-1"


def test_compute_multiset(capsys):
    code, out, _ = run(capsys, "compute", "multiset", "--mu1", "2,1", "--mu2", "0")
    assert code == 0
    assert out.strip() == "[(1,-1),(0,-1),(-1,-1)]"


def test_compute_expansions(capsys):
    code, out, _ = run(capsys, "compute", "w1", "--mu", "1",
                       "--expand", "at_zero", "--order", "7")
    assert code == 0
    assert out.strip() == "-t - t^3 - t^5 - t^7 + O(t^8)"
    code, out, _ = run(capsys, "compute", "w1", "--mu", "1",
                       "--expand", "at_infinity", "--order", "7")
    assert code == 0
    assert out.strip() == "t^-1 + t^-3 + t^-5 + t^-7 + O(t^-8)"


def test_compute_json_shape(capsys, tmp_path):
    path = tmp_path / "w1.json"
    code, out, _ = run(capsys, "compute", "w1", "--mu", "1",
                       "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "w1"
    assert doc["units"] == "t"
    assert doc["params"]["mu"] == [1]
    assert set(doc["value"]) == {"num", "den"}


def test_compute_k_series(capsys):
    code, out, _ = run(capsys, "compute", "k", "--mu1", "0", "--mu2", "0",
                       "--qdeg", "2")
    assert code == 0
    assert "O(Q^3)" in out


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "partitions", "--max-weight", "5")
    assert code == 0
    assert "0 failed" in out
    assert not any(line.lstrip().startswith("fail") for line in out.splitlines())


def test_verify_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_inject_failure(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "partitions", "--max-weight", "3",
                       "--inject-failure", "--json", str(path))
    assert code == 1
    doc = json.loads(path.read_text())
    assert doc["summary"]["failed"] == 1
    bad = [e for e in doc["entries"] if e["status"] == "fail"]
    assert len(bad) == 1
    # the Q^1 coefficient, both sides rendered as fraction_json
    assert bad[0]["witness"].startswith('at [1]: {"num":')
    assert '} != {"num":' in bad[0]["witness"]


RETURN_CHECKS = [Check("none", "-", lambda: None),
                 Check("true", "-", lambda: True),
                 Check("info", "-", lambda: "a note"),
                 Check("false", "-", lambda: False),
                 Check("tuple", "-", lambda: (True, None)),
                 Check("mismatch", "-", lambda: same(1, 2)),
                 Check("error", "-", lambda: 1 // 0)]


def test_check_passes_only_by_returning_normally():
    got = [(r.ident, r.status, r.witness) for r in run_checks(RETURN_CHECKS)]
    assert got == [("none", "pass", None),
                   ("true", "pass", None),
                   ("info", "pass", "a note"),
                   ("false", "fail", "returned False"),
                   ("tuple", "fail", "returned (True, None)"),
                   ("mismatch", "fail", '"1" != "2"'),
                   ("error", "fail", "error: ZeroDivisionError('integer division or modulo by zero')")]


def test_run_checks_with_a_worker_count_keeps_the_announced_order():
    # perfbench/child.py wraps run_checks and calls it with the worker count.
    got = [(r.ident, r.instance) for r in run_checks(RETURN_CHECKS, 2)]
    assert got == [(c.ident, c.instance) for c in RETURN_CHECKS]


def test_verify_json_deterministic_across_threads(capsys, tmp_path):
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    a = run(capsys, "verify", "prodred", "--max-weight", "4",
            "--threads", "1", "--json", str(p1))
    b = run(capsys, "verify", "prodred", "--max-weight", "4",
            "--threads", "3", "--json", str(p2))
    assert a[0] == 0 and b[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert a[2] == ""
    assert b[2] == "note: threads = 3 ignored; checks run in one thread\n"


def test_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_weight=3\nqdeg=3\n")
    code, out, _ = run(capsys, "verify", "partitions", "--config", str(cfg))
    assert code == 0
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "partitions", "--config", str(cfg),
                       "--max-weight", "4", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["max_weight"] == 4


def test_config_unknown_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=3\n")
    code, _, err = run(capsys, "verify", "partitions", "--config", str(cfg))
    assert code == 2


def test_config_cache_limit_is_an_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("cache_limit=5\n")
    code, _, err = run(capsys, "verify", "partitions", "--config", str(cfg))
    assert code == 2 and "unknown config key: cache_limit" in err


def test_compute_missing_argument_exits_two(capsys):
    code, _, err = run(capsys, "compute", "w1")
    assert code == 2


def test_verify_large_mass_shift(capsys):
    code, out, _ = run(capsys, "verify", "nekrasov-su2", "--m", "2", "--bdeg", "2",
                       "--fdeg", "2")
    assert code == 0
    assert "2 passed, 0 failed" in out


@pytest.mark.parametrize("argv", [
    ("k", "--qdeg", "0"),
    ("vertex", "--max-weight", "-1"),
    ("partitions", "--max-weight", "0"),
    ("nekrasov-su2", "--fdeg", "0"),
    ("nekrasov-su2", "--m", "-1"),
    ("nekrasov-su2", "--bdeg", "-1"),
    ("nekrasov-sun", "--n", "0"),
    ("partitions", "--threads", "0"),
])
def test_verify_bad_size_exits_two(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("k", "--mu1", "0", "--mu2", "0", "--qdeg", "-1"),
    ("z", "--bdeg", "-1"),
    ("z", "--m", "-1"),
    ("z", "--fdeg", "-1"),
    ("w1", "--mu", "1", "--expand", "at_zero", "--order", "-3"),
    ("f", "--mu1", "1", "--mu2", "1", "--two-var", "--expand", "at_zero"),
    ("f", "--mu1", "1", "--mu2", "1", "--expand", "at_zero"),
    ("k", "--mu1", "1", "--mu2", "0", "--expand", "at_zero"),
    ("z", "--expand", "at_zero"),
    ("multiset", "--mu1", "1", "--mu2", "0", "--expand", "at_zero"),
    ("w1", "--mu", "1", "--order", "3"),
    ("k", "--mu1", "1", "--mu2", "0", "--transpose2", "--order", "3"),
])
def test_compute_bad_input_exits_two(capsys, argv):
    code, out, err = run(capsys, "compute", *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, flag", [
    (("w1", "--mu", "1", "--qdeg", "3", "--two-var"), "--qdeg"),
    (("w1", "--mu", "1", "--qdeg", "0"), "--qdeg"),
    (("w2", "--mu1", "1", "--mu2", "1", "--m", "2"), "--m"),
    (("w2", "--mu1", "1", "--mu2", "1", "--mu", "3"), "--mu"),
    (("w3", "--mu1", "1", "--mu2", "1", "--mu3", "0", "--transpose2"), "--transpose2"),
    (("z", "--transpose2"), "--transpose2"),
    (("multiset", "--mu1", "1", "--mu2", "0", "--transpose2"), "--transpose2"),
    (("k", "--mu1", "1", "--mu2", "0", "--two-var"), "--two-var"),
    (("k", "--mu1", "1", "--mu2", "0", "--transpose2", "--qdeg", "3"), "--qdeg"),
    (("f", "--mu1", "1", "--mu2", "1", "--bdeg", "1"), "--bdeg"),
    (("z", "--mu1", "1"), "--mu1"),
    (("z", "--fdeg", "2", "--order", "0"), "--order"),
])
def test_compute_rejects_flags_its_kind_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "compute", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.rstrip().endswith(f"does not read {flag}")


@pytest.mark.parametrize("argv", [
    ("compute", "w1", "--mu", "1"),
    ("verify", "partitions", "--max-weight", "1"),
])
@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_json_write_failure_exits_two(capsys, tmp_path, argv, where):
    code, _, err = run(capsys, *argv, "--json", str(tmp_path / where))
    assert code == 2
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_cli_import_loads_no_pool_or_dataclass_machinery():
    # -S keeps site-packages .pth files from preloading typing.
    src = str(Path(vertexcalc.__file__).resolve().parents[1])
    probe = ("import sys, vertexcalc.cli, vertexcalc.report; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'concurrent.futures', "
             "'logging', 'threading', 'typing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
