"""vertexcalc benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload runs in
fresh child interpreters (``perfbench/child.py`` around the real CLI), so
the memo tables start cold each time.  Every report digest and every
compute output is checked against ``perfbench/pins.json``; a mismatch or
a wrong exit code counts as a failed item.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics.  A run
record with the raw samples, the machine and /proc/loadavg around each
repetition goes to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# The verify workloads, at benchmark size and at the smoke test's tiny size.
VERIFY = {
    "chain-all": {
        "full": [["verify", "all", "--max-weight", "2", "--qdeg", "2", "--threads", "2"]],
        "tiny": [["verify", "all", "--max-weight", "1", "--qdeg", "1", "--bdeg", "1",
                  "--fdeg", "2", "--threads", "2"]],
    },
}
COMPUTE = "compute-calls"
WORKLOADS = list(VERIFY) + [COMPUTE]
# compute-calls: fewest calls in an untraced run (p90 then has 10 or more
# samples beyond it), and the fixed batch of calls one traced repetition makes.
MIN_CALLS = {"full": 100, "tiny": 4}
TRACE_BATCH = {"full": 40, "tiny": 4}
# Set-up-only runs of the verify commands after each untraced repetition,
# so that setup_s is a median over many set-ups, not over a few repetitions.
SETUP_PROBES = 4
# Hard limit for one harness run; a child still running then is killed.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "request_p50_ms": "ms", "request_p90_ms": "ms",
}
PER_LAYER = {
    "series.exact_div.calls": "count", "series.exact_div.hit_ratio": "ratio",
    "series.exact_div.self_s": "s",
    "series.poly_mul.calls": "count", "series.poly_mul.self_s": "s",
    "series.fraction_add.calls": "count", "series.fraction_add.self_s": "s",
    "series.fraction_mul.calls": "count", "series.fraction_mul.self_s": "s",
    "series.fraction_eq.self_s": "s", "series.qseries_mul.self_s": "s",
    "series.expand_in_q.self_s": "s", "series.self_s": "s",
    "schur.self_s": "s", "schur.memo.entries": "count", "schur.memo.hit_ratio": "ratio",
    "vertex.self_s": "s", "vertex.w3.calls": "count", "vertex.memo.hit_ratio": "ratio",
    "ksum.self_s": "s", "ksum.memo.hit_ratio": "ratio",
    "partitions.self_s": "s", "partitions.calls": "count",
    "fcoeff.self_s": "s", "prodred.self_s": "s", "nekrasov.self_s": "s",
    "memo.entries_total": "count", "memo.tables_at_cap": "count",
    "series.expand_cache.entries": "count",
    "report.check_max_s": "s", "report.checks": "count",
    "cli.import_s": "s", "cli.render_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Memo tables whose filling function is public, so calls can be counted.
MEMO_FUNCS = {
    "schur._LR_CACHE": "schur.lr_coeffs",
    "schur._PS_CACHE": "schur.principal_schur",
    "schur._PSK_CACHE": "schur.principal_skew",
    "schur._SAT_CACHE": "schur.schur_at_mu_rho",
    "schur._SKAT_CACHE": "schur.skew_at_mu_rho",
    "vertex._W1_CACHE": "vertex.w1",
    "vertex._W2_CACHE": "vertex.w2",
    "vertex._W3_CACHE": "vertex.w3",
    "ksum._K00_CACHE": "ksum.k00_closed",
    "ksum._KB_CACHE": "ksum.k_brute",
}


class HardLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise HardLimit()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Proc, which kills its child


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_load() -> dict:
    """/proc/loadavg and the CPU ticks the hypervisor stole, where Linux shows them."""
    out = {}
    try:
        out["loadavg"] = Path("/proc/loadavg").read_text().strip()
        cpu = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        out["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else None
    except (OSError, ValueError):
        pass
    return out


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "vertexcalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Proc:
    """One finished child: exit code, spawn/exit clock, rusage, marks, stdout.

    `mode` is child.py's: "plain", "trace" or "setup".
    """

    def __init__(self, args, mode="plain"):
        marks_path, out_path = OUT / "marks.json", OUT / "stdout"
        marks_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(marks_path), mode, *args]
        with open(out_path, "wb") as out, open(OUT / "stderr", "wb") as err:
            self.spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.exit = time.monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.stdout = out_path.read_bytes()
        try:
            self.marks = json.loads(marks_path.read_text())
        except (OSError, ValueError):
            self.marks = None
        self.ok = self.code == 0 and self.marks is not None and "work_start" in self.marks

    def setup_s(self):
        return self.marks["work_start"] - self.spawn if self.ok else 0.0

    def run_s(self):
        return self.marks["work_end"] - self.marks["work_start"] if self.ok else 0.0


class Rep:
    """One repetition of a workload: its processes' totals and trace counters.

    `setups` holds the repetition's set-up time (summed over its processes)
    and, for verify workloads, that of each round of set-up-only probes.
    """

    def __init__(self):
        self.setup = self.run = self.cpu = self.rss = 0.0
        self.setups: list[float] = []
        self.latencies_ms: list[float] = []
        self.checks: list[float] = []
        self.check_cpu: list[float] = []
        self.attempted = self.failed = 0
        self.groups: dict = {}
        self.memo: dict = {}
        self.cache_limit = None
        self.import_s = 0.0
        self.load = [machine_load()]
        self.t0 = time.monotonic()

    def add(self, p: Proc):
        self.setup += p.setup_s()
        self.run += p.run_s()
        self.cpu += p.cpu
        self.rss = max(self.rss, p.rss_mb)
        if p.marks is None:
            return
        self.import_s += p.marks["import_end"] - p.marks["import_start"]
        for group, vals in p.marks.get("groups", {}).items():
            acc = self.groups.setdefault(group, [0, 0, 0.0, 0.0])
            for i in range(4):
                acc[i] += vals[i]
        for table, n in p.marks.get("memo", {}).items():
            # Tables start empty in each child, so the size is its growth.
            self.memo.setdefault(table, []).append(n)
        self.cache_limit = p.marks.get("cache_limit", self.cache_limit)

    def close(self):
        self.load.append(machine_load())
        self.seconds = time.monotonic() - self.t0
        return self


def verify_rep(cmds, pins, trace) -> Rep:
    rep = Rep()
    report = OUT / "report.json"
    for args in cmds:
        report.unlink(missing_ok=True)
        p = Proc(args + ["--json", str(report)], "trace" if trace else "plain")
        rep.add(p)
        data = report.read_bytes() if report.is_file() else b""
        try:
            summary = json.loads(data)["summary"]
            total, bad = summary["total"], summary["failed"]
        except (ValueError, KeyError, TypeError):
            total, bad = 0, 0
        rep.attempted += 1 + total
        rep.failed += bad + (not p.ok or sha256(data) != pins["verify"].get(" ".join(args)))
        if p.ok:
            rep.checks += p.marks["checks"]
            rep.check_cpu += p.marks["check_cpu"]
    rep.latencies_ms = [1000.0 * s for s in rep.check_cpu]
    rep.setups.append(rep.setup)
    for _ in range(0 if trace else SETUP_PROBES):
        probes = [Proc(args, "setup") for args in cmds]
        rep.attempted += len(probes)
        rep.failed += sum(not p.ok for p in probes)
        rep.setups.append(sum(p.setup_s() for p in probes))
    return rep.close()


def compute_rep(calls, trace) -> Rep:
    rep = Rep()
    for args, digest in calls:
        p = Proc(args, "trace" if trace else "plain")
        rep.add(p)
        rep.latencies_ms.append(1000.0 * (p.exit - p.spawn))
        rep.attempted += 1
        rep.failed += not p.ok or sha256(p.stdout) != digest
    rep.setups.append(rep.setup)
    return rep.close()


def compute_sequence(pool: dict, seed: int):
    """Endless seeded calls: round-robin over the classes, a seeded member of each."""
    rng = random.Random(seed)
    classes = {cls: sorted(calls.items()) for cls, calls in sorted(pool.items())}
    while True:
        for calls in classes.values():
            line, digest = rng.choice(calls)
            yield line.split(), digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, -(-p * len(s) // 100) - 1))]


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(reps):
    lat = [x for r in reps for x in r.latencies_ms] or [0.0]
    samples = {
        "setup_s": [s for r in reps for s in r.setups],
        "run_s": [r.run for r in reps],
        "cpu_s": [r.cpu for r in reps],
        "peak_rss_mb": [r.rss for r in reps],
    }
    out = {name: summary(vals) for name, vals in samples.items()}
    out["request_p50_ms"] = {"median": percentile(lat, 50), "n": len(lat)}
    out["request_p90_ms"] = {"median": percentile(lat, 90), "n": len(lat)}
    return out


def layer_values(rep: Rep) -> dict:
    """Per-layer figures of one traced repetition (totals over its processes)."""
    g = rep.groups

    def calls(group):
        return g.get(group, [0])[0]

    def self_s(prefix):
        return sum(v[2] for k, v in g.items() if k.startswith(prefix))

    def memo_hit_ratio(layer):
        grown = made = 0
        for table, fn in MEMO_FUNCS.items():
            if table.startswith(layer + "."):
                grown += sum(rep.memo.get(table, []))
                made += calls(fn)
        return 1.0 - grown / made if made else 0.0

    entries = {t: sum(ns) for t, ns in rep.memo.items()}
    limit = rep.cache_limit or 0
    div = g.get("series.exact_div", [0, 0, 0.0, 0.0])
    out = {
        "series.exact_div.calls": div[0],
        "series.exact_div.hit_ratio": div[1] / div[0] if div[0] else 0.0,
        "series.exact_div.self_s": div[2],
        "series.self_s": self_s("series."),
        "schur.memo.entries": sum(n for t, n in entries.items() if t.startswith("schur.")),
        "schur.memo.hit_ratio": memo_hit_ratio("schur"),
        "vertex.w3.calls": calls("vertex.w3"),
        "vertex.memo.hit_ratio": memo_hit_ratio("vertex"),
        "ksum.memo.hit_ratio": memo_hit_ratio("ksum"),
        "partitions.calls": sum(v[0] for k, v in g.items() if k.startswith("partitions.")),
        "memo.entries_total": sum(entries.values()),
        "memo.tables_at_cap": sum(1 for ns in rep.memo.values() for n in ns if limit and n >= limit),
        "series.expand_cache.entries": entries.get("series._EXPAND_CACHE", 0),
        "report.check_max_s": max(rep.checks, default=0.0),
        "report.checks": len(rep.checks),
        "cli.import_s": rep.import_s,
        "cli.render_s": g.get("cli.render", [0, 0, 0.0, 0.0])[3],
    }
    for op in ("poly_mul", "fraction_add", "fraction_mul"):
        out[f"series.{op}.calls"] = calls(f"series.{op}")
    for op in ("poly_mul", "fraction_add", "fraction_mul", "fraction_eq", "qseries_mul",
               "expand_in_q"):
        out[f"series.{op}.self_s"] = self_s(f"series.{op}")
    for layer in ("schur", "vertex", "ksum", "partitions", "fcoeff", "prodred", "nekrasov"):
        out[f"{layer}.self_s"] = self_s(f"{layer}.")
    return out


def measure(workload, scale, seed, seconds, trace, pins):
    """Repeat the workload while the next repetition should end within `seconds`.

    The next repetition is expected to take the median of those before it,
    so a run ends before `seconds` by less than about one repetition.
    """
    if workload == COMPUTE:
        seq = compute_sequence(pins["compute"], seed)
        if trace:
            batch = [next(seq) for _ in range(TRACE_BATCH[scale])]

            def one(t):
                return compute_rep(batch, t)
        else:
            def one(t):
                return compute_rep([next(seq)], t)
        min_reps = 1 if trace else MIN_CALLS[scale]
    else:
        cmds = VERIFY[workload][scale]

        def one(t):
            return verify_rep(cmds, pins, t)
        min_reps = 1
    start = time.monotonic()
    plain, traced, took = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(one(False))
        if trace:
            traced.append(one(True))
        took.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(took) >= min_reps and elapsed + statistics.median(took) > seconds:
            return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (digests pinned separately)")
    args = ap.parse_args(argv)
    if not (SRC / "vertexcalc" / "cli.py").is_file() or not PINS.is_file():
        print(f"error: no vertexcalc sources under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    scale = "tiny" if args.tiny else "full"
    pins = json.loads(PINS.read_text())
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    started = time.time()
    try:
        Proc(["compute", "multiset", "--mu1", "1", "--mu2", "1"])  # warm file cache
        plain, traced = measure(args.workload, scale, args.seed, args.seconds,
                                args.trace == 1, pins)
    except HardLimit:
        print(f"error: run exceeded {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    e2e = end_to_end(plain)
    metrics, record_metrics = {}, {}
    if args.trace:
        per_rep = [layer_values(r) for r in traced]
        ratio = [t.run / p.run for p, t in zip(plain, traced) if p.run]
        for name in PER_LAYER:
            vals = [v[name] for v in per_rep] if name != "trace.overhead_ratio" else ratio or [0.0]
            record_metrics[name] = summary(vals)
        shown = PER_LAYER
    else:
        record_metrics = e2e
        shown = END_TO_END
    for name, unit in shown.items():
        s = record_metrics[name]
        metrics[name] = {"value": s["median"], "unit": unit}
        spread = f", q1={s['q1']:.6g}, q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"{name} = {s['median']:.6g} {unit}  (median, n={s['n']}{spread})")

    record = {
        "workload": args.workload, "scale": scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started_unix": started,
        "python": sys.version, "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "sizes": VERIFY[args.workload][scale] if args.workload in VERIFY else {
            "min_calls": MIN_CALLS[scale], "trace_batch": TRACE_BATCH[scale]},
        "end_to_end": e2e, "per_layer": record_metrics if args.trace else None,
        "attempted": attempted, "failed": failed,
        "reps": [{"traced": r in traced, "seconds": r.seconds, "load_before_after": r.load,
                  "setup_s": r.setups, "run_s": r.run, "cpu_s": r.cpu,
                  "peak_rss_mb": r.rss, "memo": r.memo, "failed": r.failed,
                  "groups": r.groups}
                 for r in reps],
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
