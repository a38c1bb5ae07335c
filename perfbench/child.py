"""Run one vertexcalc CLI command in this process and record timing marks.

Usage: python3 child.py MARKS_PATH MODE ARGS...

MODE is ``plain``, ``trace`` or ``setup``.  With ``plain`` and ``trace``
the command runs exactly as ``vertexcalc ARGS`` would; stdout, stderr and
the exit code are the CLI's own.  With ``setup`` a verify command stops
where its first check would start and exits 0: it times set-up alone.  After the command
returns, a JSON object of marks is written to MARKS_PATH: monotonic
clock readings (comparable with the parent's, the clock is system-wide)
at import start and end, at work start (the first check, or the value
computation) and at work end (report written, or value printed); the
wall seconds of each check and the CPU seconds of the worker thread that
ran it; and in ``trace`` mode the tracer's counters and the size of every memo
table.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised in ``setup`` mode where the first check would start."""


def main() -> int:
    marks_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    marks = {"import_start": time.monotonic()}
    from vertexcalc import cli, report, series
    marks["import_end"] = time.monotonic()

    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    run_checks, cmd_compute, run_one = cli.run_checks, cli.cmd_compute, report._run_one
    check_cpu = marks["check_cpu"] = []

    def timed_run_one(chk):
        t0 = time.thread_time()
        result = run_one(chk)
        check_cpu.append(time.thread_time() - t0)
        return result

    def timed_run_checks(checks, threads=1):
        marks["work_start"] = time.monotonic()
        if mode == "setup":
            raise SetupDone()
        results = run_checks(checks, threads)
        marks["checks"] = [r.seconds for r in results]
        return results

    def timed_compute(args):
        marks["work_start"] = time.monotonic()
        return cmd_compute(args)

    cli.run_checks, cli.cmd_compute = timed_run_checks, timed_compute
    report._run_one = timed_run_one
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    sys.stdout.flush()
    marks["work_end"] = time.monotonic()
    if tracer is not None:
        marks["groups"] = tracer.groups()
        marks["memo"] = tracer_mod.memo_tables()
        marks["cache_limit"] = series.CACHE_LIMIT
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
