"""Command line front end: verification sweeps and exact single values.

Human output prints q-exponents (halved t-exponents) whenever every
exponent is even, otherwise t-exponents; JSON carries a units field
recording that choice, while serialized exponent keys always live on
the half-power (t, s) lattice.  Verification reports never embed wall
time, so fixed parameters give byte-identical JSON files.  Checks run in
one thread; --threads N is still accepted and validated, and N > 1 only
draws a note on stderr.

compute runs one path for every kind: COMPUTE_READS says which flags each
kind form reads and what an absent one defaults to, COMPUTE_BUILD turns
the resolved flags into a value, and _render picks the human text and the
JSON value by that value's type.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from time import perf_counter

from . import fcoeff, ksum, nekrasov, vertex
from .partitions import conjugate, normalize
from .prodred import multiset_json, pair_multiset
from .report import render_human, report_json, run_checks
from .series import (LaurentFraction, LaurentPoly, MultiQSeries, coeff_json,
                     expand_in_q_multi, multiqseries_json, qseries_json)
from .suites import SUITE_ORDER, build_suite


class UsageError(Exception):
    pass


def partition_arg(text: str):
    t = text.strip()
    if t in ("", "()"):
        return ()
    try:
        return normalize(sorted((int(x) for x in t.split(",")), reverse=True))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition: {text!r}")


def _units(exponents) -> str:
    """q-units when every exponent is even, t-units otherwise."""
    return "q" if all(e % 2 == 0 for e in exponents) else "t"


def _mono_str(key, units: str, naxes: int) -> str:
    parts = []
    for i in range(naxes):
        e = key[i] if i < len(key) else 0
        if not e:
            continue
        if units == "q":
            name = "q" if i == 0 else ("Q" if naxes <= 2 else f"Q{i}")
            e //= 2
        else:
            name = "t" if i == 0 else ("s" if naxes <= 2 else f"s{i}")
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _term_str(c, m: str) -> str:
    """One term: coefficient c times the monomial text m, empty for a constant."""
    if not m:
        return str(c)
    if c == 1:
        return m
    if c == -1:
        return "-" + m
    return f"{c}*{m}"


def _join_terms(terms) -> str:
    out = terms[0]
    for s in terms[1:]:
        out += " - " + s[1:] if s.startswith("-") else " + " + s
    return out


def poly_str(p: LaurentPoly, units: str) -> str:
    if not p:
        return "0"
    naxes = max(p.nvars, 1)
    return _join_terms([_term_str(c, _mono_str(k, units, naxes))
                        for k, c in reversed(p.terms())])


def fraction_str(fr: LaurentFraction) -> tuple[str, str]:
    den = fr.den_poly()
    units = _units(e for k in (*fr.num.d, *den.d) for e in k)
    if not fr.den:
        return poly_str(fr.num, units), units
    num_p, den_p = fr.num, den
    if poly_str(den_p, units).startswith("-"):
        num_p, den_p = num_p.scale(-1), den_p.scale(-1)
    num = poly_str(num_p, units)
    if " " in num:
        num = f"({num})"
    return f"{num} / ({poly_str(den_p, units)})", units


def qseries_str(qs) -> str:
    pieces = []
    trunc = qs.dims[0]
    for d in range(trunc + 1):
        c = qs.get((d,))
        if not c:
            continue
        cs, _ = fraction_str(c)
        if d == 0:
            pieces.append(cs if " " not in cs else f"({cs})")
        else:
            var = "Q" if d == 1 else f"Q^{d}"
            pieces.append(f"({cs})*{var}")
    body = " + ".join(pieces) if pieces else "0"
    return f"{body} + O(Q^{trunc + 1})"


def expansion_str(table: dict, mode: str, order: int) -> tuple[str, str]:
    units = _units(table)
    name = "q" if units == "q" else "t"
    terms = []
    for e in sorted(table):
        c = table[e]
        ee = e // 2 if units == "q" else e
        if mode == "at_infinity":
            ee = -ee
        terms.append(_term_str(c, "" if ee == 0 else name if ee == 1 else f"{name}^{ee}"))
    cut = order + 1 if units == "t" else order // 2 + 1
    if mode == "at_infinity":
        cut = -cut
    tail = f"O({name}^{cut})"
    return (_join_terms(terms) + " + " + tail if terms else tail), units


CONFIG_KEYS = {"max_weight", "qdeg", "bdeg", "fdeg", "m", "n", "threads"}
VERIFY_SIZES = ("max_weight", "qdeg", "bdeg", "fdeg", "m", "n")


def check_size(key: str, val: int, label: str) -> None:
    """Verify sizes and config values are positive; m and bdeg may also be 0."""
    least = 0 if key in ("m", "bdeg") else 1
    if val < least:
        raise UsageError(f"{label} must be at least {least}")


def load_config(path: str) -> dict:
    vals = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key: {key}")
        try:
            vals[key] = int(val)
        except ValueError:
            raise UsageError(f"config value for {key} must be an integer")
        check_size(key, vals[key], f"config value for {key}")
    return vals


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vertexcalc",
                                     description="Exact amplitude and series identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITE_ORDER + ["all"])
    ver.add_argument("--max-weight", type=int, dest="max_weight")
    ver.add_argument("--qdeg", type=int)
    ver.add_argument("--bdeg", type=int)
    ver.add_argument("--fdeg", type=int)
    ver.add_argument("--m", type=int)
    ver.add_argument("--n", type=int)
    ver.add_argument("--threads", type=int)
    ver.add_argument("--json", metavar="PATH")
    ver.add_argument("--config", metavar="PATH")
    ver.add_argument("--inject-failure", action="store_true", dest="inject_failure")

    comp = sub.add_parser("compute", help="print one exact value")
    comp.add_argument("kind", choices=["w1", "w2", "w3", "f", "k", "z", "multiset"])
    comp.add_argument("--mu", type=partition_arg)
    comp.add_argument("--mu1", type=partition_arg)
    comp.add_argument("--mu2", type=partition_arg)
    comp.add_argument("--mu3", type=partition_arg)
    comp.add_argument("--qdeg", type=int)
    comp.add_argument("--m", type=int)
    comp.add_argument("--bdeg", type=int)
    comp.add_argument("--fdeg", type=int)
    comp.add_argument("--transpose2", action="store_true")
    comp.add_argument("--two-var", action="store_true", dest="two_var")
    comp.add_argument("--expand", choices=["at_zero", "at_infinity"])
    comp.add_argument("--order", type=int)
    comp.add_argument("--json", metavar="PATH")
    return parser


def _fraction_output(fr: LaurentFraction, expand: str | None, order: int | None):
    if expand:
        table = fr.expand_at_zero(order) if expand == "at_zero" else fr.expand_at_infinity(order)
        text, units = expansion_str(table, expand, order)
        return text, units, [[e, str(Fraction(c))] for e, c in sorted(table.items())]
    text, units = fraction_str(fr)
    return text, units, coeff_json(fr)


def _render(value, vals: dict):
    """Human text, units and JSON value of a computed value, picked by its type."""
    if isinstance(value, LaurentFraction):
        return _fraction_output(value, vals.get("expand"), vals.get("order"))
    if isinstance(value, MultiQSeries):
        if len(value.dims) == 1:
            return qseries_str(value), "t", qseries_json(value)
        js = multiqseries_json(value)
        return json.dumps(js, sort_keys=True), "t", js
    pairs = multiset_json(value)
    return "[" + ",".join(f"({m},{c})" for m, c in pairs) + "]", "t", pairs


# For each kind form, the flags it reads and what each defaults to when
# absent; a flag left at None stays out of the JSON params.  Every
# partition flag a form reads is required; --order applies only with
# --expand.  k reads --qdeg in its plain form and --expand and --order in
# its --transpose2 form.
COMPUTE_READS = {
    "w1": {"mu": None, "expand": None, "order": 10},
    "w2": {"mu1": None, "mu2": None, "expand": None, "order": 10},
    "w3": {"mu1": None, "mu2": None, "mu3": None, "expand": None, "order": 10},
    "f": {"mu1": None, "mu2": None, "transpose2": False, "two_var": None},
    "k": {"mu1": None, "mu2": None, "transpose2": False, "qdeg": 4},
    "k --transpose2": {"mu1": None, "mu2": None, "transpose2": True,
                       "expand": None, "order": 4},
    "z": {"m": 0, "bdeg": 2, "fdeg": 4},
    "multiset": {"mu1": None, "mu2": None},
}
COMPUTE_FLAGS = sorted(set().union(*COMPUTE_READS.values()))


def _f(v: dict):
    if v["two_var"]:
        pair = fcoeff.f_pair_2var_transposed if v["transpose2"] else fcoeff.f_pair_2var
        return pair(v["mu1"], v["mu2"])
    second = conjugate(v["mu2"]) if v["transpose2"] else v["mu2"]
    return LaurentFraction.from_poly(fcoeff.f_pair(v["mu1"], second))


def _k_transposed(v: dict):
    if v["expand"] not in (None, "at_zero"):
        raise UsageError("the series form only expands at_zero in Q")
    fr = ksum.k_transposed_rational(v["mu1"], v["mu2"])
    return expand_in_q_multi(fr, (v["order"],)) if v["expand"] else fr


# The value of each kind form, from its resolved flags.
COMPUTE_BUILD = {
    "w1": lambda v: vertex.w1(v["mu"]),
    "w2": lambda v: vertex.w2(v["mu1"], v["mu2"]),
    "w3": lambda v: vertex.w3(v["mu1"], v["mu2"], v["mu3"]),
    "f": _f,
    "k": lambda v: ksum.k_brute(v["mu1"], v["mu2"], v["qdeg"]),
    "k --transpose2": _k_transposed,
    "z": lambda v: nekrasov.z_su2(v["m"], v["bdeg"], v["fdeg"]),
    "multiset": lambda v: pair_multiset(v["mu1"], v["mu2"]),
}


def cmd_compute(args) -> int:
    form = "k --transpose2" if args.kind == "k" and args.transpose2 else args.kind
    reads = COMPUTE_READS[form]
    for name in COMPUTE_FLAGS:
        val = getattr(args, name)
        if val is not None and val is not False and name not in reads:
            raise UsageError(f"compute {form} does not read --{name.replace('_', '-')}")
    for name in ("qdeg", "m", "bdeg", "fdeg", "order"):
        if (getattr(args, name) or 0) < 0:
            raise UsageError(f"--{name} must be at least 0")
    if args.order is not None and not args.expand:
        raise UsageError("--order needs --expand")
    vals = {}
    for name, default in reads.items():
        val = getattr(args, name)
        if val is None or val is False:
            if name.startswith("mu"):
                raise UsageError(f"compute {args.kind} needs --{name}")
            val = default
        vals[name] = val
    params = {name: list(val) if name.startswith("mu") else val for name, val in vals.items()
              if val is not None and (name != "order" or args.expand)}
    text, units, value = _render(COMPUTE_BUILD[form](vals), vals)
    print(text)
    if args.json:
        payload = {"kind": args.kind, "params": params, "units": units, "value": value}
        write_text(args.json, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    for key in VERIFY_SIZES + ("threads",):
        val = getattr(args, key)
        if val is not None:
            check_size(key, val, "--" + key.replace("_", "-"))
            cfg[key] = val
    params = {key: cfg.get(key) for key in VERIFY_SIZES}
    threads = cfg.get("threads", 1)
    if threads > 1:
        print(f"note: threads = {threads} ignored; checks run in one thread", file=sys.stderr)
    checks = build_suite(args.suite, params, args.inject_failure)
    t0 = perf_counter()
    results = run_checks(checks, threads)
    elapsed = perf_counter() - t0
    print(render_human(args.suite, results, elapsed))
    if args.json:
        write_text(args.json, report_json(args.suite, params, results))
    return 0 if all(r.status == "pass" for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_compute(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, RecursionError) as exc:
        # a partition whose exponents leave the packed key range, or whose
        # cells nest deeper than the interpreter's recursion limit
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
