"""Command line front end: verification sweeps and exact single values.

Human output prints q-exponents (halved t-exponents) whenever every
exponent is even, otherwise t-exponents; JSON carries a units field
recording that choice, while serialized exponent keys always live on
the half-power (t, s) lattice.  Verification reports never embed wall
time, so fixed parameters give byte-identical JSON files regardless of
the worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from time import perf_counter

from . import fcoeff, ksum, nekrasov, vertex
from .partitions import conjugate
from .prodred import multiset_json, pair_multiset
from .report import render_human, report_json, run_checks
from .series import (LaurentFraction, LaurentPoly, coeff_json, expand_in_q_multi,
                     multiqseries_json, qseries_json)
from .suites import SUITE_ORDER, build_suite


class UsageError(Exception):
    pass


def partition_arg(text: str):
    t = text.strip()
    if t in ("", "0", "()"):
        return ()
    try:
        parts = [int(x) for x in t.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition: {text!r}")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(f"bad partition: {text!r}")
    return tuple(sorted((p for p in parts if p), reverse=True))


def _even_keys(keys) -> bool:
    return all(all(e % 2 == 0 for e in k) for k in keys)


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


def poly_str(p: LaurentPoly, units: str | None = None) -> str:
    if not p.d:
        return "0"
    naxes = max(max((len(k) for k in p.d), default=1), 1)
    if units is None:
        units = "q" if _even_keys(p.d) else "t"
    return _join_terms([_term_str(c, _mono_str(k, units, naxes))
                        for k, c in reversed(p.terms())])


def fraction_str(fr: LaurentFraction) -> tuple[str, str]:
    den = fr.den_poly()
    units = "q" if _even_keys(list(fr.num.d) + list(den.d)) else "t"
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
    units = "q" if all(e % 2 == 0 for e in table) else "t"
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


def _need(args, *names):
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise UsageError(f"compute {args.kind} needs --{name}")
        vals.append(v)
    return vals


def _fraction_output(fr: LaurentFraction, args, params: dict):
    if args.expand:
        order = args.order if args.order is not None else 10
        table = (fr.expand_at_zero(order) if args.expand == "at_zero"
                 else fr.expand_at_infinity(order))
        text, units = expansion_str(table, args.expand, order)
        value = [[e, str(Fraction(c))] for e, c in sorted(table.items())]
        params["expand"] = args.expand
        params["order"] = order
        return text, units, value
    text, units = fraction_str(fr)
    return text, units, coeff_json(fr)


def cmd_compute(args) -> int:
    for name in ("qdeg", "m", "bdeg", "fdeg", "order"):
        if (getattr(args, name) or 0) < 0:
            raise UsageError(f"--{name} must be at least 0")
    if args.order is not None and not args.expand:
        raise UsageError("--order needs --expand")
    if args.expand and args.kind not in ("w1", "w2", "w3") and not (
            args.kind == "k" and args.transpose2):
        raise UsageError("--expand applies only to w1, w2, w3 and k --transpose2")
    params: dict = {}
    if args.kind == "w1":
        (mu,) = _need(args, "mu")
        params["mu"] = list(mu)
        text, units, value = _fraction_output(vertex.w1(mu), args, params)
    elif args.kind == "w2":
        mu1, mu2 = _need(args, "mu1", "mu2")
        params["mu1"], params["mu2"] = list(mu1), list(mu2)
        text, units, value = _fraction_output(vertex.w2(mu1, mu2), args, params)
    elif args.kind == "w3":
        mu1, mu2, mu3 = _need(args, "mu1", "mu2", "mu3")
        params["mu1"], params["mu2"], params["mu3"] = list(mu1), list(mu2), list(mu3)
        text, units, value = _fraction_output(vertex.w3(mu1, mu2, mu3), args, params)
    elif args.kind == "f":
        mu1, mu2 = _need(args, "mu1", "mu2")
        params["mu1"], params["mu2"] = list(mu1), list(mu2)
        params["transpose2"] = args.transpose2
        second = conjugate(mu2) if args.transpose2 else mu2
        if args.two_var:
            params["two_var"] = True
            fr = (fcoeff.f_pair_2var_transposed(mu1, mu2) if args.transpose2
                  else fcoeff.f_pair_2var(mu1, mu2))
            text, units, value = _fraction_output(fr, args, params)
        else:
            poly = fcoeff.f_pair(mu1, second)
            text = poly_str(poly)
            units = "q" if _even_keys(poly.d) else "t"
            value = coeff_json(poly)
    elif args.kind == "k":
        mu1, mu2 = _need(args, "mu1", "mu2")
        params["mu1"], params["mu2"] = list(mu1), list(mu2)
        params["transpose2"] = args.transpose2
        if args.transpose2:
            fr = ksum.k_transposed_rational(mu1, mu2)
            if args.expand:
                if args.expand != "at_zero":
                    raise UsageError("the series form only expands at_zero in Q")
                order = args.order if args.order is not None else 4
                qs = expand_in_q_multi(fr, (order,))
                params["expand"], params["order"] = args.expand, order
                text, units, value = qseries_str(qs), "t", qseries_json(qs)
            else:
                text, units = fraction_str(fr)
                value = coeff_json(fr)
        else:
            qdeg = args.qdeg if args.qdeg is not None else 4
            params["qdeg"] = qdeg
            qs = ksum.k_brute(mu1, mu2, qdeg)
            text, units, value = qseries_str(qs), "t", qseries_json(qs)
    elif args.kind == "z":
        m = args.m if args.m is not None else 0
        bdeg = args.bdeg if args.bdeg is not None else 2
        fdeg = args.fdeg if args.fdeg is not None else 4
        params["m"], params["bdeg"], params["fdeg"] = m, bdeg, fdeg
        zz = nekrasov.z_su2(m, bdeg, fdeg)
        value = multiqseries_json(zz)
        units = "t"
        text = json.dumps(value, sort_keys=True)
    else:
        mu1, mu2 = _need(args, "mu1", "mu2")
        params["mu1"], params["mu2"] = list(mu1), list(mu2)
        pairs = multiset_json(pair_multiset(mu1, mu2))
        text = "[" + ",".join(f"({m},{c})" for m, c in pairs) + "]"
        units = "t"
        value = pairs
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
    checks = build_suite(args.suite, params, args.inject_failure)
    t0 = perf_counter()
    results = run_checks(checks, cfg.get("threads", 1))
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


if __name__ == "__main__":
    sys.exit(main())
