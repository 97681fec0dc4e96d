"""Command-line front-end: series inversion and identity verification.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or contract error.  JSON output is deterministic: identical
flags and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .combinat import bell_polynomial, set_partitions
from .series import (
    EgfSeries,
    INVERSE_METHODS,
    from_json_dict,
    log_form_terms,
    ogf_to_egf,
    to_json_dict,
)
from .verify import SUITES, run_suite


def _load_series(args) -> EgfSeries:
    if args.input:
        with open(args.input) as handle:
            return from_json_dict(json.load(handle))
    coeffs = args.coeffs.split(",")
    if args.convention == "ogf":
        coeffs = ogf_to_egf(coeffs)
    return EgfSeries(coeffs)


def _json(value, indent: str = "\n") -> str:
    # json.dumps(value, indent=2, sort_keys=True), byte for byte: json's encoder for an
    # indent is a set of mutually recursive closures, which every call leaves behind as
    # reference cycles; this recursion leaves none. Keys are strings, and a number, bool,
    # None or empty container is json.dumps's own one-line form
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        fields = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                  for k, v in sorted(value.items())]
        return "{" + ",".join(fields) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + ",".join([inner + _json(v, inner) for v in value]) + indent + "]"
    return json.dumps(value)


def _cmd_invert(args) -> int:
    f = _load_series(args)
    order = args.order
    methods = list(INVERSE_METHODS) if args.method == "all" else [args.method]
    needed = order if methods == ["newton"] else order + 1
    results = {name: INVERSE_METHODS[name](f, order) for name in methods}
    inverse = results[methods[0]]
    agree = all(g == inverse for g in results.values())
    c_terms = log_form_terms(f, order) if "log" in methods else None

    if args.format == "json":
        payload = {
            "method": args.method,
            "order": order,
            "input": to_json_dict(f.truncate(needed), args.convention),
            "inverse": to_json_dict(inverse, args.convention),
        }
        if args.method == "all":
            payload["agree"] = agree
            payload["results"] = {
                name: to_json_dict(g, args.convention) for name, g in results.items()
            }
        if c_terms is not None:
            payload["c"] = [str(c) for c in c_terms.coeffs]
        print(_json(payload))
    else:
        print(f"method: {args.method}")
        print(f"inverse: {inverse}")
        print("b:", ", ".join(str(c) for c in inverse.coeffs[1:]))
        if c_terms is not None:
            print("c:", ", ".join(str(c) for c in c_terms.coeffs))
        if args.method == "all":
            print(f"agree: {'true' if agree else 'false'}")
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    reports = run_suite(
        args.theorem,
        seed=args.seed,
        trials=args.trials,
        n=args.n,
        degree=args.degree,
        m=args.m,
        order=args.order,
    )
    if args.format == "json":
        print(_json([r.as_dict() for r in reports]))
    else:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.theorem} [{r.description}] "
                  f"({r.elapsed:.3f}s)")
            if not r.passed:
                print(f"  left:  {r.left}")
                print(f"  right: {r.right}")
        total = len(reports)
        good = sum(r.passed for r in reports)
        print(f"{good}/{total} passed")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_partitions(args) -> int:
    parts = set_partitions(args.m)
    if args.format == "json":
        print(_json({"m": args.m, "count": len(parts), "partitions": [str(p) for p in parts]}))
    else:
        for p in parts:
            print(p)
        print(f"count: {len(parts)}")
    return 0


def _cmd_bell(args) -> int:
    poly = bell_polynomial(args.m)
    if args.format == "json":
        print(_json({
            "m": args.m,
            "polynomial": str(poly),
            "coefficients": {str(part): count for part, count in poly.items()},
        }))
    else:
        print(poly)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opseries",
        description="Exact compositional inversion of power series and "
        "verification of the differential-operator identities behind it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invert", help="compositionally invert a series")
    source = p_inv.add_mutually_exclusive_group(required=True)
    source.add_argument("--coeffs", help="comma-separated rational coefficients, index 0 first")
    source.add_argument("--input", help="path to a series JSON file")
    p_inv.add_argument("--order", type=int, required=True, help="number of inverse coefficients")
    p_inv.add_argument(
        "--method",
        choices=sorted(INVERSE_METHODS) + ["all"],
        default="all",
        help="inversion algorithm (default: all, with agreement check)",
    )
    p_inv.add_argument(
        "--convention",
        choices=["egf", "ogf"],
        default="egf",
        help="coefficient convention for --coeffs input and for output",
    )
    p_inv.add_argument("--format", choices=["json", "text"], default="text")
    p_inv.set_defaults(func=_cmd_invert)

    p_ver = sub.add_parser("verify", help="run one identity suite")
    p_ver.add_argument("theorem", choices=list(SUITES))
    p_ver.add_argument("--trials", type=int, help="random instances (default 1)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--n", type=int, help="variable count (default 2)")
    p_ver.add_argument("--degree", type=int, help="coefficient degree bound (default 2)")
    for flag, what in (("m", "instance size"), ("order", "series or z order")):
        readers = ", ".join(f"{suite} (default {row[0][flag]})"
                            for suite, row in SUITES.items() if flag in row[0])
        p_ver.add_argument(f"--{flag}", type=int, default=None, help=f"{what}, read by {readers}")
    p_ver.add_argument("--format", choices=["json", "text"], default="text")
    p_ver.set_defaults(func=_cmd_verify)

    p_par = sub.add_parser("partitions", help="enumerate set partitions of 1..m")
    p_par.add_argument("m", type=int)
    p_par.add_argument("--format", choices=["json", "text"], default="text")
    p_par.set_defaults(func=_cmd_partitions)

    p_bell = sub.add_parser("bell", help="print the degree-m Bell polynomial")
    p_bell.add_argument("m", type=int)
    p_bell.add_argument("--format", choices=["json", "text"], default="text")
    p_bell.set_defaults(func=_cmd_bell)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
