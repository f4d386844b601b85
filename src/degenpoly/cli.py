"""Command-line front end.

Subcommands:
  table    -- family polynomial tables (text/csv/json), optional evaluation
  stirling -- triangular Stirling tables as CSV rows
  verify   -- run identity checks, one JSON report per check plus a summary
  series   -- raw coefficients of a named kernel series

Results go to stdout, diagnostics to stderr.  Exit status is 0 only when
no check failed and no error occurred.  Output is byte-deterministic for a
fixed invocation: term ordering is canonical and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .combinat import StirlingKind, stirling_table
from .families import (
    FamilyKind,
    deg_cos_sin_series,
    deg_exp_series,
    family,
    kernel_series,
)
from .identities import IdentityEngine, IdentityId, summarize
from .multipoly import _LIMIT, MPoly

_IDENTITY_BY_VALUE = {tag.value: tag for tag in IdentityId}
_FAMILY_BY_VALUE = {kind.value: kind for kind in FamilyKind}


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: invalid rational {text!r}: {exc}")


def _check_size(name: str, value: Optional[int]) -> None:
    # A polynomial of degree value would overflow its exponent field, and
    # the builds would run a long time before the overflow showed.
    if value is not None and value >= _LIMIT:
        raise SystemExit(f"error: {name} {value} is too large: exponents must stay "
                         f"below {_LIMIT}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact degenerate Bernoulli/Euler polynomial families "
        "and machine-checked identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print family polynomials")
    p_table.add_argument("--family", required=True, choices=sorted(_FAMILY_BY_VALUE))
    group = p_table.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single index to print")
    group.add_argument("--n-max", type=int, help="print rows 0..n_max")
    p_table.add_argument("--order", type=int, default=None,
                         help="truncation order (default: highest index + 2)")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    for var in ("l", "x", "y", "r"):
        p_table.add_argument(f"--{var}", default=None, metavar="RAT",
                             help=f"bind variable {var} for evaluation; write a "
                             f"negative rational as --{var}=-3/7")

    p_stir = sub.add_parser("stirling", help="dump a Stirling table as CSV")
    p_stir.add_argument("--kind", required=True,
                        choices=[k.value for k in StirlingKind])
    p_stir.add_argument("--n-max", type=int, default=12)
    p_stir.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ver = sub.add_parser("verify", help="run identity checks")
    p_ver.add_argument("--identity", default="all",
                       help='"all" or comma-separated tags (e.g. T2_cos,T6_reflect_sin)')
    p_ver.add_argument("--n-max", type=int, default=12)
    p_ver.add_argument("--order", type=int, default=None,
                       help="truncation order (default: n_max + 2)")
    p_ver.add_argument("--format", choices=("json", "text"), default="json")

    p_ser = sub.add_parser("series", help="print raw EGF coefficients of a kernel")
    p_ser.add_argument("--kernel", required=True,
                       choices=("bernoulli", "euler", "cos", "sin", "exp-1", "exp-x"))
    p_ser.add_argument("--order", type=int, default=8)
    p_ser.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _table_rows(args) -> List[dict]:
    kind = _FAMILY_BY_VALUE[args.family]
    top = args.n if args.n is not None else args.n_max
    if top < 0:
        raise SystemExit("error: index must be non-negative")
    order = args.order if args.order is not None else top + 2
    _check_size("order", order)
    if order < top + 1:
        raise SystemExit(f"error: order {order} too small for index {top}")
    seq = family(kind, order)
    bindings = {
        var: _parse_rat(getattr(args, var))
        for var in ("l", "x", "y", "r")
        if getattr(args, var) is not None
    }
    wanted = [args.n] if args.n is not None else range(top + 1)
    rows = []
    for n in wanted:
        poly = seq[n]
        if bindings:
            try:
                value = str(poly.evaluate(bindings))
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
        else:
            value = poly.to_text()
        rows.append({"n": n, "value": value})
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args)
    if args.format == "json":
        print(_json_dumps({"family": args.family, "rows": rows}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "value"])
        for row in rows:
            writer.writerow([row["n"], row["value"]])
    else:
        if args.n is not None:
            print(rows[0]["value"])
        else:
            for row in rows:
                print(f"{row['n']}\t{row['value']}")
    return 0


def _cmd_stirling(args) -> int:
    if args.n_max < 0:
        raise SystemExit("error: n-max must be non-negative")
    table = stirling_table(StirlingKind(args.kind), args.n_max)
    entries = [
        (n, k, table.entry(n, k).to_text())
        for n in range(args.n_max + 1)
        for k in range(n + 1)
    ]
    if args.format == "json":
        print(_json_dumps({
            "kind": args.kind,
            "entries": [{"n": n, "k": k, "value": v} for n, k, v in entries],
        }))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for n, k, v in entries:
            writer.writerow([n, k, v])
    return 0


def _cmd_verify(args) -> int:
    order = args.order if args.order is not None else args.n_max + 2
    _check_size("order", order)
    try:
        engine = IdentityEngine(args.n_max, order)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.identity == "all":
        tags = list(IdentityId)
    else:
        tags = []
        for name in args.identity.split(","):
            name = name.strip()
            if name not in _IDENTITY_BY_VALUE:
                raise SystemExit(f"error: unknown identity tag {name!r}")
            tags.append(_IDENTITY_BY_VALUE[name])
    reports = []
    for tag in tags:
        reports.extend(engine.verify(tag))
    summary = summarize(reports, n_max=args.n_max, order=order)
    if args.format == "json":
        for rep in reports:
            print(_json_dumps(rep.to_json_dict()))
        print(_json_dumps({"summary": summary}))
    else:
        for rep in reports:
            line = f"{rep.id.value} n={rep.n} {rep.verdict}"
            if rep.verdict == "fails":
                line += f" residual={rep.lhs_minus_rhs.to_text()}"
            if rep.variant_note:
                line += f" ({rep.variant_note})"
            print(line)
        status = "OK" if summary["ok"] else "FAILED"
        print(f"{status}: {summary['holds']} hold, "
              f"{summary['holds_variant']} hold (variant), "
              f"{summary['fails']} fail")
    return 0 if summary["ok"] else 1


def _cmd_series(args) -> int:
    if args.order < 0:
        raise SystemExit("error: order must be non-negative")
    name = args.kernel
    if name in ("bernoulli", "euler"):
        series = kernel_series(name, args.order)
    elif name in ("cos", "sin"):
        cos, sin = deg_cos_sin_series(args.order)
        series = cos if name == "cos" else sin
    elif name == "exp-1":
        series = deg_exp_series(MPoly.one(), args.order)
    else:  # exp-x
        series = deg_exp_series(MPoly.variable("x"), args.order)
    if args.format == "json":
        print(_json_dumps({
            "kernel": name,
            "order": args.order,
            "coefficients": [c.to_text() for c in series.coeffs],
        }))
    else:
        for n, c in enumerate(series.coeffs):
            print(f"{n}\t{c.to_text()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": _cmd_table,
        "stirling": _cmd_stirling,
        "verify": _cmd_verify,
        "series": _cmd_series,
    }
    try:
        for name in ("n", "n_max", "order"):
            _check_size("--" + name.replace("_", "-"), getattr(args, name, None))
        return handlers[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
