"""Command-line front end.

Subcommands:
  table    -- family polynomial tables (text/csv/json), optional evaluation
  stirling -- triangular Stirling tables as CSV rows
  verify   -- run identity checks, one JSON report per check plus a summary
  series   -- raw coefficients of a named kernel series

Results go to stdout, diagnostics to stderr.  Exit status is 0 only when
no check failed and no error occurred.  Bad input of any kind (a size, a
rational, a tag, an unbound variable, or a size a builder rejects) raises
ValueError, and ``main`` reports every ValueError as ``error: ...`` on
stderr with exit status 2.  Output is byte-deterministic for a
fixed invocation: term ordering is canonical and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .combinat import StirlingKind, stirling_table
from .families import (
    FamilyKind,
    deg_cos_sin_series,
    deg_exp_series,
    family,
    kernel_series,
)
from .identities import IdentityEngine, IdentityId, summarize
from .multipoly import MPoly, as_size


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


# The variables of Q[l, x, y], where every family lives: those `table` binds.
# Whether a row holds one depends on the row, so `evaluate` finds an unbound one.
_VARIABLES = ("l", "x", "y")


# The series each `series --kernel` name prints, as a function of the order.
_SERIES = {
    "bernoulli": lambda order: kernel_series("bernoulli", order),
    "euler": lambda order: kernel_series("euler", order),
    "cos": lambda order: deg_cos_sin_series(order)[0],
    "sin": lambda order: deg_cos_sin_series(order)[1],
    "exp-1": lambda order: deg_exp_series(MPoly.one(), order),
    "exp-x": lambda order: deg_exp_series(MPoly.variable("x"), order),
}


class _SubcommandParser(argparse.ArgumentParser):
    """Reports an unknown option with the subcommand's usage, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact degenerate Bernoulli/Euler polynomial families "
        "and machine-checked identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p_table = sub.add_parser("table", help="print family polynomials")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("--family", required=True,
                         choices=sorted(kind.value for kind in FamilyKind))
    group = p_table.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single index to print")
    group.add_argument("--n-max", type=int, help="print rows 0..n_max")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    for var in _VARIABLES:
        p_table.add_argument(f"--{var}", default=None, metavar="RAT",
                             help=f"bind variable {var} for evaluation; write a "
                             f"negative rational as --{var}=-3/7")

    p_stir = sub.add_parser("stirling", help="dump a Stirling table as CSV")
    p_stir.set_defaults(run=_cmd_stirling)
    p_stir.add_argument("--kind", required=True,
                        choices=[k.value for k in StirlingKind])
    p_stir.add_argument("--n-max", type=int, default=12)
    p_stir.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ver = sub.add_parser("verify", help="run identity checks")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--identity", default="all",
                       help='"all" or comma-separated tags (e.g. T2_cos,T6_reflect_sin)')
    p_ver.add_argument("--n-max", type=int, default=12)
    p_ver.add_argument("--order", type=int, default=None,
                       help="truncation order, at least n_max + 1 and echoed in the "
                       "summary; the checks build to degree n_max + 1 whatever its "
                       "value (default: n_max + 2)")
    p_ver.add_argument("--format", choices=("json", "text"), default="json")

    p_ser = sub.add_parser("series", help="print raw EGF coefficients of a kernel")
    p_ser.set_defaults(run=_cmd_series)
    p_ser.add_argument("--kernel", required=True,
                       choices=_SERIES)
    p_ser.add_argument("--order", type=int, default=8)
    p_ser.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _write_rows(fmt: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows as CSV under ``header``, or as tab-separated text lines."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for row in rows:
            print(*row, sep="\t")


def _cmd_table(args) -> int:
    # Parsed before the build, so a bad rational exits before any row is built.
    bindings = {
        var: _parse_rat(getattr(args, var))
        for var in _VARIABLES
        if getattr(args, var) is not None
    }
    top = args.n if args.n is not None else args.n_max
    seq = family(FamilyKind(args.family), top)
    rows = []
    for n in [top] if args.n is not None else range(top + 1):
        rows.append((n, str(seq[n].evaluate(bindings)) if bindings else seq[n].to_text()))
    if args.format == "json":
        print(_json_dumps({"family": args.family,
                           "rows": [{"n": n, "value": v} for n, v in rows]}))
    elif args.format == "text" and args.n is not None:
        print(rows[0][1])
    else:
        _write_rows(args.format, ("n", "value"), rows)
    return 0


def _cmd_stirling(args) -> int:
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
        _write_rows("csv", ("n", "k", "value"), entries)
    return 0


def _cmd_verify(args) -> int:
    # A given --order passed main's size check; the default is checked here.
    order = (args.order if args.order is not None
             else as_size(args.n_max + 2, "the default order n_max + 2"))
    if order < args.n_max + 1:
        raise ValueError(f"order {order} too small: "
                         f"need order >= n_max + 1 = {args.n_max + 1}")
    engine = IdentityEngine(args.n_max)
    if args.identity == "all":
        tags = list(IdentityId)
    else:
        tags = []
        for name in args.identity.split(","):
            name = name.strip()
            try:
                tag = IdentityId(name)
            except ValueError:
                raise ValueError(f"unknown identity tag {name!r}") from None
            if tag in tags:
                raise ValueError(f"repeated identity tag {name!r}")
            tags.append(tag)
    reports = []
    for tag in tags:
        reports.extend(engine.verify(tag))
    summary = {**summarize(reports), "n_max": args.n_max, "order": order}
    if args.format == "json":
        for rep in reports:
            print(_json_dumps(rep.to_json_dict()))
        print(_json_dumps({"summary": summary}))
    else:
        for rep in reports:
            line = f"{rep.id.value} n={rep.n} {rep.verdict}"
            for name, residual in rep.failing:
                line += f" residual[{name}]={residual.to_text()}"
            if rep.variant_note:
                line += f" ({rep.variant_note})"
            print(line)
        status = "OK" if summary["ok"] else "FAILED"
        print(f"{status}: {summary['holds']} hold, "
              f"{summary['holds_variant']} hold (variant), "
              f"{summary['fails']} fail")
    return 0 if summary["ok"] else 1


def _cmd_series(args) -> int:
    coefficients = [c.to_text() for c in _SERIES[args.kernel](args.order).polys]
    if args.format == "json":
        print(_json_dumps({"kernel": args.kernel, "order": args.order,
                           "coefficients": coefficients}))
    else:
        _write_rows("text", (), enumerate(coefficients))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("n", "n_max", "order"):
            if getattr(args, name, None) is not None:
                as_size(getattr(args, name), "--" + name.replace("_", "-"))
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
