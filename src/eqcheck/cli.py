"""Command-line driver: check .eq files, render human or JSON diagnostics."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .checker import CheckConfig, Report, check_module
from .logic import DEFAULT_PLE_FUEL
from .parser import ParseError
from .syntax import Span, pretty_pred
from .types import TypeCheckError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2


def _use_color(stream) -> bool:
    mode = os.environ.get("EQCHECK_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, color: bool) -> str:
    """`text` in the ANSI color `code` (31 red, 32 green, 33 yellow) when
    `color` is set."""
    return f"\x1b[{code}m{text}\x1b[0m" if color else text


def _span_json(span: Span) -> dict:
    return {"line": span.line, "col": span.col,
            "end_line": span.end_line, "end_col": span.end_col}


def report_to_json(reports: list[Report]) -> list[dict]:
    out = []
    for report in reports:
        for v in report.verdicts:
            out.append({
                "file": report.file,
                "decl": v.decl,
                "id": v.oid,
                "kind": v.kind,
                "span": _span_json(v.span),
                "status": v.status,
                "goal": v.goal_text,
                "facts": list(v.fact_texts),
                "message": v.message,
            })
    return out


def render_human(reports: list[Report], color: bool) -> str:
    lines: list[str] = []
    total = failed = 0
    for report in reports:
        decls_failed: dict[str, int] = {}
        for v in report.verdicts:
            total += 1
            if not v.proved:
                failed += 1
                decls_failed[v.decl] = decls_failed.get(v.decl, 0) + 1
                where = f"{report.file}:{v.span.line}:{v.span.col}"
                lines.append(_paint(f"FAILED  {where}  {v.decl} [{v.kind}]", "31", color))
                if v.message:
                    lines.append(f"    {v.message}")
                if v.status == "fuel-exhausted":
                    lines.append("    (logical-evaluation fuel exhausted; "
                                 "try a larger --ple-fuel)")
                if v.goal_text:
                    lines.append(f"    goal:  {v.goal_text}")
                    for f in v.fact_texts:
                        lines.append(f"    fact:  {f}")
        for w in report.warnings:
            lines.append(_paint(f"warning: {report.file}: {w}", "33", color))
        ok_count = sum(1 for v in report.verdicts if v.proved)
        n = len(report.verdicts)
        status = _paint("OK", "32", color) if ok_count == n else _paint("FAILED", "31", color)
        lines.append(f"{report.file}: {status} ({ok_count}/{n} obligations proved)")
    if failed:
        lines.append(_paint(f"{failed} of {total} obligations failed", "31", color))
    return "\n".join(lines)


def _dump_facts(reports: list[Report], oid: str) -> Optional[str]:
    for report in reports:
        for ob in report.obligations:
            if ob.oid == oid:
                lines = [f"obligation {ob.oid} [{ob.kind}]", "facts:"]
                for f in ob.facts:
                    lines.append(f"  {pretty_pred(f)}")
                lines.append(f"goal: {pretty_pred(ob.goal)}")
                return "\n".join(lines)
    return None


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The `eqcheck` parser, built once per process: `parse_args` does not
    change it, and each build leaves reference cycles for the collector."""
    ap = argparse.ArgumentParser(
        prog="eqcheck",
        description="Check equational proofs and refinement-type signatures.")
    sub = ap.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="check one or more .eq files")
    chk.add_argument("files", nargs="+", help=".eq source files")
    chk.add_argument("--ple-default", action="store_true",
                     help="apply proof-by-logical-evaluation to every obligation")
    chk.add_argument("--strict-hints", action="store_true",
                     help="chain steps see only hints attached at or before them")
    chk.add_argument("--ple-fuel", type=int, default=DEFAULT_PLE_FUEL, metavar="N",
                     help="logical-evaluation rounds per saturation of a solver state "
                          "(default %(default)s)")
    chk.add_argument("--json", action="store_true", help="machine-readable output")
    chk.add_argument("--dump-facts", metavar="OBLIGATION-ID", default=None,
                     help="print one obligation's hypotheses and goal, then exit")
    chk.add_argument("--no-unused-hint-warnings", action="store_true",
                     help="skip the unused-hint analysis")
    return ap


def run(argv: list[str]) -> int:
    """Entry point used by both the console script and tests."""
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    if args.ple_fuel <= 0:
        print("eqcheck: --ple-fuel must be positive", file=sys.stderr)
        return EXIT_ERROR

    config = CheckConfig(
        ple_default=args.ple_default,
        strict_hints=args.strict_hints,
        ple_fuel=args.ple_fuel,
        # only human output shows warnings
        warn_unused_hints=not (args.no_unused_hint_warnings or args.json
                               or args.dump_facts),
    )

    reports: list[Report] = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as e:
            print(f"eqcheck: cannot read {path}: {e.strerror}", file=sys.stderr)
            return EXIT_ERROR
        except UnicodeDecodeError as e:
            print(f"eqcheck: cannot read {path}: not valid UTF-8 "
                  f"(byte {e.object[e.start]:#04x} at offset {e.start})", file=sys.stderr)
            return EXIT_ERROR
        try:
            reports.append(check_module(source, config, file=os.path.basename(path)))
        except (ParseError, TypeCheckError) as e:
            print(f"eqcheck: {path}: {e}", file=sys.stderr)
            return EXIT_ERROR
        except RecursionError:
            print(f"eqcheck: {path}: input nested too deeply", file=sys.stderr)
            return EXIT_ERROR

    if args.dump_facts:
        dump = _dump_facts(reports, args.dump_facts)
        if dump is None:
            print(f"eqcheck: no obligation named {args.dump_facts!r}", file=sys.stderr)
            return EXIT_ERROR
        print(dump)
        return EXIT_OK

    if args.json:
        print(json.dumps(report_to_json(reports), indent=2))
    else:
        print(render_human(reports, _use_color(sys.stdout)))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
