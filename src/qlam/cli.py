"""Command-line interface: check, run, confluence, and fmt subcommands.

Exit codes: 0 on success, 1 when checking or a confluence suite fails (or a
run hits its step budget), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .confluence import GenConfig, run_suite
from .ensemble import (
    NAMED_CHOOSERS,
    EnsembleCapError,
    StepLimitError,
    evaluate,
    sample,
)
from .parser import ParseError, Program, parse_program
from .quantum import GateAtom, RegisterSizeError, RegisterWidthError
from .reduction import RULESET_ST, Position, stuck_sites
from .syntax import GateConst, Term, format_amplitude, format_position, pretty
from .wellformed import WfReport, check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _error(message: object, code: int = EXIT_USAGE) -> int:
    """Print ``error: message`` on stderr and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


class ProgramFileError(Exception):
    """A program file that cannot be read as UTF-8 text."""


def _load_program(path: str) -> Program:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProgramFileError(f"{path}: not valid UTF-8 (byte 0x{raw[exc.start]:02x} "
                               f"at offset {exc.start})") from None
    # newlines as a text-mode read translates them
    return parse_program(source.replace("\r\n", "\n").replace("\r", "\n"))


def _checked_report(program: Program, strict: bool) -> tuple[WfReport, Term | None]:
    target = program.main
    if target is None:
        if not program.defs:
            return WfReport([((), "program", "no definitions in file")]), None
        # no main: check every definition body
        report = WfReport()
        for name, term in program.defs:
            report.violations.extend((pos, rule, f"{name}: {msg}")
                                     for pos, rule, msg in check(term).violations)
    else:
        report = check(target)
    if strict:
        for line, col, msg in program.strict_notes:
            report.violations.append(((), "strict-surface", f"{line}:{col}: {msg}"))
    return report, target


def _report_json(report: WfReport) -> dict:
    return {
        "verdict": report.verdict,
        "violations": [
            {"position": format_position(pos), "rule": rule, "message": msg}
            for pos, rule, msg in report.violations
        ],
    }


def _print_report(report: WfReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_report_json(report), indent=2))
        return
    if report.verdict:
        print("well-formed")
        return
    print("not well-formed:")
    for pos, rule, msg in report.violations:
        print(f"  [{format_position(pos)}] {rule}: {msg}")


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    report, _ = _checked_report(program, args.strict_wf)
    _print_report(report, args.json)
    return EXIT_OK if report.verdict else EXIT_FAIL


def _trace_printer(_step: int, _entry: int, position: Position, rule: str,
                   target: Term, probability: float) -> None:
    print(f"  {rule} @{format_position(position)} p={probability:.12g} "
          f"-> {pretty(target)}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("QLAM_SEED")
    if seed is None and args.sample and env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            return _error(f"QLAM_SEED must be an integer, not {env_seed!r}")
    if args.max_steps < 1:
        return _error("max_steps must be >= 1")
    if args.sample and seed is None:
        return _error("sample mode requires a seed (pass --seed or set QLAM_SEED)")
    if args.sample and args.strategy != "strategy":
        return _error(f"--strategy {args.strategy} applies to ensemble evaluation only; "
                      "sample mode follows the deterministic strategy")
    program = _load_program(args.file)
    report, target = _checked_report(program, args.strict_wf)
    if target is None:
        return _error("program has no main")
    if not report.verdict:
        _print_report(report, args.json)
        return EXIT_FAIL

    trace = _trace_printer if args.trace else None

    try:
        if args.sample:
            result = sample(target, seed, max_steps=args.max_steps, trace=trace)
        else:
            chooser = NAMED_CHOOSERS[args.strategy](RULESET_ST)
            res = evaluate(target, max_steps=args.max_steps, chooser=chooser, trace=trace)
    except (StepLimitError, EnsembleCapError, RegisterSizeError) as exc:
        return _error(exc, EXIT_FAIL)
    if args.sample:
        if args.json:
            print(json.dumps({"term": pretty(result), "seed": seed}, indent=2))
        else:
            print(pretty(result))
        return EXIT_OK
    if args.json:
        print(json.dumps(res.ensemble.to_json(res.status), indent=2))
    else:
        print(f"status: {res.status} ({res.steps} steps)")
        for term, p in res.ensemble.entries:
            print(f"  p={p:.12g}  {pretty(term)}")
        stuck = [site for term, _ in res.ensemble.entries for site in stuck_sites(term)]
        for pos, why in stuck:
            print(f"  note: stuck at {format_position(pos)}: {why}")
    return EXIT_OK if res.status == "Converged" else EXIT_FAIL


def _cmd_confluence(args: argparse.Namespace) -> int:
    try:
        config = GenConfig(max_size=args.max_size, max_width=args.max_width,
                           seed=args.seed, count=args.count)
    except ValueError as exc:
        return _error(exc)
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(","):
            left, _, right = chunk.partition(":")
            if left not in ("S", "T") or right not in ("S", "T"):
                return _error(f"bad rule-set pair {chunk!r} (use S:T etc.)")
            pairs.append((left, right))
        required = set(range(len(pairs)))
    else:
        pairs = [("T", "T"), ("S", "T"), ("S", "S")]
        # the S:S diamond is informational by default; it is not part of the
        # guarantees the T and commutation suites certify
        required = {0, 1}
    summary = run_suite(config, tuple(pairs))
    if args.json:
        print(json.dumps(summary.to_json(), indent=2))
    else:
        for r in summary.results:
            status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
            print(f"{r.rules_a}:{r.rules_b}  terms={r.terms_checked} "
                  f"pairs={r.pairs_checked} skipped={r.skipped} "
                  f"[{status}] {r.elapsed:.2f}s")
            for index, text, left, right in r.failures[:10]:
                print(f"    term #{index}: {text}")
                print(f"      no join for {left} vs {right}")
    failed = any(not summary.results[i].ok for i in required if i < len(summary.results))
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_fmt(args: argparse.Namespace) -> int:
    """Print the declarations in source order.  The parser inlines each use
    of a definition as its body, the same object, so a subterm that is an
    earlier definition's body prints as that definition's name, and the
    output parses back to the same terms."""
    program = _load_program(args.file)
    chunks = []
    names: dict[int, str] = {}  # id of an earlier definition's body -> its name
    for name, decl in program.declarations:
        if isinstance(decl, GateAtom):
            rows = ",\n             ".join(
                "[" + ", ".join(format_amplitude(z) for z in row) + "]" for row in decl.matrix)
            chunks.append(f"gate {name} = [{rows}];")
            continue
        chunks.append(f"{name} = {pretty(decl, names)};")
        # every use of a gate name is one shared constant: `g = H;` must not
        # capture each later H
        if type(decl) is not GateConst:
            names[id(decl)] = name
    print("\n\n".join(chunks))
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlam",
        description="Interpreter and confluence harness for a linear lambda "
                    "calculus with explicit qubits and projective measurement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="well-formedness check a program file")
    p_check.add_argument("file")
    p_check.add_argument("--strict-wf", action="store_true",
                         help="also reject register constants not written in normal form")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=_cmd_check)

    p_run = sub.add_parser("run", help="evaluate a program's main term")
    p_run.add_argument("file")
    mode = p_run.add_mutually_exclusive_group()
    mode.add_argument("--ensemble", action="store_true",
                      help="full distribution over normal forms (default)")
    mode.add_argument("--sample", action="store_true",
                      help="one seeded probabilistic run")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-steps", type=int, default=10_000)
    p_run.add_argument("--strategy", choices=("strategy", "leftmost", "rightmost"),
                       default="strategy",
                       help="redex chooser for ensemble evaluation (sampling follows "
                            "the deterministic strategy)")
    p_run.add_argument("--trace", action="store_true",
                       help="print each reduction step on stderr")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--strict-wf", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_conf = sub.add_parser("confluence", help="run the diamond/commutation suites")
    p_conf.add_argument("--count", type=int, default=1000)
    p_conf.add_argument("--max-size", type=int, default=12)
    p_conf.add_argument("--max-width", type=int, default=3)
    p_conf.add_argument("--seed", type=int, default=0)
    p_conf.add_argument("--pairs", type=str, default=None,
                        help="comma-separated rule-set pairs, e.g. T:T,S:T")
    p_conf.add_argument("--json", action="store_true")
    p_conf.set_defaults(fn=_cmd_confluence)

    p_fmt = sub.add_parser("fmt", help="reprint a program in canonical form")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(fn=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ProgramFileError, RegisterSizeError, RegisterWidthError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
