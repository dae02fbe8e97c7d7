"""Command-line front end.

Exit status is 0 only when the requested check reports no mismatches or
violations, and for diff only when it compared the values of at least one
term (a corpus where every term times out or is inconclusive exits 1);
parse errors, open terms, a FILE that cannot be read and bad
usage (including a negative fuel or depth, a check-sim fuel or a count
below 1, or a size below 2, under which an audit would check no term)
exit 2 with a message and no traceback, and so do a
term to run that holds the hole ``[]`` and a labeled term that is
inconsistent or given to a machine other than lstep.  Output cut short
by a closed pipe (``needlab trace ... | head``) exits 1 without a traceback.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import harness, need
from .frames import context_term
from .prelude import expand_prelude
from .results import Done, LabeledTermError
from .syntax import ParseError, parse, print_term
from .terms import HOLE, OpenTermError, subterms


class HoleError(ValueError):
    """Raised when a term to run holds the hole of a rendered context."""


def _load_term(args, run=True):
    """The term in args.file (- for stdin), expanded under --prelude.  A
    term to run may not hold the hole, which parses only so that printed
    contexts read back."""
    if args.file == "-":
        text = sys.stdin.read()
    else:
        # a byte that is not UTF-8 reads as a lone surrogate, which the
        # parser reports with its position, as it does for stdin
        with open(args.file, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    t = parse(text)
    if run and any(node is HOLE for node in subterms(t)):
        raise HoleError("the hole [] belongs to printed contexts and cannot be run")
    return expand_prelude(t) if getattr(args, "prelude", False) else t


def _cmd_parse(args) -> int:
    print(print_term(_load_term(args, run=False)))
    return 0


def _cmd_eval(args) -> int:
    # the evaluator directly: a trace would render every intermediate step
    t = _load_term(args)
    result = harness.MACHINE_TABLE[args.machine].eval(t, args.fuel)
    if isinstance(result, Done):
        print(f"done in {result.steps} steps: {print_term(result.answer)}")
        return 0
    print(f"timeout after {result.steps} steps")
    return 0


def _cmd_trace(args) -> int:
    t = _load_term(args)
    trace = harness.run_eval(t, args.machine, args.fuel)
    if args.json:
        print(harness.to_json_str(trace.to_json()))
        return 0
    print(f"machine: {trace.machine}  fuel: {trace.fuel}")
    print(f"initial: {trace.initial}")
    for i, s in enumerate(trace.steps, 1):
        mapped = f"   => {s.mapped}" if s.mapped is not None else ""
        print(f"{i:4d} --{s.rule}--> {s.term}{mapped}")
    print(f"verdict: {trace.verdict}" + (f"  answer: {trace.answer}" if trace.answer else ""))
    return 0


def _cmd_decompose(args) -> int:
    d = need.decompose(_load_term(args))
    if isinstance(d, need.Answer):
        print("answer")
        print(f"  context: {print_term(context_term(d.context))}")
        print(f"  value:   {print_term(d.value)}")
        return 0
    print("redex")
    print(f"  outer eval context: {print_term(context_term(d.outer))}")
    print(f"  outer partial:      {print_term(context_term(d.outer_partial))}")
    print(f"  binding context:    {print_term(context_term(d.binding))}")
    print(f"  binder:             {d.binder}")
    print(f"  inner partial:      {print_term(context_term(d.inner_partial))}")
    print(f"  demand context:     {print_term(context_term(d.demand))}")
    print(f"  argument context:   {print_term(context_term(d.arg_context))}")
    print(f"  value:              {print_term(d.value)}")
    return 0


def _report(run):
    """A command that prints a report as JSON; exit 0 iff it is ok."""

    def command(args) -> int:
        report = run(args)
        print(harness.to_json_str(report.to_json()))
        return 0 if report.ok else 1

    return command


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return integer


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="needlab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a term and echo its canonical form")
    sp.add_argument("file", help="source file, or - for stdin")
    sp.set_defaults(fn=_cmd_parse)

    def add_machine_opts(sp):
        sp.add_argument("--machine", required=True, choices=harness.MACHINES)
        sp.add_argument("--fuel", type=_at_least(0), default=1000)
        sp.add_argument("--prelude", action="store_true", help="enable cons/car/cdr")
        sp.add_argument("file", help="source file, or - for stdin")

    sp = sub.add_parser("eval", help="evaluate a closed term")
    add_machine_opts(sp)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("trace", help="print or serialize a full trace")
    add_machine_opts(sp)
    sp.add_argument("--json", action="store_true", help="emit the JSON trace schema")
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser("decompose", help="print the unique decomposition")
    sp.add_argument("--prelude", action="store_true", help="enable cons/car/cdr")
    sp.add_argument("file", help="source file, or - for stdin")
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("diff", help="differential test over a random corpus")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--count", type=_at_least(1), default=100)
    sp.add_argument("--max-size", type=_at_least(2), default=25)
    sp.add_argument("--fuel", type=_at_least(0), default=2000)
    sp.set_defaults(fn=_report(lambda a: harness.run_diff(a.seed, a.count, a.max_size, a.fuel)))

    sp = sub.add_parser("check-sim", help="per-step machine correspondence check")
    sp.add_argument("--pair", required=True, choices=harness.SIM_PAIRS)
    sp.add_argument("--fuel", type=_at_least(1), default=1000)
    sp.add_argument("file", help="source file, or - for stdin")
    sp.set_defaults(
        fn=_report(lambda a: harness.check_simulation(_load_term(a), a.pair, a.fuel))
    )

    sp = sub.add_parser("check-ud", help="unique-decomposition audit vs the oracle")
    sp.add_argument("--max-size", type=_at_least(2), default=9)
    sp.set_defaults(fn=_report(lambda a: harness.check_unique_decomposition(a.max_size)))

    sp = sub.add_parser("check-cr", help="desk-scale joinability audit")
    sp.add_argument("--max-size", type=_at_least(2), default=8)
    sp.add_argument("--depth", type=_at_least(0), default=10)
    sp.set_defaults(fn=_report(lambda a: harness.check_confluence(a.max_size, a.depth)))

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # bad usage (2) or --help (0), message already printed
        return e.code
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away (`needlab trace ... | head`); send what is
        # still buffered to devnull so the flush at interpreter exit cannot
        # raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OpenTermError as e:
        print(f"open term: {e}", file=sys.stderr)
        return 2
    except HoleError as e:
        print(f"hole: {e}", file=sys.stderr)
        return 2
    except LabeledTermError as e:
        where = getattr(args, "machine", None) or getattr(args, "pair", None) or args.command
        print(f"labeled term: {where}: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # FILE cannot be read
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
