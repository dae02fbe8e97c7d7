"""Command-line front end.

Exit status is 0 only when the requested check reports no mismatches or
violations; parse errors and bad usage exit 2.  Output cut short by a
closed pipe (``needlab trace ... | head``) exits 1 without a traceback.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import harness, need
from .frames import context_term
from .prelude import expand_prelude
from .results import Done
from .syntax import ParseError, parse, print_term
from .terms import OpenTermError, hygienize


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_term(path: str, prelude: bool = False):
    t = parse(_read_source(path))
    if prelude:
        t = expand_prelude(t)
    return t


def _cmd_parse(args) -> int:
    t = _load_term(args.file)
    print(print_term(t))
    return 0


def _cmd_eval(args) -> int:
    # the evaluator directly: a trace would render every intermediate step
    t = _load_term(args.file, prelude=args.prelude)
    result = harness._eval_fn(args.machine)(t, args.fuel)
    if isinstance(result, Done):
        print(f"done in {result.steps} steps: {print_term(result.answer)}")
        return 0
    print(f"timeout after {result.steps} steps")
    return 0


def _cmd_trace(args) -> int:
    t = _load_term(args.file, prelude=args.prelude)
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
    t = hygienize(_load_term(args.file, prelude=args.prelude))
    d = need.decompose(t)
    if isinstance(d, need.Answer):
        print("answer")
        print(f"  context: {print_term(d.context.to_term())}")
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


def _cmd_diff(args) -> int:
    report = harness.run_diff(args.seed, args.count, args.max_size, args.fuel)
    print(harness.to_json_str(report.to_json()))
    return 0 if report.ok else 1


def _cmd_check_sim(args) -> int:
    t = _load_term(args.file)
    report = harness.check_simulation(t, args.pair, args.fuel)
    print(harness.to_json_str(report.to_json()))
    return 0 if report.ok else 1


def _cmd_check_ud(args) -> int:
    report = harness.check_unique_decomposition(args.max_size)
    print(harness.to_json_str(report.to_json()))
    return 0 if report.ok else 1


def _cmd_check_cr(args) -> int:
    report = harness.check_confluence(args.max_size, args.depth)
    print(harness.to_json_str(report.to_json()))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="needlab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a term and echo its canonical form")
    sp.add_argument("file", help="source file, or - for stdin")
    sp.set_defaults(fn=_cmd_parse)

    def add_machine_opts(sp, prelude=True):
        sp.add_argument("--machine", required=True, choices=harness.MACHINES)
        sp.add_argument("--fuel", type=int, default=1000)
        if prelude:
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
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--max-size", type=int, default=25)
    sp.add_argument("--fuel", type=int, default=2000)
    sp.set_defaults(fn=_cmd_diff)

    sp = sub.add_parser("check-sim", help="per-step machine correspondence check")
    sp.add_argument("--pair", required=True, choices=harness.SIM_PAIRS)
    sp.add_argument("--fuel", type=int, default=1000)
    sp.add_argument("file", help="source file, or - for stdin")
    sp.set_defaults(fn=_cmd_check_sim)

    sp = sub.add_parser("check-ud", help="unique-decomposition audit vs the oracle")
    sp.add_argument("--max-size", type=int, default=9)
    sp.set_defaults(fn=_cmd_check_ud)

    sp = sub.add_parser("check-cr", help="desk-scale joinability audit")
    sp.add_argument("--max-size", type=int, default=8)
    sp.add_argument("--depth", type=int, default=10)
    sp.set_defaults(fn=_cmd_check_cr)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
