"""Traces, differential testing, and per-step correspondence audits.

Everything here treats the seven evaluators as black boxes over one
corpus: run them, record traces, compare verdicts and answer values, and
replay machine traces through the mapping functions to confirm each
transition is a no-op or exactly one step of the target semantics.

What the harness knows of each machine is one row of ``MACHINE_TABLE``
(evaluator, initial state, step driver, printers, comparison value) and
of each simulation pair one row of ``SIM_TABLE``; every run steps through
the machine's driver, which its evaluator runs in ``results.evaluate``.

Traces print every state, and consecutive states share everything outside
the contraction site.  ``run_eval`` prints through one ``PrintMemo`` per
trace, so a node printed for a recent state is not printed again, and each
frame stack through one ``StackPrinter``, which keeps one piece per frame
and prints only the frames pushed since the last state: need-sr's and af's
driver stacks, and ck's and ckh's frame tuples read reversed.  A ckh step
pushes or pops one frame and names the one heap variable it changed, so
``_CKHPrinter`` prints that frame and that heap entry, and
``buildL(state, reuse)`` closes again only what the step changed: every
other labeled node stays the same object, which the memo prints as stored
text.

Answer comparison works on the value component: by-need answers keep
their binding context, so the context's bindings are substituted into the
value before comparing (the store machine's closing does the same job via
the heap); labeled results are compared after erasure.  Between the
standard reduction and the CK system, whole answers are additionally
required to match exactly up to alpha.
"""
from __future__ import annotations

import json
import os
from functools import partial
from itertools import count
from operator import itemgetter
from typing import Callable, Optional

from . import af, ck, ckh, lstep, need
from .frames import ArgF, inject
from .gen import count_closed, enumerate_closed, gen_closed
from .oracle import decomposition_matches, enumerate_decompositions
from .results import Done, start
from .syntax import PrintMemo, StackPrinter, print_term
from .terms import (
    Frozen,
    NameSupply,
    Term,
    alpha_eq,
    canon,
    erase,
    strip_value_labels,
    subst,
)


def close_answer_value(answer: Term) -> Term:
    """Value component of an answer with its bindings substituted in."""
    split = need.is_answer(answer)
    if split is None:
        raise ValueError(f"not an answer: {print_term(answer)}")
    ctx, value = split
    supply = NameSupply.for_term(answer)
    for p in reversed(need.partitions(ctx)):  # innermost binder first
        value = subst(value, p.binder, p.argument, supply)
    return value


class TraceStep(Frozen):
    __slots__ = ("rule", "term", "mapped")  # mapped: the state's term, or None


class Trace(Frozen):
    # steps: a list of TraceStep; verdict: "done" or "timeout"; answer: the
    # final state's text, None on a timeout
    __slots__ = ("machine", "fuel", "initial", "steps", "verdict", "answer")

    def to_json(self) -> dict:
        return {
            "machine": self.machine,
            "fuel": self.fuel,
            "verdict": self.verdict,
            "steps": [
                {"rule": s.rule, "term": s.term, "mapped": s.mapped} for s in self.steps
            ],
            "answer": self.answer,
        }


def _ckh_frame(f, level: int, memo: Optional[PrintMemo]):
    """A ckh frame as a StackPrinter's right piece: innermost first, after ", "."""
    text = f"arg({print_term(f.term, memo)})" if isinstance(f, ArgF) else f"var({f.name})"
    return "", ", " + text, level


class _CKHPrinter:
    """Prints the successive states of one store-machine run.

    Its frames print through a StackPrinter.  It keeps each heap entry's
    text in heap order; the first state's heap is printed whole.  After
    that, a step binds, checks out or rebinds one heap name
    (``CKHState.changed``): that entry is printed, and a rebound name moves
    to the end of the heap.  memo is the trace's PrintMemo.
    """

    def __init__(self, memo: Optional[PrintMemo] = None):
        self.memo = memo
        self.frames = StackPrinter(memo, text=_ckh_frame)
        self.heap: Optional[dict] = None

    def _entry(self, name, bound: Term) -> None:
        self.heap[name] = f"{name} -> {print_term(bound, self.memo)}"

    def __call__(self, state: ckh.CKHState) -> str:
        if self.heap is None:
            self.heap = {}
            for name, bound in state.heap.items():
                self._entry(name, bound)
        else:
            name = state.changed
            if name in state.heap:
                self._entry(name, state.heap[name])
            else:
                self.heap.pop(name, None)
        _, frames, _ = self.frames.context(state.frames[::-1])
        return (
            f"<{print_term(state.control, self.memo)} | ({frames[2:]})"
            f" | {{{', '.join(self.heap.values())}}}>"
        )


def _print_terms(memo: PrintMemo):
    return partial(print_term, memo=memo), None


def _print_stack(memo: PrintMemo):
    printer = StackPrinter(memo)
    return (lambda s: printer(*s)), None


def _print_ck(memo: PrintMemo):
    printer = StackPrinter(memo)

    def render(s):
        left, right, _ = printer.context(s.frames[::-1])
        return f"<{print_term(s.control, memo)} | {left}[]{right}>"

    return render, lambda s: printer(s.frames[::-1], s.control)


def _print_ckh(memo: PrintMemo):
    reuse = ckh.ImageCache()

    def mapped(s):
        return print_term(ckh.buildL(s, reuse), memo)

    return _CKHPrinter(memo), mapped


def _same(t):
    return t


def _closed(r: Done) -> Term:
    return close_answer_value(r.answer)


def _erased(r: Done) -> Term:
    return erase(r.answer)


def _answer(r: Done) -> Term:
    return r.answer  # call-by-name values are already closed


class Machine(Frozen, labels=False):
    """How the harness runs one machine: eval(t, fuel) is its evaluator;
    drive(inject(t), supply) yields (rule, state) per step from a closed
    hygienic t, then (None, final state); printers(memo) gives one trace's
    state printer and the printer of the state's term, or None; value(done)
    is the closed pure value answers are compared by; labels says whether
    the machine reads labeled terms.  Fields reach the package's functions
    through their modules at call time, so wrappers installed on those
    functions see the calls."""

    __slots__ = ("eval", "inject", "drive", "printers", "value", "labels")


MACHINE_TABLE = {
    "need-sr": Machine(lambda t, f: need.eval_sr(t, f), inject, need.drive, _print_stack, _closed),
    "af": Machine(lambda t, f: af.eval_af(t, f), inject, af.drive_af, _print_stack, _closed),
    "af-mod": Machine(
        lambda t, f: af.eval_afmod(t, f), inject, af.drive_afmod, _print_stack, _closed
    ),
    "name": Machine(lambda t, f: af.eval_name(t, f), _same, af.drive_name, _print_terms, _answer),
    "ck": Machine(lambda t, f: ck.eval_ck(t, f), ck.CKState, ck.drive, _print_ck, _closed),
    "ckh": Machine(
        lambda t, f: ckh.eval_ckh(t, f), ckh.initial_state, ckh.drive, _print_ckh, _erased
    ),
    "lstep": Machine(
        lambda t, f: lstep.eval_lstep(t, f), _same, lstep.drive, _print_terms, _erased, True
    ),
}
MACHINES = tuple(MACHINE_TABLE)

#: Machines whose Done values must agree structurally.  Call-by-name is
#: held to verdict agreement only: it substitutes unevaluated arguments,
#: so copies under binders keep redexes that every sharing machine has
#: already reduced, and the classical by-name equivalence is about
#: termination, not value shape.
VALUE_MACHINES = ("need-sr", "af", "af-mod", "ck", "ckh", "lstep")


def answer_value(machine: str, result: Done) -> Term:
    """Closed pure value for cross-machine comparison."""
    return MACHINE_TABLE[machine].value(result)


def run_eval(t: Term, machine: str, fuel: int) -> Trace:
    """Full deterministic trace of one evaluator on one closed term."""
    row = MACHINE_TABLE.get(machine)
    if row is None:
        raise ValueError(f"unknown machine {machine!r}")
    state, supply = start(t, fuel, row.inject, row.labels)
    memo = PrintMemo()
    render, mapped = row.printers(memo)
    initial = render(state)
    steps: list[TraceStep] = []
    verdict, answer = "timeout", None
    for rule, state in row.drive(state, supply):
        memo.next_state()
        if rule is None:
            verdict = "done"
            answer = render(state) if mapped is None else mapped(state)
            break
        if len(steps) == fuel:
            break
        steps.append(TraceStep(rule, render(state), None if mapped is None else mapped(state)))
    return Trace(machine, fuel, initial, steps, verdict, answer)


def _fields(record: Frozen) -> dict:
    """A record's fields by name, in field order."""
    return {f: getattr(record, f) for f in record.__slots__}


class _Report(Frozen):
    """A report whose JSON is its fields and its verdict."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {**_fields(self), "ok": self.ok}


class SimReport(_Report):
    """One simulation run: term is the input Term, printed only by to_json,
    since nothing else reads its text; rule_counts maps each rule to its
    transitions, and violations holds at most one, as a dict."""

    __slots__ = ("pair", "term", "fuel", "transitions", "completed", "rule_counts", "violations")

    @property
    def ok(self) -> bool:
        # a run that made no transition and did not finish checked nothing
        return not self.violations and (self.transitions > 0 or self.completed)

    def to_json(self) -> dict:
        return {**super().to_json(), "term": print_term(self.term)}


class SimPair(Frozen):
    """A source machine, the rules that must be exactly one step of the
    target semantics (every other rule must be a no-op), images() giving
    one run's image(state, seed), the target image of each state of the
    run in turn, and one_step(m, seed), the target's single step of the
    image m (None on a final term).  Each state has one seed, a fork of
    the run's supply taken when the state is reached: its names are fresh
    for every name of the state, and they come from the counter the next
    source step draws from.  The image function mints from it first
    (ck-lstep's labels), then the step of that image, above every name the
    image holds: no step walks its image for a seed."""

    __slots__ = ("source", "step_rules", "images", "one_step")


def _ckh_lstep_images() -> Callable:
    """One run's labeled images of store-machine states: each buildL call
    starts from what the last one kept in the run's ImageCache.  A step
    that keeps the image gets the same object back from buildL, and then
    the same stripped image without stripping again; a new image is
    stripped only if it holds a label (``ImageCache.labeled``).  Its
    labels are heap names, which the run minted below the state's seed."""
    reuse = ckh.ImageCache()
    last = [None, None]  # buildL's last image and its stripped form

    def image(s: ckh.CKHState, seed: NameSupply) -> Term:
        built = ckh.buildL(s, reuse)
        if built is not last[0]:
            last[:] = built, strip_value_labels(built) if reuse.labeled else built
        return last[1]

    return image


def _lstep_one_step(m: Term, seed: NameSupply) -> Optional[Term]:
    r = lstep.step_lstep(m, seed, check=False)
    return None if r is None else strip_value_labels(r)


SIM_TABLE = {
    "ckh-lstep": SimPair("ckh", frozenset({"descend-lam"}), _ckh_lstep_images, _lstep_one_step),
    "ck-need": SimPair(
        "ck", frozenset({"beta-need-ck"}), lambda: lambda s, seed: ck.build(s), need._step
    ),
    "ck-lstep": SimPair(
        "ck",
        frozenset({"descend-lam"}),
        lambda: lambda s, seed: ck.build_step_term(s, seed, strip=True),
        _lstep_one_step,
    ),
}

SIM_PAIRS = tuple(SIM_TABLE)


def check_simulation(t: Term, pair: str, fuel: int) -> SimReport:
    """Replay one machine trace through a mapping function and classify
    every transition as a no-op or exactly one step of the target.

    Each transition compares two whole images by alpha_eq: the current
    one with the next for a no-op, the current one stepped with the next
    for a step rule.  Consecutive images mostly share their nodes, which
    alpha_eq passes over without keying either term, and a step and the
    source step it is checked against draw their names from one counter
    (``SimPair``).  The input is walked once, by ``start``; the report prints it only in
    its JSON."""
    row = SIM_TABLE.get(pair)
    if row is None:
        raise ValueError(f"unknown pair {pair!r}; choose from {SIM_PAIRS}")
    source = MACHINE_TABLE[row.source]
    state, supply = start(t, fuel, source.inject, source.labels)
    image = row.images()
    seed = supply.fork()
    current_image = image(state, seed)
    violations: list = []
    rule_counts: dict = {}
    transitions = 0
    completed = False
    for rule, state in source.drive(state, supply):
        if rule is None:
            completed = True
            break
        if transitions == fuel:
            break
        transitions += 1
        rule_counts[rule] = rule_counts.get(rule, 0) + 1
        next_seed = supply.fork()
        next_image = image(state, next_seed)
        if rule in row.step_rules:
            stepped = row.one_step(current_image, seed)
            ok = stepped is not None and alpha_eq(stepped, next_image)
            kind = "one step"
        else:
            ok = alpha_eq(current_image, next_image)
            kind = "no-op"
        if not ok:
            violations.append(
                {
                    "transition": transitions,
                    "rule": rule,
                    "expected": kind,
                    "before": print_term(current_image),
                    "after": print_term(next_image),
                }
            )
            break
        current_image, seed = next_image, next_seed
    return SimReport(pair, t, fuel, transitions, completed, rule_counts, violations)


class DiffEntry(Frozen):
    # verdicts and steps: machine -> "done"/"timeout" and steps taken;
    # value: need-sr's closed value when every machine is done
    __slots__ = ("index", "term", "verdicts", "steps", "value")


class DiffReport(Frozen):
    # entries: a DiffEntry per term; mismatches and inconclusive: dicts
    __slots__ = ("seed", "count", "max_size", "fuel", "entries", "mismatches", "inconclusive")

    @property
    def ok(self) -> bool:
        """No mismatch, and at least one term's values compared: a run
        where every term timed out or was inconclusive checked nothing."""
        return not self.mismatches and any(e.value is not None for e in self.entries)

    def to_json(self) -> dict:
        return {
            "corpus": {k: getattr(self, k) for k in ("seed", "count", "max_size", "fuel")},
            "machines": list(MACHINES),
            "entries": [_fields(e) for e in self.entries],
            "mismatches": self.mismatches,
            "inconclusive": self.inconclusive,
            "ok": self.ok,
        }


def run_diff(seed: int, count: int, max_size: int, fuel: int) -> DiffReport:
    """Generate a corpus and demand agreement from all seven evaluators.

    Mixed done/timeout verdicts are retried at ten times the fuel; a term
    whose slow machines still time out is recorded as inconclusive rather
    than failed.  Done values must agree up to alpha after closing and
    erasure, and the standard reduction and CK answers must also agree as
    whole answers.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    entries: list = []
    mismatches: list = []
    inconclusive: list = []
    for i in range(count):
        t = gen_closed(seed + i, max_size)
        results = {m: MACHINE_TABLE[m].eval(t, fuel) for m in MACHINES}
        done = {m for m, r in results.items() if isinstance(r, Done)}
        if done and done != set(MACHINES):
            for m in MACHINES:
                if m not in done:
                    results[m] = MACHINE_TABLE[m].eval(t, fuel * 10)
            done = {m for m, r in results.items() if isinstance(r, Done)}
        term = print_term(t)
        verdicts = {m: "done" if isinstance(r, Done) else "timeout" for m, r in results.items()}
        value = None
        if done and done != set(MACHINES):
            inconclusive.append({"index": i, "term": term, "verdicts": verdicts})
        elif done:
            values = {m: answer_value(m, results[m]) for m in VALUE_MACHINES}
            keys = {m: canon(v) for m, v in values.items()}
            value = print_term(values["need-sr"])
            if len(set(keys.values())) != 1:
                mismatches.append(
                    {
                        "index": i,
                        "term": term,
                        "kind": "value",
                        "values": {m: print_term(v) for m, v in values.items()},
                    }
                )
            elif not alpha_eq(results["need-sr"].answer, results["ck"].answer):
                mismatches.append(
                    {
                        "index": i,
                        "term": term,
                        "kind": "whole-answer",
                        "need-sr": print_term(results["need-sr"].answer),
                        "ck": print_term(results["ck"].answer),
                    }
                )
        steps = {m: r.steps for m, r in results.items()}
        entries.append(DiffEntry(i, term, verdicts, steps, value))
    return DiffReport(seed, count, max_size, fuel, entries, mismatches, inconclusive)


def _audit(stripe: Callable, max_size: int) -> tuple[list, list]:
    """Run stripe(part, parts) on every part of enumerate_closed(max_size)
    and merge what each returns, (counts, [(k, failure), ...]) over the
    terms k with k % parts == part: the counts summed and the failures in
    enumeration order, so the result does not depend on parts.

    There is one part per 1,000 terms, and at most one per CPU this
    process may run on.  Several parts run on a pool of forked workers
    that inherit the enumeration cache, filled here, and end with the
    call; one part, or a platform without fork, runs in this process."""
    import multiprocessing  # here, so that only an audit pays its import
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, count_closed(max_size) // 1000))
    if parts == 1 or "fork" not in multiprocessing.get_all_start_methods():
        stripes = [stripe(0, 1)]
    else:
        with multiprocessing.get_context("fork").Pool(parts) as pool:
            stripes = pool.starmap(stripe, [(part, parts) for part in range(parts)])
    counts = [sum(column) for column in zip(*(c for c, _ in stripes))]
    failures = sorted((f for _, found in stripes for f in found), key=itemgetter(0))
    return counts, [failure for _, failure in failures]


class UDReport(_Report):
    __slots__ = ("max_size", "terms", "answers", "redexes", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures and self.terms > 0


def check_unique_decomposition(max_size: int) -> UDReport:
    """Exhaustively confirm the answer/redex dichotomy against the
    grammar-enumeration oracle on every closed term up to max_size.

    Per term this costs one oracle enumeration (canonical keys for each
    derivation it finds), one frame-stack search and a comparison of the
    search's result with the oracle's derivations by alpha_eq.
    Enumerated terms are closed, so the search runs without decompose's
    closedness walk.  The terms are split among workers (``_audit``)."""
    (terms, answers, redexes), failures = _audit(partial(_ud_stripe, max_size), max_size)
    return UDReport(max_size, terms, answers, redexes, failures)


def _ud_stripe(max_size: int, part: int, parts: int) -> tuple:
    """The decomposition audit on one part of the terms, as ``_audit`` reads it."""
    terms = answers = redexes = 0
    failures: list = []
    for k, t in zip(count(part, parts), enumerate_closed(max_size, part, parts)):
        terms += 1
        ans, reds = enumerate_decompositions(t)
        total = len(ans) + len(reds)
        d = need._search(t)
        if isinstance(d, need.Answer):
            answers += 1
        else:
            redexes += 1
        if total != 1 or not decomposition_matches(d, ans, reds):
            failure = {
                "term": print_term(t),
                "oracle_answers": len(ans),
                "oracle_redexes": len(reds),
                "search_found_answer": isinstance(d, need.Answer),
            }
            failures.append((k, failure))
    return (terms, answers, redexes), failures


class CRReport(_Report):
    __slots__ = ("max_size", "join_depth", "terms", "pairs", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures and self.terms > 0


def check_confluence(max_size: int, join_depth: int) -> CRReport:
    """All pairs of one-step compatible reducts must join within the
    given depth, for every closed term up to max_size.

    Per term this costs one name-supply walk and one redex search at each
    application node (need.compatible_reducts), plus a contraction and a
    canonical form per redex found; joining a pair explores the reducts of
    each term it reaches once per stripe (``_audit``), through a cache
    keyed by canonical form."""
    (terms, pairs), failures = _audit(partial(_cr_stripe, max_size, join_depth), max_size)
    return CRReport(max_size, join_depth, terms, pairs, failures)


def _cr_stripe(max_size: int, join_depth: int, part: int, parts: int) -> tuple:
    """The joinability audit on one part of the terms, as ``_audit`` reads it."""
    terms = pairs = 0
    failures: list = []
    cache: dict = {}
    for k, t in zip(count(part, parts), enumerate_closed(max_size, part, parts)):
        terms += 1
        reducts = need.compatible_reducts(t)
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                pairs += 1
                if not need.joinable(reducts[i], reducts[j], join_depth, _cache=cache):
                    failure = {
                        "term": print_term(t),
                        "left": print_term(reducts[i]),
                        "right": print_term(reducts[j]),
                    }
                    failures.append((k, failure))
    return (terms, pairs), failures


def to_json_str(payload: dict) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
