"""Traces, differential testing, and per-step correspondence audits.

Everything here treats the seven evaluators as black boxes over one
corpus: run them, record traces, compare verdicts and answer values, and
replay machine traces through the mapping functions to confirm each
transition is a no-op or exactly one step of the target semantics.

Traces print every state, and consecutive states share everything outside
the contraction site.  ``run_eval`` prints through one ``PrintMemo`` per
trace, so a node or frame printed for the previous state is not printed
again.  af's states are the frame stack of ``af.drive`` and a contractum,
ck's are frame tuples with shared suffixes; both print frame by frame
(``print_plugged``) without plugging.  ckh's labeled image reuses the
closed heap bindings that did not change (``buildL(state, reuse)``).

Answer comparison works on the value component: by-need answers keep
their binding context, so the context's bindings are substituted into the
value before comparing (the store machine's closing does the same job via
the heap); labeled results are compared after erasure.  Between the
standard reduction and the CK system, whole answers are additionally
required to match exactly up to alpha.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from . import af, ck, ckh, lstep, need
from .frames import ArgF, LamF
from .gen import enumerate_closed, gen_closed
from .oracle import decomposition_matches, enumerate_decompositions
from .results import Done
from .syntax import PrintMemo, print_plugged, print_term
from .terms import (
    HOLE,
    Lam,
    NameSupply,
    OpenTermError,
    Term,
    alpha_eq,
    canon,
    erase,
    hygienize,
    is_closed,
    strip_value_labels,
    subst,
)

MACHINES = ("need-sr", "af", "af-mod", "name", "ck", "ckh", "lstep")

#: Machines whose Done values must agree structurally.  Call-by-name is
#: held to verdict agreement only: it substitutes unevaluated arguments,
#: so copies under binders keep redexes that every sharing machine has
#: already reduced, and the classical by-name equivalence is about
#: termination, not value shape.
VALUE_MACHINES = ("need-sr", "af", "af-mod", "ck", "ckh", "lstep")

SIM_PAIRS = ("ckh-lstep", "ck-need", "ck-lstep")


def close_answer_value(answer: Term) -> Term:
    """Value component of an answer with its bindings substituted in."""
    split = need.is_answer(answer)
    if split is None:
        raise ValueError(f"not an answer: {print_term(answer)}")
    ctx, value = split
    frames = ctx.frames
    opens: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i, f in enumerate(frames):
        if isinstance(f, LamF):
            opens.append(i)
        else:
            pairs.append((opens.pop(), i))
    pairs.sort()
    supply = NameSupply.for_term(answer)
    for lam_at, arg_at in pairs:
        value = subst(value, frames[lam_at].binder, frames[arg_at].term, supply)
    return value


def _eval_fn(machine: str) -> Callable:
    return {
        "need-sr": need.eval_sr,
        "af": af.eval_af,
        "af-mod": af.eval_afmod,
        "name": af.eval_name,
        "ck": ck.eval_ck,
        "ckh": ckh.eval_ckh,
        "lstep": lstep.eval_lstep,
    }[machine]


def answer_value(machine: str, result: Done) -> Term:
    """Closed pure value for cross-machine comparison."""
    if machine in ("need-sr", "af", "af-mod", "ck"):
        return close_answer_value(result.answer)
    if machine in ("ckh", "lstep"):
        return erase(result.answer)
    return result.answer  # call-by-name values are already closed


@dataclass
class TraceStep:
    rule: str
    term: str
    mapped: Optional[str]


@dataclass
class Trace:
    machine: str
    fuel: int
    initial: str
    steps: list[TraceStep]
    verdict: str  # "done" | "timeout"
    answer: Optional[str]

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


def _render_ckh(
    state: ckh.CKHState, cache: Optional[dict] = None, memo: Optional[PrintMemo] = None
) -> str:
    """Print a store-machine state.

    cache maps each heap name to its last (term, printed entry) across the
    states of one trace; an entry is printed again only when its name is
    bound to a different term object.  memo is the trace's PrintMemo.
    """
    if cache is None:
        cache = {}
    frames = []
    for f in state.frames:
        if isinstance(f, ArgF):
            frames.append(f"arg({print_term(f.term, memo)})")
        else:
            frames.append(f"var({f.name})")
    heap = []
    for k, v in state.heap.items():
        entry = cache.get(k)
        if entry is None or entry[0] is not v:
            entry = cache[k] = (v, f"{k} -> {print_term(v, memo)}")
        heap.append(entry[1])
    return f"<{print_term(state.control, memo)} | ({', '.join(frames)}) | {{{', '.join(heap)}}}>"


def _step_sr(u: Term, supply: NameSupply):
    # steps preserve closedness, so the search runs without decompose's check
    d = need._search(u, strict=True)
    if isinstance(d, need.Answer):
        return None
    return "beta-need", need.contract(d, supply)


def _step_name(u: Term, supply: NameSupply):
    if isinstance(u, Lam):
        return None
    return "beta", af.step_name(u, supply)


def _step_lstep(u: Term, supply: NameSupply):
    if lstep.is_labeled_value(u):
        return None
    return "beta-step", lstep.step_lstep(u, supply, check=False)


def _transitions(
    machine: str, state, supply: NameSupply
) -> Iterator[tuple[Optional[str], object]]:
    """One machine's run from state: (rule, next state) per step, then
    (None, final state).  af's states are (stack, term) pairs, the term
    plugged into the outermost-first stack that ``af.drive`` keeps; the
    stack changes when the next step is asked for."""
    if machine in ("af", "af-mod"):
        _, control = state  # af.drive starts from an empty stack
        for rule, stack, sub in af.drive(control, machine == "af-mod", supply):
            yield rule, (stack, sub)
        return
    step = {
        "need-sr": _step_sr,
        "name": _step_name,
        "lstep": _step_lstep,
        "ck": ck.step_ck,
        "ckh": ckh.step_ckh,
    }[machine]
    while True:
        r = step(state, supply)
        if r is None:
            yield None, state
            return
        yield r
        state = r[1]


def run_eval(t: Term, machine: str, fuel: int) -> Trace:
    """Full deterministic trace of one evaluator on one closed term."""
    if machine not in MACHINES:
        raise ValueError(f"unknown machine {machine!r}")
    if not is_closed(t):
        raise OpenTermError("run_eval requires a closed term")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    supply = NameSupply.for_term(t)
    t = hygienize(t, supply)
    memo = PrintMemo()
    # a state prints as render(state); ck and ckh states also map to a
    # term, printed by mapped(state)
    mapped: Optional[Callable] = None
    if machine == "ck":
        state = ck.inject_ck(t)

        def render(s):
            return f"<{print_term(s.control, memo)} | {print_plugged(s.frames, HOLE, memo)}>"

        def mapped(s):
            return print_plugged(s.frames, s.control, memo)

    elif machine == "ckh":
        state, reuse = ckh.inject_ckh(t), {}
        render = partial(_render_ckh, cache={}, memo=memo)

        def mapped(s):
            return print_term(ckh.buildL(s, reuse), memo)

    elif machine in ("af", "af-mod"):
        state = ([], t)

        def render(s):
            return print_plugged(s[0][::-1], s[1], memo)

    else:
        state, render = t, partial(print_term, memo=memo)
    initial = render(state)
    steps: list[TraceStep] = []
    verdict, answer = "timeout", None
    for rule, state in _transitions(machine, state, supply):
        memo.next_state()
        if rule is None:
            verdict = "done"
            answer = render(state) if mapped is None else mapped(state)
            break
        if len(steps) == fuel:
            break
        steps.append(TraceStep(rule, render(state), None if mapped is None else mapped(state)))
    return Trace(machine, fuel, initial, steps, verdict, answer)


@dataclass
class SimReport:
    pair: str
    term: str
    fuel: int
    transitions: int
    completed: bool
    rule_counts: dict
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "term": self.term,
            "fuel": self.fuel,
            "transitions": self.transitions,
            "completed": self.completed,
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "violations": self.violations,
            "ok": self.ok,
        }


def check_simulation(t: Term, pair: str, fuel: int) -> SimReport:
    """Replay one machine trace through a mapping function and classify
    every transition as a no-op or exactly one step of the target."""
    if pair not in SIM_PAIRS:
        raise ValueError(f"unknown pair {pair!r}; choose from {SIM_PAIRS}")
    if not is_closed(t):
        raise OpenTermError("check_simulation requires a closed term")
    supply = NameSupply.for_term(t)
    base = hygienize(t, supply)

    if pair == "ck-need":
        inject, step = ck.inject_ck, ck.step_ck
        step_rules = {"beta-need-ck"}

        def image(s):
            return ck.build(s)

        def one_step(m):
            return need.step_sr(m)

    elif pair == "ck-lstep":
        inject, step = ck.inject_ck, ck.step_ck
        step_rules = {"descend-lam"}

        def image(s):
            return strip_value_labels(ck.build_step_term(s, NameSupply.for_term(ck.build(s))))

        def one_step(m):
            r = lstep.step_lstep(m, check=False)
            return None if r is None else strip_value_labels(r)

    else:
        inject, step = ckh.inject_ckh, ckh.step_ckh
        step_rules = {"descend-lam"}

        def image(s):
            return strip_value_labels(ckh.buildL(s))

        def one_step(m):
            r = lstep.step_lstep(m, check=False)
            return None if r is None else strip_value_labels(r)

    state = inject(base)
    current_image = image(state)
    violations: list = []
    rule_counts: dict = {}
    transitions = 0
    completed = False
    for _ in range(fuel):
        r = step(state, supply)
        if r is None:
            completed = True
            break
        rule, nxt = r
        transitions += 1
        rule_counts[rule] = rule_counts.get(rule, 0) + 1
        next_image = image(nxt)
        if rule in step_rules:
            stepped = one_step(current_image)
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
        state, current_image = nxt, next_image
    else:
        r = step(state, supply)
        completed = r is None
    return SimReport(pair, print_term(t), fuel, transitions, completed, rule_counts, violations)


@dataclass
class DiffEntry:
    index: int
    term: str
    verdicts: dict
    steps: dict
    value: Optional[str]


@dataclass
class DiffReport:
    seed: int
    count: int
    max_size: int
    fuel: int
    entries: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "corpus": {
                "seed": self.seed,
                "count": self.count,
                "max_size": self.max_size,
                "fuel": self.fuel,
            },
            "machines": list(MACHINES),
            "entries": [
                {
                    "index": e.index,
                    "term": e.term,
                    "verdicts": e.verdicts,
                    "steps": e.steps,
                    "value": e.value,
                }
                for e in self.entries
            ],
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
    report = DiffReport(seed, count, max_size, fuel)
    for i in range(count):
        t = gen_closed(seed + i, max_size)
        results = {m: _eval_fn(m)(t, fuel) for m in MACHINES}
        done = {m for m, r in results.items() if isinstance(r, Done)}
        if done and done != set(MACHINES):
            for m in MACHINES:
                if m not in done:
                    results[m] = _eval_fn(m)(t, fuel * 10)
            done = {m for m, r in results.items() if isinstance(r, Done)}
        entry = DiffEntry(
            index=i,
            term=print_term(t),
            verdicts={m: "done" if isinstance(r, Done) else "timeout" for m, r in results.items()},
            steps={m: r.steps for m, r in results.items()},
            value=None,
        )
        if done and done != set(MACHINES):
            report.inconclusive.append(
                {"index": i, "term": entry.term, "verdicts": entry.verdicts}
            )
            report.entries.append(entry)
            continue
        if done:
            values = {m: answer_value(m, results[m]) for m in VALUE_MACHINES}
            keys = {m: canon(v) for m, v in values.items()}
            entry.value = print_term(values["need-sr"])
            if len(set(keys.values())) != 1:
                report.mismatches.append(
                    {
                        "index": i,
                        "term": entry.term,
                        "kind": "value",
                        "values": {m: print_term(v) for m, v in values.items()},
                    }
                )
            elif not alpha_eq(results["need-sr"].answer, results["ck"].answer):
                report.mismatches.append(
                    {
                        "index": i,
                        "term": entry.term,
                        "kind": "whole-answer",
                        "need-sr": print_term(results["need-sr"].answer),
                        "ck": print_term(results["ck"].answer),
                    }
                )
        report.entries.append(entry)
    return report


@dataclass
class UDReport:
    max_size: int
    terms: int
    answers: int
    redexes: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "max_size": self.max_size,
            "terms": self.terms,
            "answers": self.answers,
            "redexes": self.redexes,
            "failures": self.failures,
            "ok": self.ok,
        }


def check_unique_decomposition(max_size: int) -> UDReport:
    """Exhaustively confirm the answer/redex dichotomy against the
    grammar-enumeration oracle on every closed term up to max_size."""
    terms = answers = redexes = 0
    failures: list = []
    for t in enumerate_closed(max_size):
        terms += 1
        ans, reds = enumerate_decompositions(t)
        total = len(ans) + len(reds)
        d = need.decompose(t)
        if isinstance(d, need.Answer):
            answers += 1
        else:
            redexes += 1
        if total != 1 or not decomposition_matches(d, ans, reds):
            failures.append(
                {
                    "term": print_term(t),
                    "oracle_answers": len(ans),
                    "oracle_redexes": len(reds),
                    "search_found_answer": isinstance(d, need.Answer),
                }
            )
    return UDReport(max_size, terms, answers, redexes, failures)


@dataclass
class CRReport:
    max_size: int
    join_depth: int
    terms: int
    pairs: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "max_size": self.max_size,
            "join_depth": self.join_depth,
            "terms": self.terms,
            "pairs": self.pairs,
            "failures": self.failures,
            "ok": self.ok,
        }


def check_confluence(max_size: int, join_depth: int) -> CRReport:
    """All pairs of one-step compatible reducts must join within the
    given depth, for every closed term up to max_size."""
    terms = pairs = 0
    failures: list = []
    cache: dict = {}
    for t in enumerate_closed(max_size):
        terms += 1
        reducts = need.compatible_reducts(t)
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                pairs += 1
                if not need.joinable(reducts[i], reducts[j], join_depth, _cache=cache):
                    failures.append(
                        {
                            "term": print_term(t),
                            "left": print_term(reducts[i]),
                            "right": print_term(reducts[j]),
                        }
                    )
    return CRReport(max_size, join_depth, terms, pairs, failures)


def to_json_str(payload: dict) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
