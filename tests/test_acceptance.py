"""Acceptance criteria, one test per criterion, each printing a verdict line.

The heavy criteria share one corpus: 1000 seeded closed terms of at most
25 nodes, the same terms the differential suite runs.  Run with -s (or
read captured output) for the per-criterion lines.
"""
import time

import pytest

from needlab.af import step_af
from needlab.ckh import LOOKUPVAR, inject_ckh, step_ckh
from needlab.gen import gen_closed
from needlab.harness import (
    SIM_PAIRS,
    check_confluence,
    check_simulation,
    check_unique_decomposition,
    close_answer_value,
    run_diff,
    run_eval,
)
from needlab.lstep import erase, is_cl, is_labeled_value, step_lstep
from needlab.need import eval_sr, partitions
from needlab.prelude import expand_prelude
from needlab.results import Done, Timeout
from needlab.syntax import parse
from needlab.terms import (
    App,
    NameSupply,
    Var,
    alpha_eq,
    hygienize,
    term_eq,
)
from needlab.frames import ArgF, LamF, context_term
from needlab.terms import Name

T1 = r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)"
OMEGA = r"(\d.d d) (\d.d d)"

CORPUS_SEED = 42
CORPUS_COUNT = 1000
CORPUS_MAX_SIZE = 25
CORPUS_FUEL = 2000


@pytest.fixture(scope="module")
def corpus():
    return [gen_closed(CORPUS_SEED + i, CORPUS_MAX_SIZE) for i in range(CORPUS_COUNT)]


def _verdict(n, ok, desc, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc} ({elapsed:.1f}s)")


def test_criterion_1_golden_standard_trace():
    started = time.time()
    trace = run_eval(parse(T1), "need-sr", 100)
    lines = [parse(T1)] + [parse(s.term) for s in trace.steps]
    expected = [
        T1,
        r"(\x.(\y.(\z.z) y x) (\y.y)) (\x.x)",
        r"(\x.(\z.z) (\y.y) x) (\x.x)",
        r"(\x.(\y.y) x) (\x.x)",
    ]
    ok = (
        trace.verdict == "done"
        and len(trace.steps) == 5
        and all(alpha_eq(lines[i], parse(expected[i])) for i in range(4))
        and alpha_eq(parse(trace.answer), parse(r"\x.x"))
    )
    _verdict(1, ok, "golden reduction lines 1-4 then the answer in 5 steps", started)
    assert ok


def test_criterion_2_partition_table():
    started = time.time()
    ey, ex, ez = Var(Name("ey")), Var(Name("ex")), Var(Name("ez"))
    a4 = (LamF(Name("z")), LamF(Name("y")), ArgF(ey), LamF(Name("x")), ArgF(ex), ArgF(ez))
    parts = {p.binder.base: p for p in partitions(a4)}
    expected = {
        "x": ("[] ez", "[]", r"(\y.\z.[]) ey"),
        "y": (r"(\x.[]) ex ez", "[]", r"\z.[]"),
        "z": ("[]", r"(\x.(\y.[]) ey) ex", "[]"),
    }
    ok = len(parts) == 3
    for binder, (outer_s, mid_s, inner_s) in expected.items():
        p = parts[binder]
        ok = (
            ok
            and term_eq(context_term(p.outer), parse(outer_s))
            and term_eq(context_term(p.mid), parse(mid_s))
            and term_eq(context_term(p.inner), parse(inner_s))
            and term_eq(context_term(p.recompose()), context_term(a4))
        )
    _verdict(2, ok, "the three partial-context triples of the worked table", started)
    assert ok


def test_criterion_3_reassociation():
    started = time.time()
    af1 = parse(r"((\x.(\y.\z.z) (\b.b)) (\a.a)) (\c.c)")
    tag1, t1 = step_af(af1)
    tag2, t2 = step_af(t1)
    tag3, t3 = step_af(t2)
    ok = (
        tag1 == "lift"
        and alpha_eq(t1, parse(r"(\x.((\y.\z.z) (\b.b)) (\c.c)) (\a.a)"))
        and tag2 == "lift"
        and alpha_eq(t2, parse(r"(\x.(\y.(\z.z) (\c.c)) (\b.b)) (\a.a)"))
        and tag3 == "deref"
        and step_af(t3) is None
    )
    _verdict(3, ok, "two lifts then a deref exposing an answer", started)
    assert ok


def test_criterion_4_laziness_witnesses():
    started = time.time()
    k_omega = App(parse(r"\x.\y.x"), parse(OMEGA))
    r_sr = eval_sr(k_omega, 500)
    ok = isinstance(r_sr, Done) and r_sr.steps == 0

    t = hygienize(k_omega)
    sup = NameSupply.for_term(t)
    s = inject_ckh(t)
    rules = []
    while True:
        r = step_ckh(s, sup)
        if r is None:
            break
        rules.append(r[0])
        s = r[1]
    ok = ok and LOOKUPVAR not in rules

    pair = expand_prelude(parse(rf"cdr (cons ({OMEGA}) (\v.v))"))
    r_pair = eval_sr(pair, 500)
    ok = ok and isinstance(r_pair, Done)
    ok = ok and alpha_eq(close_answer_value(r_pair.answer), parse(r"\v.v"))
    ok = ok and isinstance(eval_sr(parse(OMEGA), 500), Timeout)
    _verdict(4, ok, "answers reached without touching diverging arguments", started)
    assert ok


def test_criterion_5_parallel_golden_trace():
    started = time.time()
    t = hygienize(parse(r"(\x.x x) ((\a.a) (\b.b))"))
    sup = NameSupply.for_term(t)
    trace = [t]
    while not is_labeled_value(trace[-1]) and len(trace) < 10:
        trace.append(step_lstep(trace[-1], sup))
    erased = [erase(u) for u in trace]
    expected = [
        r"(\x.x x) ((\a.a) (\b.b))",
        r"((\a.a) (\b.b)) ((\a.a) (\b.b))",
        r"(\b.b) (\b.b)",
        r"\b.b",
    ]
    ok = len(trace) - 1 == 3 and all(
        alpha_eq(erased[i], parse(expected[i])) for i in range(4)
    )
    _verdict(5, ok, "three parallel steps with the erased trace exact", started)
    assert ok


def test_criterion_6_unique_decomposition_audit():
    started = time.time()
    rep = check_unique_decomposition(9)
    ok = rep.ok and rep.terms == rep.answers + rep.redexes
    _verdict(
        6,
        ok,
        f"one decomposition each for {rep.terms} terms "
        f"({rep.answers} answers, {rep.redexes} redexes)",
        started,
    )
    assert ok


def test_criterion_7_desk_scale_confluence():
    started = time.time()
    rep = check_confluence(8, 10)
    ok = rep.ok
    _verdict(
        7, ok, f"{rep.pairs} reduct pairs joinable over {rep.terms} terms", started
    )
    assert ok


def test_criterion_7b_joinability_covers_pairs():
    # criterion 7 at size 8 has no term with two reducts; at size 10 the
    # audit must check some pairs, so it cannot pass vacuously
    started = time.time()
    rep = check_confluence(10, 10)
    ok = rep.ok and rep.pairs > 0
    _verdict(
        "7b", ok, f"{rep.pairs} reduct pairs joinable over {rep.terms} terms", started
    )
    assert ok


def test_criterion_8_differential_suite():
    started = time.time()
    rep = run_diff(CORPUS_SEED, CORPUS_COUNT, CORPUS_MAX_SIZE, CORPUS_FUEL)
    ok = rep.ok and not rep.inconclusive
    _verdict(
        8,
        ok,
        f"zero mismatches across 7 evaluators on {CORPUS_COUNT} terms "
        f"({len(rep.inconclusive)} inconclusive)",
        started,
    )
    assert rep.ok, rep.mismatches[:3]
    assert not rep.inconclusive, rep.inconclusive[:3]


def test_criterion_9_per_step_simulation(corpus):
    started = time.time()
    violations = []
    for pair in SIM_PAIRS:
        for i, t in enumerate(corpus):
            rep = check_simulation(t, pair, CORPUS_FUEL)
            if not rep.ok:
                violations.append((pair, i, rep.violations[0]))
                if len(violations) > 3:
                    break
    ok = not violations
    _verdict(
        9,
        ok,
        f"per-step mapping checks for {', '.join(SIM_PAIRS)} over the corpus",
        started,
    )
    assert ok, violations[:3]


def test_criterion_10_consistent_labeling(corpus):
    started = time.time()
    violations = 0
    transitions = 0
    for t in corpus:
        u = hygienize(t)
        sup = NameSupply.for_term(t)
        for _ in range(CORPUS_FUEL):
            if is_labeled_value(u):
                break
            u = step_lstep(u, sup, check=False)
            transitions += 1
            if not is_cl(u):
                violations += 1
                break
    ok = violations == 0
    _verdict(
        10,
        ok,
        f"consistent labeling after each of {transitions} parallel transitions",
        started,
    )
    assert ok
