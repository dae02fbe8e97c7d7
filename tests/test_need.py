import pytest
from test_harness import LEQ, _demand_chain
from test_reference import _load

from needlab import ck, need
from needlab.frames import ArgF, LamF, context_term, is_answer_frames
from needlab.gen import enumerate_closed, gen_closed
from needlab.harness import check_simulation, close_answer_value, run_eval
from needlab.need import (
    Answer,
    AnswerContext,
    Redex,
    _replace_at,
    compatible_reducts,
    contract,
    decompose,
    eval_sr,
    is_answer,
    joinable,
    partitions,
    redex_at_root,
    step_sr,
)
from needlab.prelude import expand_prelude
from needlab.results import Done, Timeout
from needlab.syntax import parse, print_term
from needlab.terms import (
    App,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Var,
    alpha_eq,
    canon,
    hygienize,
    is_closed,
    is_hygienic,
    term_eq,
)

T1_SRC = r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)"
OMEGA = r"(\d.d d) (\d.d d)"
LINE2 = r"(\x.(\y.(\z.z) y x) (\y.y)) (\x.x)"
LINE3 = r"(\x.((\z.z) (\y.y)) x) (\x.x)"
LINE4 = r"(\x.(\y.y) x) (\x.x)"


def K_omega():
    return App(parse(r"\x.\y.x"), parse(OMEGA))


def test_is_answer_bare_value():
    split = is_answer(parse(r"\x.x"))
    assert split is not None
    ctx, v = split
    assert ctx.frames == ()
    assert term_eq(v, parse(r"\x.x"))


def test_is_answer_separates_from_by_name():
    # the term the original calculi disagree on: an answer without touching
    # the diverging argument
    split = is_answer(K_omega())
    assert split is not None
    ctx, v = split
    assert term_eq(context_term(ctx.frames), parse(r"(\x.[]) ((\d.d d) (\d.d d))"))
    assert term_eq(v, parse(r"\y.x"))


def test_is_answer_rejects_redex():
    assert is_answer(parse(r"(\x.x) (\y.y)")) is None


def test_decompose_t1_components():
    t = hygienize(parse(T1_SRC))
    d = decompose(t)
    assert isinstance(d, Redex)
    assert d.binder.base == "z"
    assert d.outer == ()
    assert d.outer_partial == ()
    assert d.inner_partial == ()
    assert alpha_eq(
        context_term(d.binding), parse(r"(\x.(\y.[]) (\y.y)) (\x.x)")
    )
    assert term_eq(context_term(d.demand), parse("([] y) x"))
    assert d.arg_context == ()
    assert alpha_eq(d.value, parse(r"\z.z"))
    # plugging all components reconstructs the input
    assert term_eq(d.whole_term(), t)


def test_decompose_answer_case():
    d = decompose(K_omega())
    assert isinstance(d, Answer)


def test_decompose_demand_shifts_into_argument():
    t = hygienize(parse(r"(\y.y) ((\a.a) (\b.b))"))
    d = decompose(t)
    assert isinstance(d, Redex)
    assert d.binder.base == "a"
    assert alpha_eq(d.value, parse(r"\b.b"))
    assert term_eq(context_term(d.outer), parse(r"(\y.y) []"))


def test_decompose_requires_closed():
    with pytest.raises(OpenTermError):
        decompose(parse("x"))


def test_contract_paper_lines():
    t = hygienize(parse(T1_SRC))
    line2 = contract(decompose(t))
    assert alpha_eq(line2, parse(LINE2))
    line3 = contract(decompose(line2))
    assert alpha_eq(line3, parse(LINE3))
    line4 = contract(decompose(line3))
    assert alpha_eq(line4, parse(LINE4))


def test_step_sr():
    assert alpha_eq(step_sr(parse(T1_SRC)), parse(LINE2))
    assert step_sr(K_omega()) is None
    assert alpha_eq(step_sr(parse(LINE4)), parse(r"(\y.y) (\x.x)"))


def test_step_sr_walks_the_term_once(walks):
    # one scan checks closedness and hygiene and seeds the supply; the
    # substitution of a normalized term does not walk the value it inserts,
    # the search does not re-check closedness, and contract does not plug
    # the term again to seed a supply.  Renaming a term that is not hygienic
    # rebuilds it, with no further walk.
    for t in (hygienize(parse(LINE4)), parse(LINE4)):
        walks.update(dict.fromkeys(walks, 0))
        assert alpha_eq(step_sr(t), parse(r"(\y.y) (\x.x)"))
        assert walks == {"scan": 1, "free_vars": 0, "subterms": 0, "for_terms": 0}
    assert is_hygienic(hygienize(parse(LINE4))) and not is_hygienic(parse(LINE4))


def test_eval_sr():
    r = eval_sr(parse(T1_SRC), 100)
    assert isinstance(r, Done)
    assert r.steps == 5
    assert alpha_eq(r.answer, parse(r"\x.x"))

    r = eval_sr(K_omega(), 100)
    assert isinstance(r, Done)
    assert r.steps == 0

    r = eval_sr(parse(OMEGA), 50)
    assert isinstance(r, Timeout)


def test_step_preserves_closed_and_hygienic():
    t = hygienize(parse(T1_SRC))
    while True:
        n = step_sr(t)
        if n is None:
            break
        assert is_closed(n)
        assert is_hygienic(n)
        t = n


def test_nested_demand_with_outer_closer():
    # the binder of the demanded variable sits under an extra lambda whose
    # argument lives outside the nested demand application; the redex's
    # outer partial context supplies the closing argument
    t = parse(r"(\x0.x0) ((\x1.(\x2.\x3.x2) x1) (\x4.\x5.x4) (\x6.x6) (\x7.\x8.\x9.x7))")
    d = decompose(hygienize(t))
    assert isinstance(d, Redex)
    assert d.binder.base == "x1"
    assert alpha_eq(context_term(d.outer_partial), parse(r"[] (\x6.x6)"))
    r = eval_sr(t, 200)
    assert isinstance(r, Done)


def _a4_frames():
    ey, ex, ez = Var(Name("ey")), Var(Name("ex")), Var(Name("ez"))
    return (
        LamF(Name("z")),
        LamF(Name("y")),
        ArgF(ey),
        LamF(Name("x")),
        ArgF(ex),
        ArgF(ez),
    )


def test_partitions_table():
    a4 = AnswerContext(_a4_frames())
    assert term_eq(a4.to_term(), parse(r"(\x.(\y.\z.[]) ey) ex ez"))
    parts = partitions(a4)
    assert len(parts) == 3
    by_binder = {p.binder.base: p for _, p in parts}
    # column for x
    p = by_binder["x"]
    assert term_eq(context_term(p.outer), parse("[] ez"))
    assert p.mid.frames == ()
    assert term_eq(context_term(p.inner), parse(r"(\y.\z.[]) ey"))
    # column for y
    p = by_binder["y"]
    assert term_eq(context_term(p.outer), parse(r"(\x.[]) ex ez"))
    assert p.mid.frames == ()
    assert term_eq(context_term(p.inner), parse(r"\z.[]"))
    # column for z
    p = by_binder["z"]
    assert p.outer == ()
    assert term_eq(p.mid.to_term(), parse(r"(\x.(\y.[]) ey) ex"))
    assert p.inner == ()
    # ordering follows the binders outermost-first
    assert [p.binder.base for _, p in parts] == ["x", "y", "z"]


def test_partitions_recompose_and_compose():
    a4 = AnswerContext(_a4_frames())
    for _, p in partitions(a4):
        assert term_eq(p.recompose().to_term(), a4.to_term())
        assert is_answer_frames(p.inner + p.outer)
        assert p.composite_is_answer()


def test_compatible_reducts():
    t = Lam(Name("w"), hygienize(parse(T1_SRC)))
    rs = compatible_reducts(t)
    assert len(rs) == 1
    assert alpha_eq(rs[0], Lam(Name("w"), parse(LINE2)))

    assert compatible_reducts(parse(r"\x.x")) == []

    t = hygienize(parse(r"(\x.x x) ((\a.a) (\b.b))"))
    rs = compatible_reducts(t)
    assert len(rs) == 1
    assert alpha_eq(rs[0], parse(r"(\x.x x) (\b.b)"))


def _positions_reference(t):
    # every position with its path as a fresh tuple, in preorder
    stack = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Lam):
            stack.append((path + ("b",), node.body))
        elif isinstance(node, App):
            stack.append((path + ("a",), node.arg))
            stack.append((path + ("f",), node.fn))


def _compatible_reducts_reference(t):
    # compatible_reducts as it was before it skipped non-application
    # positions: the redex search runs at every position
    supply = NameSupply.for_term(t)
    seen = set()
    out = []
    for path, sub in _positions_reference(t):
        r = redex_at_root(sub)
        if r is None:
            continue
        reduct = _replace_at(t, path, contract(r, supply))
        key = canon(reduct)
        if key not in seen:
            seen.add(key)
            out.append(reduct)
    return out


def test_compatible_reducts_match_all_positions_reference():
    corpus = list(enumerate_closed(8)) + [gen_closed(seed, 16) for seed in range(400)]
    found = 0
    for t in corpus:
        got, want = compatible_reducts(t), _compatible_reducts_reference(t)
        assert len(got) == len(want)
        assert all(term_eq(a, b) for a, b in zip(got, want))
        found += len(got) > 1
    assert found > 0  # some terms have several reducts, so order is checked


def test_step_sr_is_a_compatible_reduct():
    for src in [T1_SRC, LINE2, LINE3, LINE4, r"(\x.x x) ((\a.a) (\b.b))"]:
        t = hygienize(parse(src))
        n = step_sr(t)
        assert n is not None
        keys = {canon(r) for r in compatible_reducts(t)}
        assert canon(n) in keys


def test_joinable():
    t = parse(r"\x.x")
    assert joinable(t, t, 0)
    # two disjoint redexes join within a few steps
    two = hygienize(parse(r"((\a.a) (\b.b)) ((\c.c) (\d.d))"))
    rs = compatible_reducts(two)
    assert len(rs) == 2
    assert joinable(rs[0], rs[1], 4)
    assert not joinable(parse(r"\x.x"), parse(r"\x.\y.y"), 5)


def _iterate_sr(t, fuel):
    """Drive step_sr from the root, as a caller of the one-shot API would:
    the terms it passes through, first to last, and whether it ran out of
    fuel."""
    supply = NameSupply.for_term(t)
    t = hygienize(t, supply)
    seen = [t]
    while True:
        assert is_closed(t) and is_hygienic(t), print_term(t)
        n = step_sr(t, supply)
        if n is None:
            return seen, False
        if len(seen) > fuel:
            return seen, True
        t = n
        seen.append(t)


def _bench_programs():
    """The bench's programs, read from bench/programs.py, prelude expanded."""
    programs = _load("programs")
    return [expand_prelude(parse(programs.source(tree))) for _, tree in programs.PROGRAMS]


def test_resumed_search_matches_iterated_steps_on_corpus():
    # eval_sr and run_eval's need-sr trace resume each search at the hole of
    # the last contraction, and the trace prints from the driver's stack;
    # step_sr searches from the root every time.  All must reach the same
    # verdict after the same number of steps, with the same answer, fresh
    # names included, and the trace must print every term the one-shot steps
    # give.  The demand chain and the bench programs nest demand frames deep.
    chain = parse(_demand_chain(60))
    terms = [gen_closed(42 + i, 25) for i in range(300)] + [chain, *_bench_programs(), LEQ]
    for i, t in enumerate(terms):
        seen, timed_out = _iterate_sr(t, 1000)
        steps = len(seen) - 1
        resumed = eval_sr(t, 1000)
        assert isinstance(resumed, Timeout if timed_out else Done), i
        assert resumed.steps == steps, i
        if not timed_out:
            assert term_eq(resumed.answer, seen[-1]), i
        tr = run_eval(t, "need-sr", 1000)
        assert [(s.rule, s.term) for s in tr.steps] == [
            ("beta-need", print_term(u)) for u in seen[1:]
        ], i
        want = ("timeout", None) if timed_out else ("done", print_term(seen[-1]))
        assert (tr.verdict, tr.answer) == want, i
    assert isinstance(resumed, Done) and resumed.steps == 61


def test_standard_reduction_plugs_only_the_contraction_site(monkeypatch):
    # the driver substitutes into the redex's frames and resumes at the hole,
    # so it plugs nothing; plugging the whole reduct again at every step
    # passed 1,138 frames over LEQ's 61 steps, and plugging the contractum 351
    passed = []
    real = need.plug
    monkeypatch.setattr(need, "plug", lambda fs, t: passed.append(len(fs)) or real(fs, t))
    r = eval_sr(LEQ, 1000)
    assert isinstance(r, Done) and r.steps == 61
    assert sum(passed) == 0


def test_demand_chain_looks_up_each_binder_once(monkeypatch):
    # every redex of the chain binds its outermost binder under the whole
    # nest of demands; searching the contractum again redid every lookup,
    # 80,601 binder_at calls over the 401 steps at n = 400
    calls = [0]
    real = need.binder_at

    def counted(stack, name):
        calls[0] += 1
        return real(stack, name)

    monkeypatch.setattr(need, "binder_at", counted)
    r = eval_sr(parse(_demand_chain(400)), 1000)
    assert isinstance(r, Done) and r.steps == 401
    assert calls[0] <= 401


def test_audits_contract_as_the_drive_does(monkeypatch):
    # the ck-need simulation's target step and compatible_reducts, and so
    # check-sim and check-cr, certify the contraction eval_sr runs: each
    # reaches need's subst_plug, which they never called while they plugged
    # and substituted a contractum of their own
    calls = [0]
    real = need.subst_plug

    def counted(frames, x, copy):
        calls[0] += 1
        return real(frames, x, copy)

    monkeypatch.setattr(need, "subst_plug", counted)
    for i in range(20):
        assert check_simulation(gen_closed(42 + i, 25), "ck-need", 400).ok, i
    assert calls[0] > 0
    calls[0] = 0
    for t in enumerate_closed(7):
        compatible_reducts(t)
    assert calls[0] > 0


def test_contract_on_a_term_that_is_not_normalized():
    # the inner \x rebinds x: decompose and compatible_reducts rename it, so
    # substituting the outer x leaves it and its occurrences alone
    t = parse(r"(\x.(\x.x x) x) (\y.y)")
    want = r"(\x%1.x%1 x%1) (\y.y)"
    assert print_term(contract(decompose(t))) == want
    assert print_term(contract(decompose(t), NameSupply(7))) == want
    assert [print_term(r) for r in compatible_reducts(t)] == [want]
    assert [print_term(r) for r in compatible_reducts(t, NameSupply(7))] == [
        r"(\x%7.x%7 x%7) (\y.y)"
    ]


def test_one_shot_paths_hoist_the_argument_without_capture():
    # the redex hoists the argument's binding \y above the call's body, which
    # references the outer y: every one-shot path must rename the inner \y
    t = parse(r"(\y.(\x.x y) ((\y.\z.z) (\w.w))) (\q.\r.q)")
    reduct = step_sr(t)
    assert print_term(reduct) == r"(\y.(\y%1.(\z.z) y) (\w.w)) (\q.\r.q)"
    assert canon(contract(decompose(t))) == canon(reduct)
    assert [canon(r) for r in compatible_reducts(t)] == [canon(reduct)]
    value = close_answer_value(eval_sr(t, 100).answer)
    assert print_term(value) == r"\q.\r.q"
    state = ck.inject_ck(t)
    while (r := ck.step_ck(state)) is not None:
        state = r[1]
    assert alpha_eq(close_answer_value(ck.build(state)), value)


def test_search_builds_contexts_in_the_grammars(monkeypatch):
    # _search checks none of the contexts it builds; every decomposition it
    # returns, from the root or resumed on a driver's stack, must still be
    # in the grammars and plug back to the term searched
    from needlab.frames import (
        is_eval_frames,
        plug,
        split_inner_partial,
        split_outer_partial,
    )

    real = need._search
    seen = {"answer": 0, "redex": 0, "resumed": 0}

    def checked(t, stack=None):
        searched = plug(tuple(reversed(stack or ())), t)
        seen["resumed"] += bool(stack)
        d = real(t, stack)
        if isinstance(d, Answer):
            seen["answer"] += 1
            assert is_answer_frames(d.context.frames)
            assert term_eq(plug(d.context.frames, d.value), searched)
        elif d is not None:
            seen["redex"] += 1
            assert is_answer_frames(d.arg_context) and is_answer_frames(d.binding)
            split = split_inner_partial(d.demand + d.inner_partial)
            assert split is not None and split[:2] == (d.demand, d.inner_partial)
            assert split_outer_partial(d.outer_partial + d.outer, split[2]) == (
                d.outer_partial,
                d.outer,
            )
            assert is_eval_frames(d.outer)
            assert term_eq(d.whole_term(), searched)
        return d

    monkeypatch.setattr(need, "_search", checked)
    for i in range(300):
        eval_sr(gen_closed(42 + i, 25), 1000)
    for t in enumerate_closed(9):
        compatible_reducts(t)
    assert min(seen.values()) > 500, seen
