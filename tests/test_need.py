import pytest

import needlab.terms as terms
from needlab.frames import ArgF, LamF, context_term, is_answer_frames
from needlab.need import (
    Answer,
    AnswerContext,
    Redex,
    compatible_reducts,
    contract,
    decompose,
    eval_sr,
    is_answer,
    joinable,
    partitions,
    step_sr,
)
from needlab.results import Done, Timeout
from needlab.syntax import parse
from needlab.terms import (
    App,
    Lam,
    Name,
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


def test_step_sr_walks_free_vars_three_times(monkeypatch):
    # one closedness check, one hygiene check and subst's walk of the value;
    # the search no longer goes through decompose's second closedness check
    t = hygienize(parse(LINE4))
    assert is_hygienic(t)
    calls = []
    real = terms.free_vars
    monkeypatch.setattr(terms, "free_vars", lambda u: calls.append(u) or real(u))
    assert alpha_eq(step_sr(t), parse(r"(\y.y) (\x.x)"))
    assert len(calls) == 3


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
