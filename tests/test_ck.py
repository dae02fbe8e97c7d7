import random

import pytest

from needlab.ck import (
    BETA_NEED_CK,
    CKState,
    DESCEND_LAM,
    LOOKUPVAR,
    PUSHARG,
    build,
    build_step_term,
    eval_ck,
    inject_ck,
    is_final,
    step_ck,
)
from needlab.frames import (
    ArgF,
    BodF,
    LamF,
    balance,
    context_term,
    is_answer_frames,
    is_eval_frames,
    is_inner_partial_frames,
    split_inner_partial,
    split_outer_partial,
)
from needlab.need import eval_sr, step_sr
from needlab.results import Done, Timeout
from needlab.syntax import parse, print_term
from needlab.terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Var,
    alpha_eq,
    hygienize,
    strip_value_labels,
    term_eq,
)
from needlab.gen import gen_closed
from needlab.lstep import step_lstep

OMEGA = r"(\d.d d) (\d.d d)"


def test_inject():
    t = parse(r"\x.x")
    s = inject_ck(t)
    assert s.control is t and s.frames == ()
    with pytest.raises(OpenTermError):
        inject_ck(parse("x"))


def test_balance():
    e = parse(r"\q.q")
    assert balance(()) == 0
    assert balance((ArgF(e),)) == 1
    fs = (LamF(Name("x")), ArgF(e), BodF(Name("y"), (), ()), ArgF(e))
    assert balance(fs) == 0


def test_classify_frames():
    e = parse(r"\q.q")
    assert is_answer_frames(()) and is_inner_partial_frames(()) and is_eval_frames(())
    assert split_outer_partial((), 0) == ((), ())
    assert is_answer_frames((LamF(Name("x")), ArgF(e)))
    c = (ArgF(e),)
    assert is_eval_frames(c) and not is_answer_frames(c)
    assert split_outer_partial(c, 1) == (c, ())


def _split_inner_partial_two_pass(frames):
    # the reference: one scan for validity and obligations, then a second
    # walk for the binders after the last BodF that nothing closes
    def scan(frames):
        open_count = 0
        for f in frames:
            if isinstance(f, LamF):
                open_count += 1
            elif isinstance(f, ArgF):
                open_count = max(open_count - 1, 0)
            else:
                if open_count or not is_answer_frames(f.between):
                    return False, 0
                ok, k = scan(f.inner)
                if not ok:
                    return False, 0
                open_count += k
        return True, open_count

    ok, pending = scan(frames)
    if not ok:
        return None
    stack = []
    for i, f in enumerate(frames):
        if isinstance(f, LamF):
            stack.append(i)
        elif isinstance(f, ArgF):
            if stack:
                stack.pop()
        else:
            stack = []
    if not stack:
        return frames, (), pending
    return frames[: stack[0]], frames[stack[0] :], pending


def _random_word(rng, n, depth):
    # binder and argument frames, and now and then a BodF whose between is
    # usually balanced, so that many words pass the demand grammar
    e = Var(Name("w"))
    word = []
    for _ in range(n):
        pick = rng.random()
        if depth and pick < 0.12:
            if rng.random() < 0.8:
                between = [LamF(Name("b")), ArgF(e)] * rng.randrange(3)
            else:
                between = _random_word(rng, rng.randrange(4), 0)
            inner = _random_word(rng, rng.randrange(5), depth - 1)
            word.append(BodF(Name("y"), tuple(inner), tuple(between)))
        elif pick < 0.56:
            word.append(LamF(Name(rng.choice("xyz"))))
        else:
            word.append(ArgF(e))
    return word


def test_split_inner_partial_matches_two_pass_reference():
    rng = random.Random(11)
    valid = split = nested = 0
    for _ in range(20_000):
        frames = tuple(_random_word(rng, rng.randrange(9), 2))
        got = split_inner_partial(frames)
        assert got == _split_inner_partial_two_pass(frames), frames
        if got is not None:
            valid += 1
            split += bool(got[1])
            nested += any(isinstance(f, BodF) for f in frames) and got[2] > 0
    assert valid > 10_000 and split > 5000 and nested > 1000, (valid, split, nested)


def test_step_rules_golden():
    t = hygienize(parse(r"(\x.x) (\y.y)"))
    sup = NameSupply.for_term(t)
    s = inject_ck(t)
    rule, s = step_ck(s, sup)
    assert rule == PUSHARG
    assert isinstance(s.control, Lam) and len(s.frames) == 1
    rule, s = step_ck(s, sup)
    assert rule == DESCEND_LAM
    assert isinstance(s.control, Var)
    rule, s = step_ck(s, sup)
    assert rule == LOOKUPVAR
    assert alpha_eq(s.control, parse(r"\y.y"))
    assert isinstance(s.frames[0], BodF)
    rule, s = step_ck(s, sup)
    assert rule == BETA_NEED_CK
    assert s.frames == ()
    assert step_ck(s, sup) is None
    assert is_final(s)


def test_buildF_clauses():
    e = parse(r"\y.y")
    assert term_eq(context_term(()), parse("[]")) or print_term(context_term(())) == "[]"
    assert print_term(context_term((LamF(Name("x")), ArgF(e)))) == r"(\x.[]) (\y.y)"
    assert print_term(context_term((BodF(Name("x"), (), ()),))) == r"(\x.x) []"


def test_build():
    e = parse(r"\y.y")
    s = CKState(Var(Name("x")), (LamF(Name("x")), ArgF(e)))
    assert print_term(build(s)) == r"(\x.x) (\y.y)"
    t = hygienize(parse(r"(\a.a) (\b.b)"))
    assert term_eq(build(inject_ck(t)), t)
    s = CKState(e, (BodF(Name("x"), (), ()),))
    assert print_term(build(s)) == r"(\x.x) (\y.y)"


def test_build_step_term_clauses():
    t = hygienize(parse(r"(\a.a) (\b.b)"))
    assert term_eq(build_step_term(inject_ck(t)), t)
    e = parse(r"\y.y")
    s = CKState(parse(r"\x.x"), (ArgF(e),))
    assert print_term(build_step_term(s)) == r"(\x.x) (\y.y)"
    s = CKState(Var(Name("x")), (LamF(Name("x")), ArgF(e)))
    img = build_step_term(s)
    assert isinstance(img, Labeled)
    assert alpha_eq(img.body, e)


def _binders(t):
    """The binder names of t, each distinct node walked once."""
    seen, out, work = set(), set(), [t]
    while work:
        node = work.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, App):
            work += (node.fn, node.arg)
        elif isinstance(node, Lam):
            out.add(node.binder)
            work.append(node.body)
        elif isinstance(node, Labeled):
            work.append(node.body)
    return out


def test_build_step_term_meets_the_shared_substitution_precondition(monkeypatch):
    # subst_shared renames nothing: no binder of its target other than x
    # may be free in what it inserts, which a ck state normalized as a
    # whole guarantees
    from needlab import ck
    from needlab.harness import check_simulation
    from needlab.terms import free_vars, subst_shared

    calls = []

    def spy(t, x, s):
        calls.append(x)
        captured = (_binders(t) - {x}) & free_vars(s)
        assert not captured, (print_term(t), x, print_term(s))
        return subst_shared(t, x, s)

    monkeypatch.setattr(ck, "subst_shared", spy)
    for i in range(200):
        assert check_simulation(gen_closed(42 + i, 25), "ck-lstep", 1000).ok, i
    assert len(calls) > 1000


def test_eval_ck():
    r = eval_ck(parse(r"(\x.x) (\y.y)"), 100)
    assert isinstance(r, Done) and r.steps == 4
    assert alpha_eq(r.answer, parse(r"\y.y"))

    r = eval_ck(App(parse(r"\x.\y.x"), parse(OMEGA)), 100)
    assert isinstance(r, Done) and r.steps <= 2
    # agrees with the standard reduction's zero-step answer
    sr = eval_sr(App(parse(r"\x.\y.x"), parse(OMEGA)), 100)
    assert alpha_eq(r.answer, sr.answer)

    assert isinstance(eval_ck(parse(OMEGA), 50), Timeout)


def test_finality_matches_answers():
    from needlab.need import is_answer

    t = hygienize(parse(r"(\x.\y.x) ((\d.d d) (\d.d d))"))
    sup = NameSupply.for_term(t)
    s = inject_ck(t)
    while True:
        r = step_ck(s, sup)
        if r is None:
            break
        s = r[1]
    assert is_final(s)
    assert is_answer(build(s)) is not None


def _trace(t, fuel=300):
    sup = NameSupply.for_term(t)
    s = inject_ck(hygienize(t, sup))
    out = [(None, s)]
    for _ in range(fuel):
        r = step_ck(s, sup)
        if r is None:
            break
        out.append(r)
        s = r[1]
    return out


def test_build_map_step_shape_on_corpus():
    # build maps every transition to a no-op, except beta-need-ck which is
    # exactly one standard-reduction step
    terms = [parse(r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)")] + [
        gen_closed(s, 14) for s in range(60)
    ]
    for t in terms:
        tr = _trace(t)
        for (rule_a, sa), (rule_b, sb) in zip(tr, tr[1:]):
            m1, m2 = build(sa), build(sb)
            if rule_b == BETA_NEED_CK:
                n = step_sr(m1)
                assert n is not None and alpha_eq(n, m2)
            else:
                assert alpha_eq(m1, m2)


def test_labeled_map_step_shape_on_corpus():
    # the labeled image moves only at descend-lam, by exactly one parallel
    # step; comparisons discard label stacks on values
    terms = [parse(r"(\x.x x) ((\a.a) (\b.b))")] + [gen_closed(s, 14) for s in range(60)]
    for t in terms:
        tr = _trace(t)
        for (rule_a, sa), (rule_b, sb) in zip(tr, tr[1:]):
            p1 = strip_value_labels(build_step_term(sa, NameSupply.for_term(build(sa))))
            p2 = strip_value_labels(build_step_term(sb, NameSupply.for_term(build(sb))))
            if rule_b == DESCEND_LAM:
                n = step_lstep(p1, check=False)
                assert n is not None and alpha_eq(strip_value_labels(n), p2)
            else:
                assert alpha_eq(p1, p2)


def test_lookupvar_matches_decompose():
    # when the argument is already an answer, the machine's redex agrees
    # with the standard decomposition
    from needlab.need import decompose, Redex

    t = hygienize(parse(r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)"))
    sup = NameSupply.for_term(t)
    s = inject_ck(t)
    while True:
        r = step_ck(s, sup)
        assert r is not None
        rule, s2 = r
        if rule == BETA_NEED_CK:
            d = decompose(build(s))
            assert isinstance(d, Redex)
            assert d.binder == s.frames[[isinstance(f, BodF) for f in s.frames].index(True)].binder
            break
        s = s2


def test_step_ck_on_a_state_that_is_not_normalized():
    # the inner \x.x rebinds x: inject_ck renames it, so the beta-need-ck
    # step that substitutes \y.y for the outer x leaves the argument
    # frame's body alone
    s = inject_ck(parse(r"(\x.x (\x.x)) (\y.y)"))
    for supply in (None, NameSupply(5)):
        state, rules = s, []
        while (r := step_ck(state, supply)) is not None:
            rule, state = r
            rules.append(rule)
            if rule == "beta-need-ck":
                assert print_term(build(state)) == r"(\y.y) (\x%1.x%1)"
                break
        assert rules[-1] == "beta-need-ck"


def _subst_frames_recursive(frames, x, v, supply, substitute):
    # the reference: the recursive definition, for nests within the
    # interpreter's recursion limit
    out = []
    for f in frames:
        if isinstance(f, ArgF):
            out.append(ArgF(substitute(f.term, x, v, supply, keep_first=False)))
        elif isinstance(f, LamF):
            out.append(f)
        else:
            inner = _subst_frames_recursive(f.inner, x, v, supply, substitute)
            between = _subst_frames_recursive(f.between, x, v, supply, substitute)
            out.append(BodF(f.binder, inner, between))
    return tuple(out)


def _demand_nest(depth):
    # depth BodFs, each in the inner of the next: the operator of level k is
    # (\wk.\xk.op(k-1) xk ik) bk, with op(-1) xk read as xk
    frames, op = (), None
    for k in range(depth):
        x, w, i, b = (Name(base, k) for base in "xwib")
        frames = (BodF(x, frames + (ArgF(Var(i)),), (LamF(w), ArgF(Var(b)))),)
        body = App(Var(x) if op is None else App(op, Var(x)), Var(i))
        op = App(Lam(w, Lam(x, body)), Var(b))
    return frames, op


def _logging_substitute(log):
    def substitute(t, x, v, supply, keep_first):
        log.append(print_term(t))
        return App(t, v)

    return substitute


def test_frame_walks_take_no_recursion_on_nested_demand_frames(monkeypatch):
    from needlab import ck
    from needlab.ck import subst_frames
    from needlab.frames import plug

    hole, z, v = Var(Name("h")), Name("z"), parse(r"\q.q")
    for depth in (1, 2, 5, 3000):
        frames, op = _demand_nest(depth)
        assert term_eq(plug(frames, hole), App(op, hole))
        assert split_inner_partial(frames) == (frames, (), 0)
        assert is_eval_frames(frames) and not is_eval_frames(frames + (LamF(Name("y")),))
        calls = []
        monkeypatch.setattr(ck, "subst_normal", _logging_substitute(calls))
        got = subst_frames(frames, z, v, None)
        assert len(set(calls)) == 2 * depth and is_eval_frames(got)
        if depth < 10:  # the recursive reference needs the interpreter's stack
            ref_calls = []
            want = _subst_frames_recursive(frames, z, v, None, _logging_substitute(ref_calls))
            assert calls == ref_calls
            assert term_eq(plug(got, hole), plug(want, hole))
