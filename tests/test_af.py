from needlab import af
from needlab.af import (
    ASSOC,
    ASSOC_MOD,
    BETA_NEED_MOD,
    DEREF,
    LIFT,
    LIFT_MOD,
    eval_af,
    eval_afmod,
    eval_name,
    is_af_answer,
    step_af,
    step_afmod,
    step_name,
)
from needlab.gen import gen_closed
from needlab.harness import close_answer_value, run_eval
from needlab.need import eval_sr
from needlab.results import Done, Timeout, start
from needlab.syntax import parse, print_term
from needlab.terms import App, NameSupply, alpha_eq, hygienize, is_closed, term_eq

# three distinct identity lambdas stand in for opaque values
AF1 = r"((\x.(\y.\z.z) (\b.b)) (\a.a)) (\c.c)"
OMEGA = r"(\d.d d) (\d.d d)"


def K_omega():
    return App(parse(r"\x.\y.x"), parse(OMEGA))


def test_af_answers():
    assert is_af_answer(parse(r"\x.x"))
    assert is_af_answer(parse(r"(\x.\v.v) (\y.y)"))
    assert not is_af_answer(parse(r"((\x.x) (\y.y)) (\z.z)"))


def test_af_reassociation_display():
    t = parse(AF1)
    tag1, t1 = step_af(t)
    assert tag1 == LIFT
    assert alpha_eq(t1, parse(r"(\x.((\y.\z.z) (\b.b)) (\c.c)) (\a.a)"))
    tag2, t2 = step_af(t1)
    assert tag2 == LIFT
    assert alpha_eq(t2, parse(r"(\x.(\y.(\z.z) (\c.c)) (\b.b)) (\a.a)"))
    tag3, t3 = step_af(t2)
    assert tag3 == DEREF
    assert alpha_eq(t3, parse(r"(\x.(\y.(\z.\c.c) (\c.c)) (\b.b)) (\a.a)"))
    assert step_af(t3) is None  # an answer


def test_af_deref_keeps_the_call():
    tag, t1 = step_af(parse(r"(\x.x) (\v.v)"))
    assert tag == DEREF
    assert alpha_eq(t1, parse(r"(\x.\v.v) (\v.v)"))


def test_af_assoc():
    t = parse(r"(\y.y) ((\a.\b.b) (\c.c))")
    tag, t1 = step_af(t)
    assert tag == ASSOC
    assert alpha_eq(t1, parse(r"(\a.(\y.y) (\b.b)) (\c.c)"))


def test_eval_af():
    r = eval_af(K_omega(), 100)
    assert isinstance(r, Done) and r.steps == 0

    r = eval_af(parse(AF1), 100)
    assert isinstance(r, Done) and r.steps == 3

    assert isinstance(eval_af(parse(OMEGA), 50), Timeout)


def test_afmod_beta_need_discards_call():
    tag, t1 = step_afmod(parse(r"(\x.x) (\v.v)"))
    assert tag == BETA_NEED_MOD
    assert alpha_eq(t1, parse(r"\v.v"))


def test_afmod_lift_carries_argument_to_the_value():
    # lift' performs all consecutive re-associations at once: the new
    # argument lands next to the value inside the nested answer context
    tag, t1 = step_afmod(parse(AF1))
    assert tag == LIFT_MOD
    assert alpha_eq(t1, parse(r"(\x.(\y.(\z.z) (\c.c)) (\b.b)) (\a.a)"))
    tag2, t2 = step_afmod(t1)
    assert tag2 == BETA_NEED_MOD


def test_afmod_assoc():
    t = parse(r"(\y.y) ((\a.\b.b) (\c.c))")
    tag, t1 = step_afmod(t)
    assert tag == ASSOC_MOD
    assert alpha_eq(t1, parse(r"(\a.(\y.y) (\b.b)) (\c.c)"))


def test_afmod_assoc_exposes_immediate_beta_need():
    # the contractum of an assoc' redex contains the next standard redex
    cases = [
        r"(\y.y) ((\a.\b.b) (\c.c))",
        r"(\y.y) ((\a.(\p.\b.b) (\q.q)) (\c.c))",
        r"(\y.y y) ((\a.\b.b) (\c.c))",
    ]
    for src in cases:
        t = hygienize(parse(src))
        tag, t1 = step_afmod(t)
        assert tag == ASSOC_MOD
        tag2, _ = step_afmod(t1)
        assert tag2 == BETA_NEED_MOD


def test_eval_afmod():
    r = eval_afmod(parse(AF1), 100)
    assert isinstance(r, Done) and r.steps == 2
    assert isinstance(eval_afmod(parse(OMEGA), 50), Timeout)
    r = eval_afmod(K_omega(), 100)
    assert isinstance(r, Done) and r.steps == 0


def test_eval_name():
    r = eval_name(K_omega(), 100)
    assert isinstance(r, Done)
    assert r.steps == 1
    assert alpha_eq(r.answer, parse(r"\y.(\d.d d) (\d.d d)"))

    r = eval_name(parse(r"(\x.x) (\y.y)"), 10)
    assert isinstance(r, Done) and r.steps == 1
    assert alpha_eq(r.answer, parse(r"\y.y"))

    assert isinstance(eval_name(parse(OMEGA), 50), Timeout)


def test_step_name_substitutes_unevaluated():
    t = hygienize(parse(r"(\x.x x) ((\a.a) (\b.b))"))
    n = step_name(t)
    assert alpha_eq(n, parse(r"((\a.a) (\b.b)) ((\a.a) (\b.b))"))


def test_step_name_is_absent_on_a_value():
    assert step_name(parse(r"\x.x")) is None


def test_step_name_on_a_term_that_is_not_normalized():
    # the inner \x rebinds x, and a free y of the argument meets a \y: both
    # binders are renamed before the substitution
    for supply, j, k in ((None, 1, 1), (NameSupply(5), 5, 6)):
        assert print_term(step_name(parse(r"(\x.\x.x) (\y.y)"), supply)) == rf"\x%{j}.x%{j}"
        n = step_name(parse(r"(\x.\y.x) (\z.y)"), supply)
        assert print_term(n) == rf"\y%{k}.\z.y" and alpha_eq(n, parse(r"\w.\z.y"))


def test_afmod_assoc_keeps_multi_layer_answer_in_order():
    # assoc' must move the whole answer context outward unchanged: the
    # inner layer's argument `a` stays in the scope of its binder
    t = parse(r"(\x.x) ((\a.(\b.\v.b) a) (\z.z))")
    r = eval_afmod(t, 100)
    assert isinstance(r, Done)
    assert is_closed(r.answer)
    expected = eval_sr(t, 100)
    assert alpha_eq(close_answer_value(r.answer), close_answer_value(expected.answer))
    trace = run_eval(t, "af-mod", 100)
    assert trace.verdict == "done"
    assert [s.rule for s in trace.steps] == [ASSOC_MOD, BETA_NEED_MOD]


def _iterate(step, t, fuel):
    """Drive a one-step function from the root, as a caller of step_* would."""
    supply = NameSupply.for_term(t)
    t = hygienize(t, supply)
    steps = 0
    while True:
        r = step(t, supply)
        if r is None:
            return Done(t, steps)
        if steps == fuel:
            return Timeout(steps)
        t = r[1]
        steps += 1


def test_resumed_search_matches_iterated_steps_on_corpus():
    # eval_af / eval_afmod resume each search at the last contraction
    # site; step_af / step_afmod search from the root every time.  Both
    # must reach the same verdict after the same number of steps, with
    # the same answer, fresh names included.
    for i in range(300):
        t = gen_closed(42 + i, 25)
        for evaluate, step in ((eval_af, step_af), (eval_afmod, step_afmod)):
            resumed = evaluate(t, 1000)
            iterated = _iterate(step, t, 1000)
            assert type(resumed) is type(iterated), (i, evaluate.__name__)
            assert resumed.steps == iterated.steps, (i, evaluate.__name__)
            if isinstance(resumed, Done):
                assert term_eq(resumed.answer, iterated.answer), (i, evaluate.__name__)


def test_deref_keeps_the_context_it_reads_from(monkeypatch):
    # corpus 879 derefs at every step and keeps every call, so its term grows
    # by a binding per step; a deref that rebuilt the retained context passed
    # 503,001 frames to plug over 2,000 steps
    passed = []
    real = af.plug
    monkeypatch.setattr(af, "plug", lambda fs, t: passed.append(len(fs)) or real(fs, t))
    r = eval_af(gen_closed(42 + 879, 25), 2000)
    assert isinstance(r, Timeout) and r.steps == 2000
    assert sum(passed) <= r.steps


class _CountingStack(list):
    """A frame stack that counts the frames read while counting is on."""

    counting = False
    reads = 0

    def __getitem__(self, i):
        if self.counting:
            self.reads += 1
        return super().__getitem__(i)


def test_binder_lookup_reads_one_frame_per_demand(monkeypatch):
    # on corpus 879 every deref leaves its call on the stack, which grows
    # with the run; the driver's binder -> position map finds each demanded
    # binder by reading one frame, where a scan from the top read 505,004
    # frames for the 2,002 demands of these 2,000 steps
    stack = _CountingStack()
    demands = [0]
    real = af._binder_at

    def counted(stack, where, name):
        demands[0] += 1
        stack.counting = True
        try:
            return real(stack, where, name)
        finally:
            stack.counting = False

    monkeypatch.setattr(af, "_binder_at", counted)
    state, supply = start(gen_closed(42 + 879, 25), 2000, lambda t: (stack, t))
    for steps, (rule, _) in enumerate(af.drive_af(state, supply), 1):
        if steps == 2000:
            break
    assert rule is not None and len(stack) > 2000
    assert demands[0] >= 2000 and stack.reads <= demands[0]
