from itertools import islice

import pytest

from needlab.ckh import (
    DESCEND_LAM,
    LOOKUPVAR,
    PUSHARG,
    UPDATEHEAP,
    CKHState,
    ImageCache,
    UnboundVariable,
    UnresolvableVariable,
    VarF,
    buildL,
    drive,
    eval_ckh,
    initial_state,
    inject_ckh,
    is_final,
    step_ckh,
)
from needlab.frames import ArgF
from needlab.gen import gen_closed
from needlab.lstep import is_cl, step_lstep
from needlab.results import Done, Timeout, start
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
    erase,
    free_vars,
    hygienize,
    strip_value_labels,
    term_eq,
)

from test_harness import LEQ

OMEGA = r"(\d.d d) (\d.d d)"


def test_inject():
    t = parse(r"\x.x")
    s = inject_ckh(t)
    assert s.control is t and s.frames == () and s.heap == {}
    assert is_final(s)
    with pytest.raises(OpenTermError):
        inject_ckh(parse("x"))


def test_four_step_golden():
    t = hygienize(parse(r"(\x.x) (\y.y)"))
    sup = NameSupply.for_term(t)
    s = inject_ckh(t)
    rule, s = step_ckh(s, sup)
    assert rule == PUSHARG
    rule, s = step_ckh(s, sup)
    assert rule == DESCEND_LAM
    assert isinstance(s.control, Var)
    fresh = s.control.name
    assert fresh.index > 0  # heap names are machine minted
    assert fresh in s.heap
    rule, s = step_ckh(s, sup)
    assert rule == LOOKUPVAR
    assert s.frames and isinstance(s.frames[0], VarF)
    assert fresh not in s.heap  # checked out during evaluation
    rule, s = step_ckh(s, sup)
    assert rule == UPDATEHEAP
    assert alpha_eq(s.heap[fresh], parse(r"\y.y"))
    assert step_ckh(s, sup) is None
    assert is_final(s)


def test_laziness_golden():
    t = hygienize(App(parse(r"\x.\y.x"), parse(OMEGA)))
    sup = NameSupply.for_term(t)
    s = inject_ckh(t)
    rules = []
    while True:
        r = step_ckh(s, sup)
        if r is None:
            break
        rules.append(r[0])
        s = r[1]
    assert rules == [PUSHARG, DESCEND_LAM]
    assert LOOKUPVAR not in rules  # the diverging binding is never demanded
    # erasure still contains the untouched diverging argument under a label
    result = buildL(s)
    assert alpha_eq(erase(result), parse(r"\y.(\d.d d) (\d.d d)"))


def test_buildL_clauses():
    heap_name = Name("x", 1)
    v = parse(r"\y.y")
    s = CKHState(Var(heap_name), (), {heap_name: v})
    out = buildL(s)
    assert isinstance(out, Labeled) and out.label == heap_name
    assert term_eq(out.body, v)

    t = hygienize(parse(r"(\a.a) (\b.b)"))
    assert term_eq(buildL(inject_ckh(t)), t)

    s = CKHState(v, (VarF(heap_name),), {})
    out = buildL(s)
    assert isinstance(out, Labeled) and out.label == heap_name
    assert term_eq(out.body, v)


def test_buildL_shares_closed_bindings():
    heap_name = Name("x", 1)
    body = App(Var(heap_name), Var(heap_name))
    s = CKHState(Lam(Name("w"), body), (), {heap_name: parse(r"\y.y")})
    out = buildL(s)
    assert is_cl(out)


def test_eval_ckh():
    r = eval_ckh(parse(r"(\x.x) (\y.y)"), 100)
    assert isinstance(r, Done) and r.steps == 4
    assert alpha_eq(erase(r.answer), parse(r"\y.y"))
    assert isinstance(eval_ckh(parse(OMEGA), 50), Timeout)


def test_heap_bindings_evaluated_at_most_once():
    # after a value is written back, later lookups reinstall the same value
    t = hygienize(parse(r"(\x.x x) (\a.a)"))
    sup = NameSupply.for_term(t)
    s = inject_ckh(t)
    lookups: dict = {}
    updates: dict = {}
    while True:
        r = step_ckh(s, sup)
        if r is None:
            break
        rule, s2 = r
        if rule == LOOKUPVAR:
            name = s.control.name
            lookups[name] = lookups.get(name, 0) + 1
            if name in updates:
                # the checked-out binding is already a value
                assert isinstance(s2.control, Lam)
        if rule == UPDATEHEAP:
            name = s.frames[0].name
            if name in updates:
                assert alpha_eq(updates[name], s2.heap[name])
            updates[name] = s2.heap[name]
        s = r[1]


def test_labeled_map_step_shape_on_corpus():
    # the labeled image moves only at descend-lam, by exactly one parallel
    # step; updateheap drops a label stack on a value, a no-op modulo
    # value-label normalization
    terms = [parse(r"(\x.x) (\y.y)"), parse(r"(\x.x x) ((\a.a) (\b.b))")] + [
        gen_closed(s, 14) for s in range(60)
    ]
    for t in terms:
        sup = NameSupply.for_term(t)
        s = inject_ckh(hygienize(t, sup))
        for _ in range(250):
            r = step_ckh(s, sup)
            if r is None:
                break
            rule, s2 = r
            m1 = strip_value_labels(buildL(s))
            m2 = strip_value_labels(buildL(s2))
            if rule == DESCEND_LAM:
                n = step_lstep(m1, check=False)
                assert n is not None and alpha_eq(strip_value_labels(n), m2)
            else:
                assert alpha_eq(m1, m2)
            s = s2


def test_extensional_agreement_with_need():
    from needlab.harness import answer_value
    from needlab.need import eval_sr

    for seed in range(80):
        t = gen_closed(seed, 14)
        a = eval_sr(t, 400)
        b = eval_ckh(t, 400)
        assert isinstance(a, Done) == isinstance(b, Done)
        if isinstance(a, Done):
            assert alpha_eq(answer_value("need-sr", a), answer_value("ckh", b))


def _bad_successors(s):
    # states one step could not reach from s, each changing one heap name:
    # a checked-out name still bound, and a binding that reaches itself
    # (through a binding that already references it, where there is one)
    if not s.heap:
        return []
    name = next(iter(s.heap))
    bad = [CKHState(s.control, (VarF(name),) + s.frames, s.heap, name)]
    users = [k for k, v in s.heap.items() if k != name and name in free_vars(v)]
    loop = Var(users[0]) if users else Var(name)
    bad.append(CKHState(Var(name), s.frames, {**s.heap, name: App(loop, loop)}, name))
    return bad


def test_buildL_reuse_matches_fresh_build():
    # a%2 -> \w.x%1 stays the same heap object while x%1 is checked out,
    # evaluated and rebound by updateheap: its closed term must follow x%1
    terms = [parse(r"(\x.(\a.x a) (\w.x)) ((\y.y) (\z.z))"), parse(r"(\x.x x) ((\y.y) (\z.z))")]
    terms += [gen_closed(42 + i, 25) for i in range(40)] + [LEQ]
    reused = rebound_dependency = unresolvable = 0
    for t in terms:
        sup = NameSupply.for_term(t)
        s = inject_ckh(hygienize(t, sup))
        reuse = ImageCache()
        for n in range(400):
            before = dict(reuse.labels)
            out = buildL(s, reuse)
            assert term_eq(out, buildL(s)), print_term(out)
            reused += sum(reuse.labels.get(k) is node for k, node in before.items())
            r = step_ckh(s, sup)
            if r is None:
                break
            rule, s2 = r
            if rule == UPDATEHEAP:
                name = s.frames[0].name
                rebound_dependency += any(
                    k != name and k in reuse.labels and name in free_vars(v)
                    for k, v in s2.heap.items()
                )
            if n % 7 == 0:
                # both paths refuse the state, and the cache still serves the run
                for bad in _bad_successors(s):
                    with pytest.raises(UnresolvableVariable):
                        buildL(bad)
                    with pytest.raises(UnresolvableVariable):
                        buildL(bad, reuse)
                    unresolvable += 1
            s = s2
    assert reused > 0 and rebound_dependency > 0 and unresolvable > 0


def test_step_without_supply_mints_a_name_unbound_in_the_heap():
    # the supply is seeded from the whole state: x%1 is bound in the heap
    # but occurs in neither the control nor the top argument
    x1 = Name("x", 1)
    s = CKHState(parse(r"\x.x"), (ArgF(parse(r"\w.w")), ArgF(Var(x1))), {x1: parse(r"\q.q")})
    assert print_term(buildL(s)) == r"(\x.x) (\w.w) x%1:(\q.q)"
    rule, s2 = step_ckh(s)
    assert rule == DESCEND_LAM and s2.changed not in s.heap
    assert s2.heap[x1] is s.heap[x1]
    assert print_term(buildL(s2)) == r"x%2:(\w.w) x%1:(\q.q)"


def test_descend_lam_on_a_control_that_is_not_normalized():
    # the inner \x rebinds x: inject_ckh renames it, and only the outer x
    # becomes the heap name
    rule, s = step_ckh(inject_ckh(parse(r"(\x.(\x.x) x) (\q.q)")))
    assert rule == PUSHARG
    for supply, k in ((None, 2), (NameSupply(5), 5)):
        rule, s2 = step_ckh(s, supply)
        inner = s2.control.fn
        assert rule == DESCEND_LAM and s2.changed == Name("x", k)
        assert inner.body.name == inner.binder != s2.changed == s2.control.arg.name
        assert print_term(s2.control) == rf"(\x%1.x%1) x%{k}"


def test_steps_report_the_heap_name_they_change():
    t = hygienize(parse(r"(\x.x x) ((\y.y) (\z.z))"))
    sup = NameSupply.for_term(t)
    s = inject_ckh(t)
    assert s.changed is None
    while (r := step_ckh(s, sup)) is not None:
        rule, s2 = r
        if rule == PUSHARG:
            assert s2.changed is None and s2.heap == s.heap
        else:
            name = s2.changed
            assert (name in s2.heap) == (rule != LOOKUPVAR)
            assert (name in s.heap) == (rule == LOOKUPVAR)
            assert {k: v for k, v in s.heap.items() if k != name} == {
                k: v for k, v in s2.heap.items() if k != name
            }
        s = s2


def test_drive_keeps_one_heap_for_the_run():
    # a drive's steps change one copy of the injected heap in place; a
    # step that copied the heap would yield a new heap object
    s, supply = start(gen_closed(921, 25), 4000, initial_state)
    states = [state for _, state in islice(drive(s, supply), 4000)]
    assert len(states) == 4000 and all(state.heap is states[0].heap for state in states)
    assert len(states[-1].heap) == 667 and s.heap == {}


def test_steps_that_keep_the_image_return_the_same_object():
    # a pusharg or a lookup leaves the image as it was, and buildL must
    # return the very object it returned before: a trace's PrintMemo then
    # prints the step from memory
    checked = 0
    for t in [gen_closed(42 + i, 25) for i in range(300)] + [LEQ]:
        sup = NameSupply.for_term(t)
        s = inject_ckh(hygienize(t, sup))
        reuse = ImageCache()
        image = buildL(s, reuse)
        for n, (rule, s2) in enumerate(islice(drive(s, sup), 1000)):
            last, image = image, buildL(s2, reuse)
            if rule in (PUSHARG, LOOKUPVAR):
                assert image is last, f"{rule} at step {n + 1} of {print_term(t)}"
                checked += 1
    assert checked > 1000


def test_image_cache_stays_bounded_on_a_long_run():
    # the heap grows to 667 bindings, most of them unreachable, and the
    # cache must not grow with it: a label lives until a step drops it, and
    # the memo keeps only what the last call used
    s, supply = start(gen_closed(921, 25), 4000, initial_state)
    reuse = ImageCache()
    peak = 0
    for _, state in islice(drive(s, supply), 4000):
        buildL(state, reuse)
        tables = (reuse.labels, reuse.bindings, reuse.memo, *reuse.users.values())
        peak = max(peak, sum(map(len, tables)))
    assert len(state.heap) == 667 and peak <= 32


@pytest.mark.parametrize(
    "control, message",
    [
        (Var(Name("z")), "z is not in the heap"),
        (Labeled(Name("z"), parse(r"\i.i")), "control is Labeled"),
    ],
)
def test_step_ckh_names_what_is_wrong_with_an_ill_formed_state(control, message):
    with pytest.raises(UnboundVariable) as raised:
        step_ckh(CKHState(control, (), {}), NameSupply(1))
    assert str(raised.value) == message
