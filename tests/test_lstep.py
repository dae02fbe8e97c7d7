import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlab.gen import gen_closed
from needlab.lstep import (
    NotConsistentlyLabeled,
    erase,
    eval_lstep,
    is_cl,
    is_labeled_value,
    step_lstep,
    substlab,
)
from needlab.results import Done, Timeout
from needlab.syntax import parse
from needlab.terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    Var,
    alpha_eq,
    hygienize,
    rewrite,
    subterms,
    term_eq,
)

OMEGA = r"(\d.d d) (\d.d d)"
L = Name("l", 1)
L2 = Name("l", 2)


def lab(name, t):
    return Labeled(name, t)


def I(v="a"):
    return parse(rf"\{v}.{v}")


def is_cl_reference(t):
    """The whole-tree walk is_cl replaced: every labeled node is visited,
    shared or repeated bodies included."""
    bodies = {}
    for node in subterms(t):
        if isinstance(node, Labeled):
            prev = bodies.get(node.label)
            if prev is None:
                bodies[node.label] = node.body
            elif prev is not node.body and not term_eq(prev, node.body):
                return False
    return True


def test_is_cl():
    shared = App(I(), I("b"))
    t = App(lab(L, shared), lab(L, shared))
    assert is_cl(t)
    assert is_cl(parse(r"(\x.x x) (\y.y)"))  # unlabeled, vacuous
    M = Name("m", 1)
    conflict = App(lab(M, I("a")), lab(M, I("b")))
    bad = [
        App(lab(L, I()), lab(L, App(I(), I()))),
        # the only conflict is m's, and its first m sits under l, which repeats
        parse(r"l:(m:(\a.a)) l:(m:(\a.a)) m:(\b.b)"),
        # the conflict sits inside one body object that two parents share
        App(lab(L, conflict), lab(L, conflict)),
        App(lab(L, conflict), lab(L2, conflict)),
        # the conflicting l sits inside the body of another label
        parse(r"l:(x) m:(l:(y))"),
    ]
    for t_bad in bad:
        assert not is_cl(t_bad)
        assert not is_cl_reference(t_bad)


def replace_nth_label_body(t, n, body):
    """t with the body of its n-th labeled node (preorder) replaced."""
    seen = [0]

    def enter(node):
        seen[0] += 1
        return Labeled(node.label, body) if seen[0] == n + 1 else None

    return rewrite(t, enter)


def lstep_states(t, steps):
    u = hygienize(t)
    sup = NameSupply.for_term(u)
    yield u
    for _ in range(steps):
        if is_labeled_value(u):
            return
        u = step_lstep(u, sup, check=False)
        yield u


def check_states_and_relabelings(t, steps):
    """is_cl and the reference agree on each state of t's lstep trace and,
    where the state carries labels, on that state with one labeled body
    swapped for a foreign one."""
    foreign = parse(r"\q.q q")
    for i, u in enumerate(lstep_states(t, steps)):
        assert is_cl(u) and is_cl_reference(u)
        labeled = sum(isinstance(n, Labeled) for n in subterms(u))
        if labeled > 1:
            v = replace_nth_label_body(u, i % labeled, foreign)
            assert is_cl(v) == is_cl_reference(v)


def test_is_cl_agrees_with_reference_on_corpus_traces():
    # the acceptance corpus prefix; 74 and 249 are its divergent witnesses,
    # whose states pile up repeated and nested labels
    for i in [*range(100), 249]:
        check_states_and_relabelings(gen_closed(42 + i, 25), 300)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=25))
@settings(max_examples=120, deadline=None)
def test_is_cl_agrees_with_reference_on_random_traces(seed, size):
    check_states_and_relabelings(gen_closed(seed, size), 60)


def test_erase():
    assert term_eq(erase(lab(L, I())), I())
    assert term_eq(erase(App(lab(L, lab(L2, I())), Var(Name("x")))), App(I(), Var(Name("x"))))
    t = parse(r"(\x.x x) (\y.y)")
    assert erase(t) is t


def test_substlab_clauses():
    shared = App(I(), I("b"))
    z = Name("z", 1)
    w = Name("w", 1)
    t = App(lab(z, shared), lab(z, shared))
    s = lab(w, I())
    out = substlab(t, z, s)
    assert term_eq(out, App(lab(z, s), lab(z, s)))
    # descends under binders, keeps other labels
    t2 = Lam(Name("y"), lab(z, I()))
    assert term_eq(substlab(t2, z, s), Lam(Name("y"), lab(z, s)))
    t3 = lab(w, lab(z, I()))
    assert term_eq(substlab(t3, z, s), lab(w, lab(z, s)))
    # identity when the label does not occur
    t4 = parse(r"(\x.x) (\y.y)")
    assert substlab(t4, z, s) is t4


def test_golden_parallel_reduction():
    t = hygienize(parse(r"(\x.x x) ((\a.a) (\b.b))"))
    sup = NameSupply.for_term(t)
    trace = [t]
    while not is_labeled_value(trace[-1]):
        trace.append(step_lstep(trace[-1], sup))
    assert len(trace) - 1 == 3
    erased = [erase(u) for u in trace]
    assert alpha_eq(erased[0], parse(r"(\x.x x) ((\a.a) (\b.b))"))
    assert alpha_eq(erased[1], parse(r"((\a.a) (\b.b)) ((\a.a) (\b.b))"))
    assert alpha_eq(erased[2], parse(r"(\b.b) (\b.b)"))
    assert alpha_eq(erased[3], parse(r"\b.b"))
    # the first step shares the argument under one label at both copies
    step1 = trace[1]
    assert isinstance(step1.fn, Labeled) and isinstance(step1.arg, Labeled)
    assert step1.fn.label == step1.arg.label
    assert term_eq(step1.fn.body, step1.arg.body)


def test_cl_preserved_and_labels_fresh():
    for seed in range(120):
        t = hygienize(gen_closed(seed, 13))
        sup = NameSupply.for_term(t)
        seen_labels = set()
        for _ in range(60):
            if is_labeled_value(t):
                break
            labels_before = {n.label for n in subterms(t) if isinstance(n, Labeled)}
            t = step_lstep(t, sup, check=True)
            assert is_cl(t)
            labels_after = {n.label for n in subterms(t) if isinstance(n, Labeled)}
            new = labels_after - labels_before
            for n in new:
                assert n not in seen_labels
            seen_labels |= labels_after


def test_not_cl_rejected():
    t = App(lab(L, I()), lab(L, App(I(), I())))
    with pytest.raises(NotConsistentlyLabeled):
        step_lstep(t)


def test_eval_lstep():
    r = eval_lstep(parse(r"(\x.x x) ((\a.a) (\b.b))"), 100)
    assert isinstance(r, Done) and r.steps == 3
    assert alpha_eq(erase(r.answer), parse(r"\b.b"))

    r = eval_lstep(parse(r"\x.x"), 10)
    assert isinstance(r, Done) and r.steps == 0

    assert isinstance(eval_lstep(parse(OMEGA), 50), Timeout)


def test_labeled_redex_contracts_all_copies():
    t = hygienize(parse(r"(\x.x x) ((\a.a) (\b.b))"))
    sup = NameSupply.for_term(t)
    t1 = step_lstep(t, sup)
    t2 = step_lstep(t1, sup)
    # both copies advanced in the same step
    assert term_eq(erase(t2.fn), erase(t2.arg))


def test_step_lstep_substitution_stops_at_shadowing_binder():
    # shared copies keep their names, so binders can repeat; an inner
    # binder of the same name shadows the substituted variable
    r = step_lstep(parse(r"(\x.(\y.x) (\x.x)) (\z.z)"), check=False)
    shared = Labeled(Name("x", 1), parse(r"\z.z"))
    assert term_eq(r, App(Lam(Name("y"), shared), parse(r"\x.x")))
