import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlab import lstep
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

    def enter(node, env):
        seen[0] += 1
        return Labeled(node.label, body) if seen[0] == n + 1 else None

    return rewrite(t, enter)


#: The unfolded size past which check_states_and_relabelings ends a trace:
#: its reference walks every copy of a shared body, and some draws double
#: their unfolded size every few steps (gen_closed(999684, 14) holds 68,888
#: nodes at step 15 and 22 million at step 25)
MAX_UNFOLDED = 20_000


def unfolded_size(t):
    """Nodes of t with every copy of a shared node counted, each distinct
    node walked once."""
    size = {}
    work = [t]
    while work:
        node = work[-1]
        if id(node) in size:
            work.pop()
            continue
        if isinstance(node, App):
            kids = (node.fn, node.arg)
        elif isinstance(node, (Lam, Labeled)):
            kids = (node.body,)
        else:
            kids = ()
        todo = [k for k in kids if id(k) not in size]
        if todo:
            work += todo
            continue
        work.pop()
        size[id(node)] = 1 + sum(size[id(k)] for k in kids)
    return size[id(t)]


def lstep_states(t, steps, max_unfolded=None):
    """t's lstep trace from its hygienic form, up to steps steps; with
    max_unfolded, it ends before the first state unfolding past that."""
    u = hygienize(t)
    sup = NameSupply.for_term(u)
    for i in range(steps + 1):
        if max_unfolded is not None and unfolded_size(u) > max_unfolded:
            return
        yield u
        if i == steps or is_labeled_value(u):
            return
        u = step_lstep(u, sup, check=False)


def check_states_and_relabelings(t, steps):
    """is_cl and the reference agree on each state of t's lstep trace, up
    to MAX_UNFOLDED, and, where the state carries labels, on that state
    with one labeled body swapped for a foreign one."""
    foreign = parse(r"\q.q q")
    for i, u in enumerate(lstep_states(t, steps, MAX_UNFOLDED)):
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
    assert out.fn is out.arg  # one replaced node for every copy
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


def test_step_lstep_is_absent_on_a_value():
    for value in (r"l:(\x.x)", r"\x.x"):
        assert step_lstep(parse(value)) is None


def test_step_lstep_substitution_stops_at_shadowing_binder():
    # shared copies keep their names, so binders can repeat; an inner
    # binder of the same name shadows the substituted variable
    r = step_lstep(parse(r"(\x.(\y.x) (\x.x)) (\z.z)"), check=False)
    shared = Labeled(Name("x", 1), parse(r"\z.z"))
    assert term_eq(r, App(Lam(Name("y"), shared), parse(r"\x.x")))


def test_step_lstep_substitutes_each_copy_where_it_sits():
    # one copy of k sits under a rebinding of x and keeps its x; a step
    # that rewrote k's body once for both copies would substitute into both
    t = parse(r"(\x.k:(x) (\x.k:(x))) (\z.z)")
    assert is_cl(t)
    out = step_lstep(t)
    assert term_eq(out, parse(r"k:(x%1:(\z.z)) (\x.k:(x))"))
    assert out.arg is t.fn.body.arg  # the shadowed side is left as it was


def dag_size(t):
    """Distinct node objects in t: a body that copies share counts once."""
    seen = {}
    work = [t]
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, App):
                work += (node.fn, node.arg)
            elif isinstance(node, (Lam, Labeled)):
                work.append(node.body)
    return len(seen)


def substlab_unshared(t, z, s):
    """substlab with a new Labeled(z, s) per copy and every copy of every
    other label rewritten apart: the rewrite before bodies were shared."""

    def enter(node, env):
        if node.label != z:
            return None
        return node if node.body is s else Labeled(z, s)

    return rewrite(t, enter)


def subst_shared_unshared(t, x, s):
    """terms.subst_shared with every copy of a label rewritten apart."""

    def var_fn(node, shadowed):
        return s if shadowed is None and node.name == x else node

    def lam_fn(node, shadowed):
        return node.binder, (True if node.binder == x else shadowed)

    return rewrite(t, var=var_fn, lam=lam_fn)


def test_step_keeps_one_body_object_per_label(monkeypatch):
    # (\x0.x0 x0) (\x1.x1 (x1 x1)) piles copies of its labels up: rewritten
    # per copy, its state held 1,838 distinct nodes at step 15 and 49,224
    # at step 20; shared, about two more per step
    t = gen_closed(999684, 14)
    shared = []
    for i, u in enumerate(lstep_states(t, 60)):
        assert dag_size(u) <= 200, i
        shared.append(u)
    assert len(shared) == 61
    # the same states as the rewrites that unshare
    monkeypatch.setattr(lstep, "substlab", substlab_unshared)
    monkeypatch.setattr(lstep, "subst_shared", subst_shared_unshared)
    unshared = list(lstep_states(t, 15))
    assert len(unshared) == 16 and dag_size(unshared[-1]) > 1000
    for i, (a, b) in enumerate(zip(shared, unshared)):
        assert term_eq(a, b), i


def label_nodes(t):
    """The distinct Labeled node objects of t, by label."""
    seen, out = set(), {}
    work = [t]
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, App):
                work += (node.fn, node.arg)
            elif isinstance(node, Lam):
                work.append(node.body)
            elif isinstance(node, Labeled):
                out.setdefault(node.label, set()).add(id(node))
                work.append(node.body)
    return out


def test_step_keeps_one_node_per_label_where_the_binder_reappears(monkeypatch):
    # \m.m m m m applied to the numeral 2: the operator's binder (\f or \x)
    # comes back inside its own body through the copies of 2 that the body
    # holds.  Unfolded, the state reaches 812,832 nodes by step 60
    t = parse(r"(\m.m m m m) (\f.\x.f (f x)) (\y.y) (\z.z)")
    substituted = lstep.subst_shared
    rebinds = []

    def spy(body, x, s):
        rebinds.append(any(isinstance(n, Lam) and n.binder == x for n in subterms(body)))
        return substituted(body, x, s)

    monkeypatch.setattr(lstep, "subst_shared", spy)
    shared = list(lstep_states(t, 120))
    assert len(shared) == 121 and sum(rebinds) > 40
    for i, u in enumerate(shared):
        assert dag_size(u) <= 200, i
        assert all(len(nodes) == 1 for nodes in label_nodes(u).values()), i
    monkeypatch.setattr(lstep, "substlab", substlab_unshared)
    monkeypatch.setattr(lstep, "subst_shared", subst_shared_unshared)
    unshared = list(lstep_states(t, 30))
    assert sum(rebinds[:30]) > 10
    for i, (a, b) in enumerate(zip(shared, unshared)):
        assert term_eq(a, b), i
