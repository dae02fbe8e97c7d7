import pytest

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


def test_is_cl():
    shared = App(I(), I("b"))
    t = App(lab(L, shared), lab(L, shared))
    assert is_cl(t)
    t_bad = App(lab(L, I()), lab(L, App(I(), I())))
    assert not is_cl(t_bad)
    assert is_cl(parse(r"(\x.x x) (\y.y)"))  # unlabeled, vacuous


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
