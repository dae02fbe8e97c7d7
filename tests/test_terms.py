import pytest

from needlab.gen import gen_closed
from needlab.lstep import substlab
from needlab.syntax import parse
from needlab.terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    Var,
    alpha_eq,
    erase,
    free_vars,
    freshen,
    hygienize,
    is_closed,
    is_hygienic,
    strip_value_labels,
    subst,
    subst_shared,
    term_eq,
    term_size,
)


def test_name_rendering():
    assert str(Name("x")) == "x"
    assert str(Name("x", 3)) == "x%3"
    assert f"{Name('x', 3)}" == "x%3"
    assert repr(Name("x", 3)) == "Name(base='x', index=3)"


def test_name_value_semantics():
    n = Name("x")
    assert n == Name("x", 0) and hash(n) == hash(Name("x", 0))
    assert n != Name("x", 1) and n != Name("y")
    assert len({Name("x"), Name("x", 0), Name("x", 1)}) == 2
    with pytest.raises(AttributeError):
        n.base = "y"
    with pytest.raises(AttributeError):
        n.index = 1


def test_free_vars():
    assert free_vars(parse(r"\x.x")) == set()
    assert free_vars(parse(r"\x.y")) == {Name("y")}
    assert free_vars(parse(r"(\x.x) x")) == {Name("x")}
    assert is_closed(parse(r"\x.x"))
    assert not is_closed(parse(r"(\x.x) x"))


def test_subst_single_occurrence_is_exact():
    out = subst(parse(r"\y.x"), Name("x"), parse(r"\a.a"))
    assert term_eq(out, parse(r"\y.\a.a"))


def test_subst_second_copy_freshened():
    out = subst(parse(r"x x"), Name("x"), parse(r"\a.a"))
    assert alpha_eq(out, parse(r"(\a.a) (\a.a)"))
    # first copy keeps its name, second copy is renamed
    assert term_eq(out.fn, parse(r"\a.a"))
    assert not term_eq(out.arg, parse(r"\a.a"))
    assert is_hygienic(out)


def test_subst_capture_avoided():
    out = subst(parse(r"\y.x y"), Name("x"), Var(Name("y")))
    assert alpha_eq(out, parse(r"\w.y w"))
    assert out.binder != Name("y")


def test_subst_shadowed_binder_blocks():
    t = parse(r"\x.x")
    out = subst(t, Name("x"), parse(r"\a.a"))
    assert term_eq(out, t)


def test_subst_safety_property():
    cases = [
        (r"\y.x y x", "x", r"\a.a b"),
        (r"x (x z)", "x", r"y y"),
        (r"\x.x", "x", r"\q.q"),
    ]
    for tsrc, x, ssrc in cases:
        t, s = parse(tsrc), parse(ssrc)
        out = subst(t, Name(x), s)
        assert free_vars(out) <= (free_vars(t) - {Name(x)}) | free_vars(s)


def test_subst_shared_copies_identical():
    out = subst_shared(parse(r"x x"), Name("x"), parse(r"\a.a"))
    assert term_eq(out.fn, out.arg)


def test_alpha_eq():
    assert alpha_eq(parse(r"\x.x"), parse(r"\y.y"))
    assert not alpha_eq(parse(r"\x.\y.x"), parse(r"\a.\b.b"))
    assert alpha_eq(parse(r"(\x.x) (\y.y)"), parse(r"(\a.a) (\a.a)"))


def test_alpha_eq_is_equivalence():
    terms = [parse(r"\x.x"), parse(r"\y.y"), parse(r"\x.\y.x y"), parse(r"\a.\b.a b")]
    for t in terms:
        assert alpha_eq(t, t)
    assert alpha_eq(terms[0], terms[1]) == alpha_eq(terms[1], terms[0])
    if alpha_eq(terms[2], terms[3]) and alpha_eq(terms[3], parse(r"\p.\q.p q")):
        assert alpha_eq(terms[2], parse(r"\p.\q.p q"))


def test_subst_respects_alpha():
    s1, s2 = parse(r"\a.a"), parse(r"\b.b")
    t = parse(r"x (\y.x)")
    assert alpha_eq(subst(t, Name("x"), s1), subst(t, Name("x"), s2))


def test_hygiene_check_and_repair():
    t = parse(r"(\x.x) (\x.x)")
    assert not is_hygienic(t)
    h = hygienize(t)
    assert is_hygienic(h)
    assert alpha_eq(t, h)
    # free variables must not be shadowed either
    t2 = parse(r"\x.x y")
    t3 = Lam(Name("y"), t2)  # binder y over free y? no: y bound now
    assert is_hygienic(hygienize(parse(r"(\y.y) y")))


def test_freshen_renames_all_binders():
    supply = NameSupply(10)
    t = parse(r"\x.\y.x y")
    f = freshen(t, supply)
    assert alpha_eq(t, f)
    assert f.binder.index >= 10


def test_name_supply_monotone():
    supply = NameSupply.for_term(parse(r"\x.x x%7"))
    n1, n2 = supply.fresh("x"), supply.fresh("y")
    assert n1.index > 7
    assert n2.index > n1.index


def test_term_size():
    assert term_size(parse(r"\x.x")) == 2
    assert term_size(parse(r"\x.x x")) == 4


def test_label_walks_return_unchanged_input_itself():
    # erase, strip_value_labels and substlab share one rebuild that keeps
    # unchanged subtrees as the same objects; PrintMemo and buildL(s, reuse)
    # match nodes by identity
    z, s = Name("z", 9), parse(r"\q.q")
    for i in range(50):
        t = gen_closed(42 + i, 25)
        assert erase(t) is t
        assert strip_value_labels(t) is t
        assert substlab(t, z, s) is t
    # labels around non-values only, and none named z
    t = parse(r"\v.l%3:(v v) (k%4:(v) (\a.a))")
    assert strip_value_labels(t) is t
    assert substlab(t, z, s) is t
    once = substlab(t, Name("l", 3), s)
    assert once is not t and substlab(once, Name("l", 3), s) is once
    # a changed node is rebuilt, its unchanged siblings are kept
    pure = parse(r"\b.b")
    erased = erase(App(Labeled(Name("l", 1), parse(r"\a.a")), pure))
    assert erased.arg is pure and term_eq(erased.fn, parse(r"\a.a"))
