import copy
import pickle
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlab import ck, ckh, lstep
from needlab.frames import ArgF, BodF, LamF, context_term
from needlab.gen import enumerate_closed, gen_closed
from needlab.lstep import is_labeled_value, step_lstep, substlab
from needlab.results import start
from needlab.syntax import parse, print_term
from needlab.terms import (
    HOLE,
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    Var,
    alpha_eq,
    canon,
    erase,
    free_vars,
    freshen,
    hygienize,
    is_closed,
    is_hygienic,
    normalize,
    rewrite,
    scan,
    strip_value_labels,
    subst,
    subst_shared,
    subterms,
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


X = Name("x")

#: One maker per immutable record class: two calls give structurally equal
#: instances.
RECORDS = {
    "Var": lambda: Var(X),
    "Lam": lambda: Lam(X, Var(X)),
    "App": lambda: App(HOLE, HOLE),
    "Labeled": lambda: Labeled(X, HOLE),
    "ArgF": lambda: ArgF(HOLE),
    "LamF": lambda: LamF(X),
    "BodF": lambda: BodF(X, (), ()),
    "VarF": lambda: ckh.VarF(X),
    "CKState": lambda: ck.CKState(HOLE),
    "CKHState": lambda: ckh.CKHState(HOLE, (), {}),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_are_immutable_and_compared_by_identity(kind):
    a, b = RECORDS[kind](), RECORDS[kind]()
    assert type(a).__name__ == kind
    assert a != b and hash(a) != hash(b) and a == a
    assert repr(a) == repr(b) and repr(a).startswith(f"{kind}(")
    for field in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.other = 1
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(copied) is type(a) and copied is not a and repr(copied) == repr(a)


def test_record_fields_and_defaults():
    assert repr(App(Var(X), Lam(X, Var(X)))) == (
        "App(fn=Var(name=Name(base='x', index=0)), "
        "arg=Lam(binder=Name(base='x', index=0), body=Var(name=Name(base='x', index=0))))"
    )
    assert ck.CKState(HOLE).frames == ()
    assert ckh.CKHState(HOLE, (), {}).changed is None
    with pytest.raises(TypeError):  # no default heap: a shared one would be mutable
        ckh.CKHState(HOLE)
    s = ckh.initial_state(HOLE)
    assert s.frames == () and s.heap == {} and s.heap is not ckh.initial_state(HOLE).heap
    assert repr(pickle.loads(pickle.dumps(s))) == repr(s)


def test_fresh_names_are_names():
    supply = NameSupply(4)
    n = supply.fresh("y")
    assert type(n) is Name and n == Name("y", 4) and str(n) == "y%4"
    assert supply.fresh() == Name("x", 5)


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


def test_subst_shared_binder_of_x_shadows():
    t, s = parse(r"(\x.x) x"), parse(r"\a.a")
    out = subst_shared(t, Name("x"), s)
    assert out.fn is t.fn and out.arg is s


def test_subst_shared_rewrites_a_label_once_per_side():
    # the two free copies of l share one rewritten node; the copy under \x
    # rebinds x and comes back as it was
    t, s = parse(r"l:(x y) l:(x y) (\x.l:(x y))"), parse(r"\a.a")
    assert t.fn.fn is not t.fn.arg
    out = subst_shared(t, Name("x"), s)
    assert out.fn.fn is out.fn.arg and out.fn.fn.body.fn is s
    assert out.arg is t.arg
    assert term_eq(out, parse(r"l:((\a.a) y) l:((\a.a) y) (\x.l:(x y))"))


def test_alpha_eq():
    assert alpha_eq(parse(r"\x.x"), parse(r"\y.y"))
    assert not alpha_eq(parse(r"\x.\y.x"), parse(r"\a.\b.b"))
    assert alpha_eq(parse(r"(\x.x) (\y.y)"), parse(r"(\a.a) (\a.a)"))


@pytest.mark.parametrize(
    "left, right, equal",
    [
        (r"l:(\x.x) m:(\x.x)", r"l:(\x.x) l:(\x.x)", False),
        (r"l:(\x.x) m:(\y.y)", r"m:(\x.x) l:(\y.y)", True),
        (r"\x.\x.x", r"\a.\b.b", True),
        (r"\x.\x.x", r"\x.\y.x", False),
        (r"\a.\b.b", r"\x.\y.x", False),
        (r"\x.y", r"\x.x", False),
        ("y", "z", False),
        (r"(\x.x) []", r"(\y.y) []", True),
        (r"\y.[] (\x.x y)", r"\y.[] (\x.x y)", True),
    ],
    ids=[
        "labels-renamed-injectively",
        "labels-swapped",
        "shadowing",
        "shadowed-vs-outer",
        "inner-vs-outer",
        "free-vs-bound",
        "free-names",
        "hole",
        "context-itself",
    ],
)
def test_alpha_eq_hand_cases(left, right, equal):
    # labels compare modulo one injective renaming, free names exactly,
    # bound variables by binder, and holes are equal
    t1, t2 = parse(left), parse(right)
    assert alpha_eq(t1, t2) is alpha_eq(t2, t1) is equal
    assert (canon(t1) == canon(t2)) is equal


def test_canon_of_a_deep_spine_compares_and_hashes_flat():
    # the form is one flat tuple, so == and hashing never recurse
    x, y = Name("x"), Name("y")
    body = Var(y)
    for _ in range(5000):
        body = App(body, Var(x))
    t = Lam(x, Lam(y, body))
    f = freshen(t, NameSupply.for_term(t))
    assert f.binder != x
    assert canon(t) == canon(f) and alpha_eq(t, f)
    assert len({canon(t), canon(f)}) == 1
    assert len(canon(t)) == term_size(t)


def test_alpha_eq_is_equivalence():
    terms = [parse(r"\x.x"), parse(r"\y.y"), parse(r"\x.\y.x y"), parse(r"\a.\b.a b")]
    for t in terms:
        assert alpha_eq(t, t)
    assert alpha_eq(terms[0], terms[1]) == alpha_eq(terms[1], terms[0])
    if alpha_eq(terms[2], terms[3]) and alpha_eq(terms[3], parse(r"\p.\q.p q")):
        assert alpha_eq(terms[2], parse(r"\p.\q.p q"))


def _agrees_with_canon(a, b):
    """alpha_eq(a, b), after checking it against its definition by canon."""
    equal = alpha_eq(a, b)
    assert equal == (canon(a) == canon(b)) == alpha_eq(b, a), (print_term(a), print_term(b))
    return equal


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=25))
@settings(max_examples=150, deadline=None)
def test_alpha_eq_agrees_with_canon_on_renamings(seed, size):
    # renamed copies, other terms, and pairs that share one subterm object
    t, other = gen_closed(seed, size), gen_closed(seed + 1, size)
    renamed = freshen(t, NameSupply(1000))
    assert _agrees_with_canon(t, renamed)
    twice = App(t, t)  # its second copy's binders repeat the first's
    assert _agrees_with_canon(twice, hygienize(twice, NameSupply(500)))
    assert _agrees_with_canon(App(t, other), App(renamed, other))
    _agrees_with_canon(t, other)
    _agrees_with_canon(renamed, freshen(other, NameSupply(2000)))
    _agrees_with_canon(App(other, t), App(renamed, other))


def _relabeled(t, relabel):
    """t with every label mapped through relabel, each label's body
    rewritten once; unlabeled subtrees stay the same objects."""
    done = {}

    def leave(node, body, env):
        return done.setdefault(node.label, Labeled(relabel(node.label), body))

    return rewrite(t, lambda node, env: done.get(node.label), leave)


def test_alpha_eq_agrees_with_canon_on_relabeled_lstep_states():
    # labels compare modulo an injective renaming: a relabeled state is
    # alpha_eq to itself until two of its labels merge
    merged = 0
    for i in [*range(100), 249]:
        u = hygienize(gen_closed(42 + i, 25))
        supply = NameSupply.for_term(u)
        for _ in range(40):
            if is_labeled_value(u):
                break
            u = step_lstep(u, supply, check=False)
            assert _agrees_with_canon(u, _relabeled(u, lambda l: Name("r", l.index + 7)))
            one = _relabeled(u, lambda l: Name("r"))
            merged += not _agrees_with_canon(u, one)
            _agrees_with_canon(u, strip_value_labels(u))
            _agrees_with_canon(one, strip_value_labels(one))
    assert merged > 100


def test_alpha_eq_agrees_with_canon_where_binders_share_a_body():
    # one object s (closed) or s2 (mentions x and y) under binders that
    # differ by name, by order or by shadowing
    x, y = Name("x"), Name("y")
    s = parse(r"\z.z")
    s2 = App(Var(x), Var(y))
    cases = [
        (Lam(x, App(Var(x), s)), Lam(y, App(Var(y), s)), True),
        (Lam(x, s2), Lam(y, s2), False),
        (Lam(x, Lam(y, s2)), Lam(y, Lam(x, s2)), False),
        (Lam(y, Lam(x, s2)), Lam(x, Lam(x, s2)), False),
        (Lam(y, Lam(x, s2)), Lam(y, Lam(x, s2)), True),
        (Lam(x, Lam(x, App(Var(x), s))), Lam(y, Lam(x, App(Var(x), s))), True),
        (App(Lam(x, s2), s2), App(Lam(x, s2), s2), True),
        (App(Lam(x, s2), s2), App(Lam(y, s2), s2), False),
    ]
    for a, b, equal in cases:
        assert _agrees_with_canon(a, b) is equal


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


def test_freshen_keeps_free_names_outside_a_binder():
    # the free x after the abstraction is outside the renamed binder's scope
    t = parse(r"(\x.x) x")
    f = freshen(t, NameSupply(10))
    assert f.fn.binder == f.fn.body.name == Name("x", 10)
    assert f.arg is t.arg


def test_subst_for_a_name_not_free_returns_the_input_itself():
    s = parse(r"\a.a")
    for src in (r"\y.y (\z.z)", r"(\x.x) (\y.\x.y x)", r"\q.l:(q)"):
        t = parse(src)
        assert subst(t, Name("x"), s) is t
        assert subst_shared(t, Name("x"), s) is t
        assert freshen(t, NameSupply(10)) is not t


def test_name_supply_monotone():
    supply = NameSupply.for_term(parse(r"\x.x x%7"))
    n1, n2 = supply.fresh("x"), supply.fresh("y")
    assert n1.index > 7
    assert n2.index > n1.index


def test_name_supply_sees_every_name_kind():
    x, y, lab = Name("x", 3), Name("y", 5), Name("l", 9)
    cases = [
        (Var(x), 4),
        (Lam(y, Var(y)), 6),
        (Labeled(lab, Lam(x, Var(x))), 10),
        (App(HOLE, Lam(y, App(Var(y), Labeled(lab, HOLE)))), 10),
    ]
    for t, expected in cases:
        assert NameSupply.for_term(t).fresh().index == expected
    assert NameSupply.for_terms(t for t, _ in cases[:2]).fresh().index == 6
    assert NameSupply.for_terms(()).fresh().index == 1


def test_name_supply_walks_a_shared_labeled_node_once():
    # at step 30 of this lstep run, label bodies shared by identity unfold
    # to a term too large to walk copy by copy; is_cl takes under a ms
    state, supply = start(hygienize(gen_closed(999684, 14)), 30, labels=True)
    for _, state in islice(lstep.drive(state, supply), 30):
        pass
    began = time.perf_counter()
    seed = NameSupply.for_term(state)
    assert step_lstep(state) is not None
    assert time.perf_counter() - began < 2.0
    assert seed.fresh() == supply.fork().fresh()


def test_name_supply_fork():
    supply = NameSupply(4)
    fork = supply.fork()
    assert [fork.fresh().index, fork.fresh().index] == [4, 5]
    assert supply.fresh().index == 4  # the fork does not advance the original


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


def _is_hygienic_two_walks(t):
    # the hygiene check as it was before scan: free_vars, then every binder
    free = free_vars(t)
    seen = set()
    for node in subterms(t):
        if isinstance(node, Lam):
            b = node.binder
            if b in seen or b in free:
                return False
            seen.add(b)
    return True


def _top_index(t):
    # NameSupply.for_terms' maximum: every variable, binder and label name
    hi = 0
    for node in subterms(t):
        if isinstance(node, Var):
            hi = max(hi, node.name.index)
        elif isinstance(node, Lam):
            hi = max(hi, node.binder.index)
        elif isinstance(node, Labeled):
            hi = max(hi, node.label.index)
    return hi


def _renamed(t, rename, label=None):
    """t with every variable and binder name mapped through rename and,
    when label is given, every application's argument under label(i)."""
    count = [0]

    def go(u):
        if isinstance(u, Var):
            return Var(rename(u.name))
        if isinstance(u, Lam):
            return Lam(rename(u.binder), go(u.body))
        if isinstance(u, App):
            fn, arg = go(u.fn), go(u.arg)
            if label is not None:
                count[0] += 1
                arg = Labeled(label(count[0]), arg)
            return App(fn, arg)
        return u

    return go(t)


def _scan_cases(t):
    """t, its subterms (open ones among them), and copies whose names carry
    indices, collapse onto a few (shadowing and capture), or carry labels."""
    indexed = _renamed(t, lambda n: Name("x", int(n.base[1:]) + 1))
    collapsed = _renamed(t, lambda n: Name("x", int(n.base[1:]) % 3))
    labeled = _renamed(t, lambda n: n, lambda i: Name("l", 2 * i))
    yield from subterms(t)
    yield from subterms(indexed)
    yield from subterms(collapsed)
    yield labeled


def _check_scan(t):
    found = scan(t)
    assert found.free == free_vars(t), print_term(t)
    assert found.top == _top_index(t) == NameSupply.for_term(t).fresh().index - 1
    assert found.hygienic == _is_hygienic_two_walks(t), print_term(t)
    assert found.labeled == any(isinstance(n, Labeled) for n in subterms(t))


def test_scan_agrees_with_the_separate_walks():
    corpus = list(enumerate_closed(7)) + [gen_closed(seed, 25) for seed in range(200)]
    checked = open_ = unhygienic = labeled = 0
    for t in corpus:
        for u in _scan_cases(t):
            _check_scan(u)
            found = scan(u)
            checked += 1
            open_ += bool(found.free)
            unhygienic += not found.hygienic
            labeled += found.labeled
    assert checked > 9_000 and open_ > 5_000 and unhygienic > 300 and labeled > 300


@pytest.mark.parametrize(
    "t, free, top, hygienic, labeled",
    [
        (parse(r"(\x.x) y%2"), {Name("y", 2)}, 2, True, False),
        (parse(r"\x.\x.x"), set(), 0, False, False),
        (parse(r"\x.(\x%3.x%3) x"), set(), 3, True, False),
        (parse(r"\x.(\x.x) x"), set(), 0, False, False),
        (parse(r"(\y.y) y"), {Name("y")}, 0, False, False),
        (parse(r"l%4:(\x.x) (\y.y)"), set(), 4, True, True),
        (context_term((ArgF(parse(r"\z%5.z%5")), LamF(Name("y")))), set(), 5, True, False),
    ],
    ids=["open", "shadowed", "nested", "shadowed-then-bound", "binder-also-free", "labeled", "hole"],
)
def test_scan_hand_cases(t, free, top, hygienic, labeled):
    assert scan(t) == (free, top, hygienic, labeled)
    _check_scan(t)


def _shared_nest(k):
    """l_k:(\\a_k.n n) where n is the level below, down to l_0:(\\z.z): one
    node per level, shared by identity, 2^k copies unfolded."""
    t = Labeled(Name("l"), Lam(Name("z"), Var(Name("z"))))
    for i in range(1, k + 1):
        t = Labeled(Name("l", i), Lam(Name("a", i), App(t, t)))
    return t


def test_scan_walks_a_shared_labeled_node_once():
    # each body is walked once and its binders counted once; a tree with the
    # same text has each binder 2^k times
    began = time.perf_counter()
    assert scan(_shared_nest(40)) == (set(), 40, True, True)
    assert time.perf_counter() - began < 2.0
    tree = parse(print_term(_shared_nest(4)))
    assert scan(tree) == (set(), 4, False, True)
    _check_scan(tree)


def test_scan_reads_a_shared_body_free_under_each_binder():
    # a body met again under other binders is not walked again; the names
    # free in it are looked up where it is met
    x, y = Name("x"), Name("y")
    s = Labeled(Name("l"), App(Var(x), Var(y)))
    cases = [
        App(Lam(y, s), s),
        App(s, Lam(y, s)),
        Lam(x, App(s, Lam(y, s))),
        Lam(y, App(Lam(x, s), s)),
        Lam(x, Lam(y, App(s, Labeled(Name("m"), App(Lam(x, s), s))))),
    ]
    for t in cases:
        assert scan(t).free == free_vars(t), print_term(t)

    def nest(k):  # each copy of the level below under \x or \y
        t = s
        for i in range(1, k + 1):
            t = Labeled(Name("l", i), App(Lam(x, t), Lam(y, t)))
        return t

    assert scan(nest(6)).free == free_vars(nest(6)) == {x, y}
    assert scan(Lam(x, nest(40))).free == {y}


def test_run_starts_on_a_shared_labeled_state():
    # state 30 of this lstep run has 66 distinct nodes; a scan that walked
    # every copy of its shared bodies did not finish in 20 s, so neither did
    # a run started from it
    state, supply = start(hygienize(gen_closed(999684, 14)), 30, labels=True)
    for _, state in islice(lstep.drive(state, supply), 30):
        pass
    began = time.perf_counter()
    assert scan(state) == (set(), supply.fork().fresh().index - 1, True, True)
    assert lstep.eval_lstep(state, 5).steps == 5
    assert time.perf_counter() - began < 2.0


def test_normalize_gives_an_alpha_equal_hygienic_term():
    # the collapsed copies shadow and capture, so a binder's renaming must
    # end where its scope does
    corpus = list(enumerate_closed(7)) + [gen_closed(seed, 25) for seed in range(200)]
    renamed = 0
    for t in corpus:
        for u in _scan_cases(t):
            h = normalize(u)[0]
            assert is_hygienic(h) and alpha_eq(h, u), print_term(u)
            renamed += h is not u
    assert renamed > 300
