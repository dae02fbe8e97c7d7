from needlab.gen import _enum_db, count_closed, enumerate_closed, gen_closed
from needlab.syntax import parse, print_term
from needlab.terms import (
    App,
    Lam,
    Name,
    Var,
    alpha_eq,
    canon,
    is_closed,
    is_hygienic,
    term_eq,
    term_size,
)


def _name_db_reference(structure):
    # the recursive naming pass enumerate_closed used before its
    # explicit-stack one: binders x0, x1, ... in preorder
    counter = [0]

    def build(node, env):
        kind = node[0]
        if kind == "v":
            return Var(env[-(node[1] + 1)])
        if kind == "l":
            name = Name(f"x{counter[0]}")
            counter[0] += 1
            return Lam(name, build(node[1], env + [name]))
        return App(build(node[1], env), build(node[2], env))

    return build(structure, [])


def test_enumerate_small_inventory():
    # brute-force oracle under the AST-node size metric
    upto3 = list(enumerate_closed(3))
    assert len(upto3) == 3
    expected = [parse(r"\x.x"), parse(r"\x.\y.x"), parse(r"\x.\y.y")]
    for e in expected:
        assert any(alpha_eq(e, t) for t in upto3)
    # the self-application needs four nodes
    upto4 = list(enumerate_closed(4))
    assert any(alpha_eq(parse(r"\x.x x"), t) for t in upto4)
    assert not any(alpha_eq(parse(r"\x.x x"), t) for t in upto3)


def test_enumerate_closed_and_unique():
    seen = set()
    for t in enumerate_closed(6):
        assert is_closed(t)
        assert term_size(t) <= 6
        key = canon(t)
        assert key not in seen, "duplicate alpha-class"
        seen.add(key)
    assert len(seen) == count_closed(6)


def test_enumerate_names_as_the_recursive_reference():
    structures = [s for size in range(1, 10) for s in _enum_db(size, 0)]
    terms = list(enumerate_closed(9))
    assert len(terms) == len(structures) == count_closed(9)
    for structure, t in zip(structures, terms):
        assert term_eq(t, _name_db_reference(structure))
        assert is_closed(t) and is_hygienic(t)
    # nothing carries over from one call to the next
    assert all(term_eq(a, b) for a, b in zip(enumerate_closed(9), terms))


def test_enumerate_stripes_interleave_to_the_whole_enumeration():
    whole = [print_term(t) for t in enumerate_closed(8)]
    for parts in (1, 2, 3, 7):
        for part in range(parts):
            stripe = [print_term(t) for t in enumerate_closed(8, part, parts)]
            assert stripe == whole[part::parts]


def test_enumerate_binder_naming_is_hygienic():
    for t in enumerate_closed(6):
        assert is_hygienic(t)


def test_gen_closed_deterministic():
    a = gen_closed(42, 20)
    b = gen_closed(42, 20)
    assert term_eq(a, b)


def test_gen_closed_contract():
    for seed in range(200):
        t = gen_closed(seed, 17)
        assert is_closed(t)
        assert 2 <= term_size(t) <= 17
        assert is_hygienic(t)
