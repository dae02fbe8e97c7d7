"""Closed-term corpora: seeded random generation and exhaustive enumeration.

Size is the number of AST nodes (Var = 1, Lam = 1 + body, App = 1 + both
sides).  Enumeration is internally de Bruijn so each alpha-class appears
exactly once; binders are then named x0, x1, ... in preorder, which also
makes every emitted term hygienic.
"""
from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator

from .terms import App, Lam, Name, Term, Var

# de Bruijn structures: ("v", k) | ("l", body) | ("a", fn, arg)


@lru_cache(maxsize=None)
def _enum_db(size: int, depth: int) -> tuple:
    out = []
    if size == 1:
        for k in range(depth):
            out.append(("v", k))
    else:
        for body in _enum_db(size - 1, depth + 1):
            out.append(("l", body))
        for left in range(1, size - 1):
            for fn in _enum_db(left, depth):
                for arg in _enum_db(size - 1 - left, depth):
                    out.append(("a", fn, arg))
    return tuple(out)


#: Work-stack markers of _name_db: rebuild a Lam or an App from the results.
_LEAVE_LAM, _LEAVE_APP = ("L",), ("A",)


def _name_db(structure, names: list[Name], occurrences: list[Var]) -> Term:
    """The named term of a de Bruijn structure: the i-th binder in preorder
    is names[i], and each of its occurrences is the node occurrences[i].

    One explicit-stack pass; env holds the numbers of the binders in scope,
    innermost last, and grows and shrinks with the walk.
    """
    env: list[int] = []
    results: list[Term] = []
    emit = results.append
    work = [structure]
    push, pop = work.append, work.pop
    count = 0
    while work:
        node = pop()
        kind = node[0]
        if kind == "v":
            emit(occurrences[env[-1 - node[1]]])
        elif kind == "a":
            push(_LEAVE_APP)
            push(node[2])
            push(node[1])
        elif kind == "l":
            env.append(count)
            count += 1
            push(_LEAVE_LAM)
            push(node[1])
        elif node is _LEAVE_APP:
            arg = results.pop()
            results[-1] = App(results[-1], arg)
        else:
            results[-1] = Lam(names[env.pop()], results[-1])
    return results[0]


def enumerate_closed(max_size: int, part: int = 0, parts: int = 1) -> Iterator[Term]:
    """Every closed term with at most max_size nodes, one per alpha-class;
    of those, only the terms whose index k in that order has
    k % parts == part are named and yielded."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    # Minted once per call and shared by the terms it yields (terms are
    # immutable); a closed term has fewer binders than nodes.
    names = [Name(f"x{i}") for i in range(max_size)]
    occurrences = [Var(name) for name in names]
    k = 0  # the index of the first term of this size
    for size in range(1, max_size + 1):
        structures = _enum_db(size, 0)
        for structure in structures[(part - k) % parts :: parts]:
            yield _name_db(structure, names, occurrences)
        k += len(structures)


def count_closed(max_size: int) -> int:
    return sum(len(_enum_db(s, 0)) for s in range(1, max_size + 1))


def gen_closed(seed: int, max_size: int) -> Term:
    """Deterministic pseudo-random closed term with at most max_size nodes."""
    if max_size < 2:
        raise ValueError("max_size must be >= 2 (smallest closed term has 2 nodes)")
    rng = random.Random(seed)
    counter = [0]
    target = rng.randint(2, max_size)

    def fresh() -> Name:
        name = Name(f"x{counter[0]}")
        counter[0] += 1
        return name

    def build(budget: int, env: tuple[Name, ...]) -> Term:
        assert budget >= 1
        choices = []
        if env:
            choices.append(("var", 2))
        if budget >= 2:
            choices.append(("lam", 3))
        if budget >= 3 and (env or budget >= 5):
            # both application sides must be closable within their budgets
            choices.append(("app", 5))
        if not choices:
            # budget 1 with empty env cannot happen for budget >= 2 roots
            raise AssertionError("unreachable generation state")
        total = sum(w for _, w in choices)
        pick = rng.randrange(total)
        for kind, w in choices:
            if pick < w:
                break
            pick -= w
        if kind == "var":
            return Var(rng.choice(env))
        if kind == "lam":
            name = fresh()
            return Lam(name, build(budget - 1, env + (name,)))
        lo = 1 if env else 2
        hi = budget - 1 - lo
        left = rng.randint(lo, hi)
        fn = build(left, env)
        arg = build(budget - 1 - left, env)
        return App(fn, arg)

    return build(target, ())
