"""The `programs` workload: Church-numeral and boolean programs.

Each program is a small expression tree.  It is rendered to needlab source
text in let style, ``(\\name.body) definition``, with only the helpers it
uses, and its expected boolean is computed from the same tree with Python
integers.  Lazy pairs use the prelude's free ``cons``/``car``/``cdr``.

Print the list with its expected answers:

    python3 bench/programs.py
"""
from __future__ import annotations

HELPERS = {
    "true": (r"\t.\f.t", ()),
    "false": (r"\t.\f.f", ()),
    "and": (r"\p.\q.p q p", ()),
    "not": (r"\p.p false true", ("true", "false")),
    "succ": (r"\n.\f.\x.f (n f x)", ()),
    "add": (r"\m.\n.\f.\x.m f (n f x)", ()),
    "mul": (r"\m.\n.\f.m (n f)", ()),
    "pred": (r"\n.\f.\x.n (\g.\h.h (g f)) (\u.x) (\u.u)", ()),
    "sub": (r"\m.\n.n pred m", ("pred",)),
    "iszero": (r"\n.n (\x.false) true", ("true", "false")),
    "eq": (r"\m.\n.and (iszero (sub m n)) (iszero (sub n m))", ("and", "iszero", "sub")),
}

OMEGA = r"(\d.d d) (\d.d d)"


def N(k: int) -> tuple:
    """The numeral k as an expression-tree leaf."""
    return ("num", k)


# Expression trees: ("num", k) | (helper, *args) | ("let", name, bound, body)
# | ("var", name) | ("cons", a, b) | ("car", p) | ("cdr", p) | ("omega",)
PROGRAMS = [
    ("add-succ", ("eq", ("add", N(1), N(2)), ("succ", ("succ", N(1))))),
    ("mul-add", ("eq", ("mul", N(2), N(2)), ("add", N(1), N(2)))),
    ("sub-pred", ("iszero", ("sub", N(2), ("pred", N(3))))),
    (
        "shared-numeral",
        ("let", "n", ("sub", N(3), N(1)),
         ("iszero", ("sub", ("add", ("var", "n"), ("var", "n")), ("mul", N(2), ("var", "n"))))),
    ),
    (
        "shared-boolean",
        ("let", "b", ("iszero", ("pred", ("pred", N(2)))),
         ("and", ("var", "b"), ("and", ("not", ("not", ("var", "b"))), ("var", "b")))),
    ),
    (
        "lazy-pair",
        ("iszero", ("car", ("cdr", ("cons", N(3), ("cons", ("sub", N(2), N(2)), ("omega",)))))),
    ),
]


def _numeral(k: int) -> str:
    body = "x"
    for _ in range(k):
        body = f"f ({body})" if body != "x" else "f x"
    return rf"(\f.\x.{body})"


def _render(e, used: set) -> str:
    kind = e[0]
    if kind == "num":
        return _numeral(e[1])
    if kind == "var":
        return e[1]
    if kind == "omega":
        return f"({OMEGA})"
    if kind == "let":
        _, name, bound, body = e
        return rf"((\{name}.{_render(body, used)}) ({_render(bound, used)}))"
    if kind in ("cons", "car", "cdr"):
        return "(" + " ".join([kind] + [_render(a, used) for a in e[1:]]) + ")"
    used.add(kind)
    return "(" + " ".join([kind] + [_render(a, used) for a in e[1:]]) + ")"


def _closure(names: set) -> list[str]:
    """Helpers in dependency order, each after the helpers it mentions."""
    order: list[str] = []

    def visit(name):
        if name in order:
            return
        for dep in HELPERS[name][1]:
            visit(dep)
        order.append(name)

    for name in sorted(names):
        visit(name)
    return order


def source(e) -> str:
    """Let-style source text: every helper the program uses, bound outside it."""
    used: set = set()
    text = _render(e, used)
    for name in reversed(_closure(used)):
        text = rf"(\{name}.{text}) ({HELPERS[name][0]})"
    return text


def expected(e, env=None):
    """The program's value computed with Python integers and booleans."""
    env = env or {}
    kind = e[0]
    if kind == "num":
        return e[1]
    if kind == "var":
        return env[e[1]]()
    if kind == "let":
        _, name, bound, body = e
        return expected(body, {**env, name: lambda: expected(bound, env)})
    if kind == "omega":
        raise AssertionError("a diverging component was demanded")
    if kind == "cons":
        return (lambda: expected(e[1], env), lambda: expected(e[2], env))
    if kind in ("car", "cdr"):
        return expected(e[1], env)[0 if kind == "car" else 1]()
    args = [expected(a, env) for a in e[1:]]
    return {
        "true": lambda: True,
        "false": lambda: False,
        "and": lambda: args[0] and args[1],
        "not": lambda: not args[0],
        "succ": lambda: args[0] + 1,
        "add": lambda: args[0] + args[1],
        "mul": lambda: args[0] * args[1],
        "pred": lambda: max(args[0] - 1, 0),
        "sub": lambda: max(args[0] - args[1], 0),
        "iszero": lambda: args[0] == 0,
        "eq": lambda: args[0] == args[1],
    }[kind]()


if __name__ == "__main__":
    for name, tree in PROGRAMS:
        print(f"{name}\t{expected(tree)}\t{source(tree)}")
