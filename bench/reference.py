"""Reference computations made apart from needlab.

Nothing here imports needlab: terms arrive as any objects shaped like its
Var/Lam/App nodes (attributes ``name``, ``binder``/``body``, ``fn``/``arg``)
and are converted to de Bruijn tuples, so the evaluators below share no
substitution, hygiene or search code with the program they check.

de Bruijn terms: ``("v", k)`` | ``("l", body)`` | ``("a", fn, arg)``.
Two named terms are alpha-equivalent iff their de Bruijn forms are equal.

- ``eval_name``: call-by-name to weak head normal form by leftmost-outermost
  beta steps.
- ``eval_lazy``: Launchbury's natural semantics for lazy evaluation, run as
  a heap machine with update frames; the answer is read back by
  substituting heap contents into the value.
- ``parse_db``: printed needlab syntax straight to de Bruijn, with sharing
  labels (``x%1:(...)``) erased.
- ``closed_counts``: closed lambda terms per size (OEIS A220894).
"""
from __future__ import annotations

import re
from functools import lru_cache

_NAME = r"[A-Za-z_][A-Za-z0-9_']*(?:%\d+)?"
#: Blanks, comments and label prefixes match without a ``tok`` group.
_TOKEN = re.compile(rf"\s+|--[^\n]*|{_NAME}:|(?P<tok>[\\λ.()]|{_NAME})")


def to_db(term) -> tuple:
    """de Bruijn form of a closed named term (iterative: spines run deep)."""
    ENTER, EXIT = 0, 1
    work = [(ENTER, term, ())]
    out: list = []
    while work:
        phase, node, env = work.pop()
        kind = type(node).__name__
        if phase == EXIT:
            if kind == "Lam":
                out.append(("l", out.pop()))
            else:
                arg = out.pop()
                out.append(("a", out.pop(), arg))
        elif kind == "Var":
            for k in range(len(env) - 1, -1, -1):
                if env[k] == node.name:
                    out.append(("v", len(env) - 1 - k))
                    break
            else:
                raise ValueError(f"free variable {node.name}")
        elif kind == "Lam":
            work.append((EXIT, node, env))
            work.append((ENTER, node.body, env + (node.binder,)))
        elif kind == "App":
            work.append((EXIT, node, env))
            work.append((ENTER, node.arg, env))
            work.append((ENTER, node.fn, env))
        else:
            raise ValueError(f"unexpected node {kind}")
    return out[0]


def parse_db(text: str) -> tuple:
    """de Bruijn form of a closed term in needlab's printed syntax.

    ``\\x.e`` (or ``λx.e``), application by juxtaposition, parentheses;
    a body extends as far right as it can.  Label prefixes are dropped.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected character {text[pos]!r} at {pos}")
        if m.group("tok"):
            tokens.append(m.group("tok"))
        pos = m.end()
    tokens.append(None)
    at = 0

    def term(env: tuple) -> tuple:
        nonlocal at
        if tokens[at] in ("\\", "λ"):
            name, dot = tokens[at + 1], tokens[at + 2]
            if dot != ".":
                raise ValueError(f"expected '.' after binder {name}")
            at += 3
            return ("l", term(env + (name,)))
        out = None
        while tokens[at] not in (None, ")"):
            if tokens[at] in ("\\", "λ"):
                item = term(env)
            elif tokens[at] == "(":
                at += 1
                item = term(env)
                if tokens[at] != ")":
                    raise ValueError("unbalanced parenthesis")
                at += 1
            else:
                name = tokens[at]
                at += 1
                if name not in env:
                    raise ValueError(f"free variable {name}")
                item = ("v", len(env) - 1 - max(i for i, n in enumerate(env) if n == name))
            out = item if out is None else ("a", out, item)
        if out is None:
            raise ValueError("empty term")
        return out

    result = term(())
    if tokens[at] is not None:
        raise ValueError("trailing input")
    return result


def subst_top(body: tuple, arg: tuple) -> tuple:
    """body[0 := arg] for a closed arg, lowering body's other free indices."""

    def go(t: tuple, depth: int) -> tuple:
        kind = t[0]
        if kind == "v":
            k = t[1]
            if k == depth:
                return arg
            return ("v", k - 1) if k > depth else t
        if kind == "l":
            return ("l", go(t[1], depth + 1))
        return ("a", go(t[1], depth), go(t[2], depth))

    return go(body, 0)


def eval_name(t: tuple, fuel: int) -> tuple[bool, int, tuple | None]:
    """Call-by-name to a value: (done, beta steps, value or None).

    Each step contracts the head redex of the application spine, the
    leftmost-outermost beta redex outside any abstraction.  The input is
    closed, so every argument the head redex takes is closed too.
    """
    steps = 0
    while True:
        spine = []
        head = t
        while head[0] == "a":
            spine.append(head[2])
            head = head[1]
        if head[0] == "v":
            raise ValueError("head variable is free")
        if not spine:
            return True, steps, t
        if steps == fuel:
            return False, steps, None
        t = subst_top(head[1], spine.pop())
        while spine:
            t = ("a", t, spine.pop())
        steps += 1


def eval_lazy(t: tuple, fuel: int, beta_limit: int = 10**6):
    """Launchbury's natural semantics as a heap machine with updates.

    Every application allocates a thunk for its argument; demanding a
    variable whose thunk has not been evaluated forces it (counted), and
    the value it reaches overwrites the thunk.  Returns
    ``(done, forced, value)``: ``forced`` is the number of thunks demanded
    for the first time and ``value`` the closed de Bruijn read-back of the
    answer.  The run stops once more than ``fuel`` thunks were forced, or
    ``beta_limit`` applications were entered, and reports not done.
    """
    heap: list = []  # address -> [evaluated?, term, env]
    stack: list = []  # ("arg", address) | ("upd", address)
    term, env = t, None  # env: linked (address, parent) pairs, index 0 first
    forced = betas = 0
    while True:
        kind = term[0]
        if kind == "a":
            heap.append([False, term[2], env])
            stack.append(("arg", len(heap) - 1))
            term = term[1]
        elif kind == "v":
            e = env
            for _ in range(term[1]):
                e = e[1]
            cell = heap[e[0]]
            if not cell[0]:
                forced += 1
                if forced > fuel:
                    return False, forced, None
                stack.append(("upd", e[0]))
            term, env = cell[1], cell[2]
        elif not stack:
            return True, forced, read_back(term, env, heap)
        else:
            frame, address = stack.pop()
            if frame == "upd":
                heap[address] = [True, term, env]
            else:
                betas += 1
                if betas > beta_limit:
                    return False, forced, None
                term, env = term[1], (address, env)


def read_back(term: tuple, env, heap: list) -> tuple:
    """Close a heap closure by substituting the heap contents it reaches.

    Every heap entry reads back to a closed term, so it is inserted under
    binders without shifting.
    """
    cache: dict = {}

    def close_address(address: int) -> tuple:
        if address not in cache:
            _, t, e = heap[address]
            cache[address] = close(t, e, 0)
        return cache[address]

    def close(t: tuple, e, depth: int) -> tuple:
        kind = t[0]
        if kind == "v":
            k = t[1]
            if k < depth:
                return t
            for _ in range(k - depth):
                e = e[1]
            return close_address(e[0])
        if kind == "l":
            return ("l", close(t[1], e, depth + 1))
        return ("a", close(t[1], e, depth), close(t[2], e, depth))

    return close(term, env, 0)


@lru_cache(maxsize=None)
def _count(size: int, free: int) -> int:
    """Terms of exactly `size` nodes whose free indices are below `free`."""
    if size == 1:
        return free
    total = _count(size - 1, free + 1)
    for left in range(1, size - 1):
        total += _count(left, free) * _count(size - 1 - left, free)
    return total


def closed_counts(max_size: int) -> list[int]:
    """Closed terms of each size 1..max_size (Var = 1, Lam and App add 1)."""
    return [_count(size, 0) for size in range(1, max_size + 1)]
