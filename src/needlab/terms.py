"""Lambda terms, names, substitution, alpha-equivalence, and hygiene.

Terms are immutable trees of Var / Lam / App nodes.  Two extra node kinds
live alongside them: Hole (used when rendering one-hole contexts) and
Labeled (used by the parallel rewriting semantics, where any subterm may
carry a variable as a sharing label).

Names are (base, index) pairs.  Source programs only contain index-0
names; every machine-minted name gets a positive index and prints as
``base%index``, so freshness is visible in output.  All structural
operations here are iterative: evaluation traces can produce terms whose
application spines are thousands of nodes deep, well past the default
recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional


# A tuple, so hashing and equality run in C: names key every environment,
# label table and heap.
class Name(NamedTuple):
    base: str
    index: int = 0

    def __str__(self) -> str:
        if self.index == 0:
            return self.base
        return f"{self.base}%{self.index}"


class Term:
    """Base class for term nodes."""

    __slots__ = ()


# eq=False keeps identity semantics: deep structural equality on these
# trees must go through term_eq / alpha_eq, which do not recurse.
@dataclass(frozen=True, eq=False, slots=True)
class Var(Term):
    name: Name


@dataclass(frozen=True, eq=False, slots=True)
class Lam(Term):
    binder: Name
    body: Term


@dataclass(frozen=True, eq=False, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, eq=False, slots=True)
class Labeled(Term):
    label: Name
    body: Term


class _Hole(Term):
    __slots__ = ()

    def __repr__(self) -> str:
        return "HOLE"


#: The unique hole marker used when a context is rendered as a term.
HOLE = _Hole()


class OpenTermError(ValueError):
    """Raised when an operation requires a closed term."""


class NameSupply:
    """Monotone source of fresh names for one evaluation session.

    Every name issued is distinct from all names previously issued by this
    supply and, when created via ``for_terms``, from every name occurring
    in the seed terms.
    """

    def __init__(self, start: int = 1):
        self._next = max(1, start)

    def fresh(self, base: str = "x") -> Name:
        n = Name(base, self._next)
        self._next += 1
        return n

    @classmethod
    def for_terms(cls, terms: Iterable[Term]) -> "NameSupply":
        hi = 0
        for t in terms:
            for node in subterms(t):
                if isinstance(node, Var):
                    hi = max(hi, node.name.index)
                elif isinstance(node, Lam):
                    hi = max(hi, node.binder.index)
                elif isinstance(node, Labeled):
                    hi = max(hi, node.label.index)
        return cls(hi + 1)

    @classmethod
    def for_term(cls, t: Term) -> "NameSupply":
        return cls.for_terms((t,))


def subterms(t: Term) -> Iterator[Term]:
    """Preorder iteration over all nodes."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Lam):
            stack.append(node.body)
        elif isinstance(node, App):
            stack.append(node.arg)
            stack.append(node.fn)
        elif isinstance(node, Labeled):
            stack.append(node.body)


def term_size(t: Term) -> int:
    """Number of AST nodes (labels included)."""
    return sum(1 for _ in subterms(t))


def term_eq(t1: Term, t2: Term) -> bool:
    """Structural equality, names and labels exact."""
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if a.name != b.name:
                return False
        elif isinstance(a, Lam):
            if a.binder != b.binder:
                return False
            stack.append((a.body, b.body))
        elif isinstance(a, App):
            stack.append((a.fn, b.fn))
            stack.append((a.arg, b.arg))
        elif isinstance(a, Labeled):
            if a.label != b.label:
                return False
            stack.append((a.body, b.body))
        # _Hole: identity already handled
    return True


# Environment chains: ("nil",) terminated linked tuples (name, value, parent).
_NIL = None


def _chain_lookup(chain, name):
    while chain is not None:
        if chain[0] == name:
            return chain[1]
        chain = chain[2]
    return None


def free_vars(t: Term) -> set[Name]:
    out: set[Name] = set()
    stack = [(t, _NIL)]
    while stack:
        node, env = stack.pop()
        if isinstance(node, Var):
            if _chain_lookup(env, node.name) is None:
                out.add(node.name)
        elif isinstance(node, Lam):
            stack.append((node.body, (node.binder, node.binder, env)))
        elif isinstance(node, App):
            stack.append((node.fn, env))
            stack.append((node.arg, env))
        elif isinstance(node, Labeled):
            stack.append((node.body, env))
    return out


def is_closed(t: Term) -> bool:
    return not free_vars(t)


def _rebuild(t: Term, var_fn, lam_fn):
    """Generic iterative bottom-up rebuild with binder environments.

    var_fn(node, env) -> Term
    lam_fn(node, env) -> (new_binder, child_env) run before descending
    Labels are kept.  Unchanged subtrees are returned as the original
    objects.
    """
    ENTER, EXIT = 0, 1
    work = [(ENTER, t, _NIL, None)]
    results: list[Term] = []
    while work:
        phase, node, env, extra = work.pop()
        if phase == ENTER:
            if isinstance(node, Var):
                results.append(var_fn(node, env))
            elif isinstance(node, Lam):
                new_binder, child_env = lam_fn(node, env)
                work.append((EXIT, node, env, new_binder))
                work.append((ENTER, node.body, child_env, None))
            elif isinstance(node, App):
                work.append((EXIT, node, env, None))
                work.append((ENTER, node.arg, env, None))
                work.append((ENTER, node.fn, env, None))
            elif isinstance(node, Labeled):
                work.append((EXIT, node, env, None))
                work.append((ENTER, node.body, env, None))
            else:
                results.append(node)
        else:
            if isinstance(node, Lam):
                body = results.pop()
                if body is node.body and extra == node.binder:
                    results.append(node)
                else:
                    results.append(Lam(extra, body))
            elif isinstance(node, App):
                arg = results.pop()
                fn = results.pop()
                if fn is node.fn and arg is node.arg:
                    results.append(node)
                else:
                    results.append(App(fn, arg))
            else:  # Labeled
                body = results.pop()
                if body is node.body:
                    results.append(node)
                else:
                    results.append(Labeled(node.label, body))
    assert len(results) == 1
    return results[0]


def freshen(t: Term, supply: NameSupply) -> Term:
    """Rename every binder in t to a fresh name (labels untouched)."""

    def var_fn(node, env):
        new = _chain_lookup(env, node.name)
        return node if new is None else Var(new)

    def lam_fn(node, env):
        nb = supply.fresh(node.binder.base)
        return nb, (node.binder, nb, env)

    return _rebuild(t, var_fn, lam_fn)


def _capture_avoiding(x: Name, fvs: set[Name], supply: NameSupply):
    """The lam_fn of substituting for x a term whose free variables are fvs:
    binders of x block the substitution, and binders in fvs are renamed."""

    def lam_fn(node, env):
        y = node.binder
        if y == x:
            # x is shadowed below: block replacement via an identity entry.
            return y, (y, y, env)
        if y in fvs:
            ny = supply.fresh(y.base)
            return ny, (y, ny, env)
        return y, (y, y, env)

    return lam_fn


def subst(
    t: Term,
    x: Name,
    s: Term,
    supply: Optional[NameSupply] = None,
    keep_first: bool = True,
) -> Term:
    """Capture-avoiding substitution of s for free occurrences of x in t.

    The first (leftmost) inserted copy of s keeps its names; every further
    copy has its binders freshened so the result stays hygienic when the
    inputs were.  Pass keep_first=False when the original s survives
    elsewhere and every inserted copy must be fresh.  Binders of t that
    would capture a free variable of s are renamed.
    """
    if supply is None:
        supply = NameSupply.for_terms((t, s))
    used_first = [not keep_first]

    def var_fn(node, env):
        new = _chain_lookup(env, node.name)
        if new is not None:
            return node if new == node.name else Var(new)
        if node.name == x:
            if not used_first[0]:
                used_first[0] = True
                return s
            return freshen(s, supply)
        return node

    return _rebuild(t, var_fn, _capture_avoiding(x, free_vars(s), supply))


def subst_shared(t: Term, x: Name, s: Term, supply: Optional[NameSupply] = None) -> Term:
    """Substitution that inserts the *same* copy of s at every occurrence.

    Used by the labeled semantics, where consistent labeling requires all
    copies of a shared argument to stay structurally identical.  Capture is
    avoided by renaming binders of t only.
    """
    if supply is None:
        supply = NameSupply.for_terms((t, s))

    def var_fn(node, env):
        new = _chain_lookup(env, node.name)
        if new is not None:
            return node if new == node.name else Var(new)
        return s if node.name == x else node

    return _rebuild(t, var_fn, _capture_avoiding(x, free_vars(s), supply))


def is_hygienic(t: Term) -> bool:
    """Hygiene check: binders pairwise distinct and disjoint from fv(t)."""
    free = free_vars(t)
    seen: set[Name] = set()
    for node in subterms(t):
        if isinstance(node, Lam):
            b = node.binder
            if b in seen or b in free:
                return False
            seen.add(b)
    return True


def hygienize(t: Term, supply: Optional[NameSupply] = None) -> Term:
    """Rename binders so the whole term satisfies the hygiene condition."""
    if is_hygienic(t):
        return t
    if supply is None:
        supply = NameSupply.for_term(t)
    taken = set(free_vars(t))

    def var_fn(node, env):
        new = _chain_lookup(env, node.name)
        return node if new is None or new == node.name else Var(new)

    def lam_fn(node, env):
        y = node.binder
        ny = supply.fresh(y.base) if y in taken else y
        taken.add(ny)
        return ny, (y, ny, env)

    return _rebuild(t, var_fn, lam_fn)


def canon(t: Term):
    """Canonical nameless form as nested tuples.

    Bound variables become de Bruijn indices, binders are erased, free
    variables keep their names, and labels are numbered by first
    occurrence in preorder.  Two terms are alpha-equivalent (with labels
    compared modulo injective renaming) iff their canonical forms are
    equal.
    """
    ENTER, EXIT = 0, 1
    label_ids: dict[Name, int] = {}
    work = [(ENTER, t, _NIL, 0)]
    results: list = []
    while work:
        phase, node, env, depth = work.pop()
        if phase == ENTER:
            if isinstance(node, Var):
                lvl = _chain_lookup(env, node.name)
                if lvl is None:
                    results.append(("f", node.name.base, node.name.index))
                else:
                    results.append(("b", depth - lvl - 1))
            elif isinstance(node, Lam):
                work.append((EXIT, node, env, depth))
                work.append((ENTER, node.body, (node.binder, depth, env), depth + 1))
            elif isinstance(node, App):
                work.append((EXIT, node, env, depth))
                work.append((ENTER, node.arg, env, depth))
                work.append((ENTER, node.fn, env, depth))
            elif isinstance(node, Labeled):
                if node.label not in label_ids:
                    label_ids[node.label] = len(label_ids)
                work.append((EXIT, node, env, depth))
                work.append((ENTER, node.body, env, depth))
            else:
                results.append(("h",))
        else:
            if isinstance(node, Lam):
                results.append(("L", results.pop()))
            elif isinstance(node, App):
                arg = results.pop()
                fn = results.pop()
                results.append(("A", fn, arg))
            else:
                results.append(("T", label_ids[node.label], results.pop()))
    assert len(results) == 1
    return results[0]


def alpha_eq(t1: Term, t2: Term) -> bool:
    """True iff identical after canonical nameless translation.

    Bound variables are compared by binder depth, free variables by name,
    and labels modulo one program-wide injective renaming.  Implemented as
    a direct pair walk: canonical forms of deep terms nest too far for the
    interpreter's comparison stack.
    """
    label_map: dict[Name, Name] = {}
    label_rev: dict[Name, Name] = {}
    stack = [(t1, t2, _NIL, _NIL, 0)]
    while stack:
        a, b, env1, env2, depth = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            lv1 = _chain_lookup(env1, a.name)
            lv2 = _chain_lookup(env2, b.name)
            if lv1 is None and lv2 is None:
                if a.name != b.name:
                    return False
            elif lv1 != lv2:
                return False
        elif isinstance(a, Lam):
            stack.append(
                (a.body, b.body, (a.binder, depth, env1), (b.binder, depth, env2), depth + 1)
            )
        elif isinstance(a, App):
            stack.append((a.fn, b.fn, env1, env2, depth))
            stack.append((a.arg, b.arg, env1, env2, depth))
        elif isinstance(a, Labeled):
            mapped = label_map.get(a.label)
            if mapped is None:
                if b.label in label_rev:
                    return False
                label_map[a.label] = b.label
                label_rev[b.label] = a.label
            elif mapped != b.label:
                return False
            stack.append((a.body, b.body, env1, env2, depth))
        # holes: identity handled above
    return True


def rewrite(t: Term, enter=None, leave=None, var=None) -> Term:
    """Env-free bottom-up rebuild; unchanged subtrees stay the same objects.

    Hooks act at Labeled nodes and, optionally, at Var: enter(node) returns
    a Term that replaces the node unvisited, or None to descend;
    leave(node, body) rebuilds it from its rewritten body (by default
    keeping the label); var(node) replaces a variable.
    """
    # a node on the work stack is entered; a 1-tuple holding it is left
    work: list = [t]
    push, pop = work.append, work.pop
    results: list[Term] = []
    emit, take = results.append, results.pop
    while work:
        node = pop()
        cls = node.__class__
        if cls is tuple:  # rebuild from the children's results
            node = node[0]
            last = take()
            if node.__class__ is App:
                fn = take()
                emit(node if fn is node.fn and last is node.arg else App(fn, last))
            elif node.__class__ is Lam:
                emit(node if last is node.body else Lam(node.binder, last))
            elif leave is not None:
                emit(leave(node, last))
            else:
                emit(node if last is node.body else Labeled(node.label, last))
        elif cls is App:
            push((node,))
            push(node.arg)
            push(node.fn)
        elif cls is Labeled and enter is not None and (short := enter(node)) is not None:
            emit(short)
        elif cls is Lam or cls is Labeled:
            push((node,))
            push(node.body)
        elif var is not None and cls is Var:
            emit(var(node))
        else:
            emit(node)
    return results[0]


def erase(t: Term) -> Term:
    """Drop all label wrappers."""
    return rewrite(t, leave=lambda node, body: body)


def strip_value_labels(t: Term) -> Term:
    """Drop label stacks that directly wrap an abstraction, everywhere.

    The parallel semantics discards exactly these labels as obsolete when
    a labeled value is applied, so quotienting by them preserves meaning;
    the per-step machine-correspondence checks compare modulo this.
    """

    def leave(node, body):
        if isinstance(body, Lam):
            return body
        return node if body is node.body else Labeled(node.label, body)

    return rewrite(t, leave=leave)
