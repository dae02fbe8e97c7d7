"""Lambda terms, names, substitution, alpha-equivalence, and hygiene.

Terms are immutable trees of Var / Lam / App nodes.  Two extra node kinds
live alongside them: Hole (used when rendering one-hole contexts) and
Labeled (used by the parallel rewriting semantics, where any subterm may
carry a variable as a sharing label, and equal labels must label equal
bodies: ``is_cl``).

Names are (base, index) pairs.  Source programs only contain index-0
names; every machine-minted name gets a positive index and prints as
``base%index``, so freshness is visible in output.  All structural
operations here are iterative: evaluation traces can produce terms whose
application spines are thousands of nodes deep, well past the default
recursion limit.

Every machine step reads a normalized term, one whose binders are pairwise
distinct and disjoint from its free variables (Launchbury's sense): a run
normalizes its input once and its steps keep it so, and a one-shot step
normalizes what it is given.  Steps therefore substitute with
``subst_normal``, which needs no environment, and the call-by-need axiom
can hoist an argument's bindings without capture.  ``subst`` avoids
capture for any input.  The labeled semantics inserts one shared copy at
every occurrence with ``subst_shared``, which renames nothing: no binder
of its target may be free in what it inserts.  ``normalize`` renames
only what it must, after a ``scan``, the one walk that reads the free
variables, the highest name index, hygiene and labels.

``rewrite`` is the one bottom-up rebuild of a term: freshening,
substitution, hygiene renaming, relabeling and label erasure are each a set
of hooks to it.
"""
from __future__ import annotations

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


class Frozen:
    """Base of every record in the package, the ones every step builds among
    them; compared by identity (the print memos key on it).  A subclass
    listing its fields in __slots__ gets an __init__ that stores each
    through its slot descriptor, cheaper than object.__setattr__; class
    keywords give its last fields defaults, shared by every instance."""

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        fields = cls.__dict__.get("__slots__", ())
        if fields and "__init__" not in cls.__dict__:
            scope = {f"set_{f}": cls.__dict__[f].__set__ for f in fields}
            scope.update({f"default_{f}": value for f, value in defaults.items()})
            params = ", ".join(f"{f}=default_{f}" if f in defaults else f for f in fields)
            body = "".join(f"\n    set_{f}(self, {f})" for f in fields)
            exec(f"def __init__(self, {params}):{body}", scope)
            cls.__init__ = scope["__init__"]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Term(Frozen):
    """Base class for term nodes."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)


class Lam(Term):
    __slots__ = ("binder", "body")


class App(Term):
    __slots__ = ("fn", "arg")


class Labeled(Term):
    __slots__ = ("label", "body")


class _Hole(Term):
    __slots__ = ()

    def __repr__(self) -> str:
        return "HOLE"


#: The unique hole marker used when a context is rendered as a term.
HOLE = _Hole()


class OpenTermError(ValueError):
    """Raised when an operation requires a closed term."""


class LabeledTermError(ValueError):
    """Raised when a machine that reads only unlabeled terms is given a
    labeled one, or a machine that reads labels is given a term whose
    labels are not consistent."""


class NameSupply:
    """Monotone source of fresh names for one evaluation session.

    Every name issued is distinct from all names previously issued by this
    supply and, when created via ``for_terms``, from every name occurring
    in the seed terms.
    """

    def __init__(self, start: int = 1):
        self._next = max(1, start)

    def fresh(self, base: str = "x") -> Name:
        n = tuple.__new__(Name, (base, self._next))  # skips Name's Python-level __new__
        self._next += 1
        return n

    def fork(self) -> "NameSupply":
        """A supply that starts at this one's counter and advances on its
        own: its names are fresh for every name this supply has issued or
        was seeded above."""
        return NameSupply(self._next)

    @classmethod
    def for_terms(cls, terms: Iterable[Term]) -> "NameSupply":
        """A supply above every variable, binder and label name in the terms.
        A Labeled node met again, the same object, is not walked again."""
        hi = 0
        work = list(terms)
        push, pop = work.append, work.pop
        seen: set = set()
        while work:
            node = pop()
            kind = node.__class__
            if kind is App:
                push(node.arg)
                push(node.fn)
                continue
            if kind is Var:
                index = node.name.index
            elif kind is Lam:
                index = node.binder.index
                push(node.body)
            elif kind is Labeled and node not in seen:
                seen.add(node)
                index = node.label.index
                push(node.body)
            else:  # the hole of a rendered context, or a Labeled node walked
                continue
            if index > hi:
                hi = index
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


# Environment chains: None-terminated linked tuples (name, value, parent).
def _chain_lookup(chain, name):
    while chain is not None:
        if chain[0] == name:
            return chain[1]
        chain = chain[2]
    return None


def free_vars(t: Term) -> set[Name]:
    out: set[Name] = set()
    stack = [(t, None)]
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


def rewrite(t: Term, enter=None, leave=None, var=None, lam=None) -> Term:
    """The one bottom-up rebuild of a term; unchanged subtrees stay the same
    objects.

    var(node, env) returns the term that replaces a variable; lam(node, env)
    returns an abstraction's new binder and its body's env, by default the
    binder and env as they are; env is None at the root.  Hooks act at
    Labeled nodes: enter(node, env) returns a Term that replaces the node
    unvisited, or None to descend; leave(node, body, env) rebuilds it from
    its rewritten body (by default keeping the label), under the env it
    was entered with.
    """
    # a node on the work stack is entered; a tuple holding it is left, and a
    # Lam's tuple holds its new binder and the env outside it as well: the
    # walk is depth-first, so one env is current at a time
    work: list = [t]
    push, pop = work.append, work.pop
    results: list[Term] = []
    emit, take = results.append, results.pop
    env = None
    while work:
        node = pop()
        cls = node.__class__
        if cls is tuple:  # rebuild from the children's results
            last = take()
            done = node[0]
            kind = done.__class__
            if kind is App:
                fn = take()
                emit(done if fn is done.fn and last is done.arg else App(fn, last))
            elif kind is Lam:
                _, binder, env = node
                emit(done if last is done.body and binder == done.binder else Lam(binder, last))
            elif leave is not None:
                emit(leave(done, last, env))
            else:
                emit(done if last is done.body else Labeled(done.label, last))
        elif cls is App:
            push((node,))
            push(node.arg)
            push(node.fn)
        elif cls is Lam:
            binder, inner = (node.binder, env) if lam is None else lam(node, env)
            push((node, binder, env))
            push(node.body)
            env = inner
        elif cls is Labeled and enter is not None and (short := enter(node, env)) is not None:
            emit(short)
        elif cls is Labeled:
            push((node,))
            push(node.body)
        elif var is not None and cls is Var:
            emit(var(node, env))
        else:
            emit(node)
    return results[0]


def shared_labels(key=None):
    """rewrite's enter and leave hooks that rewrite each label's body once:
    the node made at the first copy with a key stands for every later copy
    with that key, so one body object serves them all.  key(node, env) is
    the label by default; a rewrite whose result at a copy depends on its
    env keys on that as well.  Sound where consistent labeling makes the
    copies with one key equal."""
    done: dict = {}
    if key is None:
        def key(node, env):
            return node.label

    def enter(node, env):
        return done.get(key(node, env))

    def leave(node, body, env):
        new = done[key(node, env)] = node if body is node.body else Labeled(node.label, body)
        return new

    return enter, leave


def _renaming(x: Optional[Name] = None, insert=None):
    """rewrite's var hook under an env of renamings, (binder, its new name,
    outer env): a bound variable takes its binder's new name, and a free
    occurrence of x becomes insert()."""

    def var_fn(node, env):
        new = _chain_lookup(env, node.name)
        if new is None:
            return insert() if node.name == x else node
        return node if new == node.name else Var(new)

    return var_fn


def freshen(t: Term, supply: NameSupply) -> Term:
    """Rename every binder in t to a fresh name (labels untouched)."""

    def lam_fn(node, env):
        nb = supply.fresh(node.binder.base)
        return nb, (node.binder, nb, env)

    return rewrite(t, var=_renaming(), lam=lam_fn)


def _copies(s: Term, supply: NameSupply, keep_first: bool = True):
    """The copies of s a substitution inserts, one per call: s itself first
    unless keep_first is false, then copies with freshened binders."""
    first = [s] if keep_first else []
    return lambda: first.pop() if first else freshen(s, supply)


def subst(t: Term, x: Name, s: Term, supply: Optional[NameSupply] = None) -> Term:
    """Capture-avoiding substitution of s for free occurrences of x in t.

    The first (leftmost) inserted copy of s keeps its names; every further
    copy has its binders freshened (``_copies``) so the result stays
    hygienic when the inputs were.  Binders of x shadow, and binders of t
    that would capture a free variable of s are renamed.
    """
    if supply is None:
        supply = NameSupply.for_terms((t, s))
    fvs = free_vars(s)

    def lam_fn(node, env):
        y = node.binder
        ny = supply.fresh(y.base) if y != x and y in fvs else y
        return ny, (y, ny, env)

    return rewrite(t, var=_renaming(x, _copies(s, supply)), lam=lam_fn)


def subst_normal(t: Term, x: Name, s: Term, supply: NameSupply, keep_first: bool = True) -> Term:
    """``subst`` where no binder of t is x or free in s, as in a normalized
    state: no environment and no fv(s), and the same copies (``_copies``)."""
    copy = _copies(s, supply, keep_first)
    return rewrite(t, var=lambda node, env: copy() if node.name == x else node)


def subst_shared(t: Term, x: Name, s: Term) -> Term:
    """Insert the same s at every free occurrence of x in t.

    The labeled semantics needs this: consistent labeling requires every
    copy of a shared argument to be one term.  Precondition: no binder of t
    other than x is free in s, as when s is closed (lstep's arguments) or
    t and s sit in one normalized term (ck's images).  So nothing is
    renamed and no name is minted; only binders of x shadow.  A copy's
    rewrite depends only on whether it sits under a binder of x, so each
    label's body is rewritten once per side (``shared_labels`` keyed on the
    label and the shadowing), and every copy on that side shares the node.
    """

    def var_fn(node, shadowed):
        return s if shadowed is None and node.name == x else node

    def lam_fn(node, shadowed):
        return node.binder, (True if node.binder == x else shadowed)

    def key(node, shadowed):
        return node.label, shadowed

    return rewrite(t, *shared_labels(key), var_fn, lam_fn)


class Scan(NamedTuple):
    """What one walk of a term reads: its free variables, the highest index
    of any variable, binder or label name in it, whether its binders are
    pairwise distinct and disjoint from the free variables, and whether it
    holds a Labeled node."""

    free: set
    top: int
    hygienic: bool
    labeled: bool


class _FreeIn(set):
    """scan's env entry where a labeled body is entered.  A lookup compares
    each entry with the name it seeks, innermost first, so a name that gets
    this far is free in the body: the comparison keeps it, and fails."""

    def __eq__(self, name):
        self.add(name)
        return False


def scan(t: Term) -> Scan:
    """The Scan of t, in one explicit-stack walk.  Binders are distinct iff
    the walk meets as many abstractions as distinct binder names.  A Labeled
    node met again, the same object, is not walked again, so its binders
    count once; the names free in its body are looked up where it is met."""
    free: set[Name] = set()
    binders: set[Name] = set()
    top, lams, labeled = 0, 0, False
    bodies: dict = {}  # Labeled node walked -> the names free in its body
    work = [(t, None)]
    push, pop = work.append, work.pop
    while work:
        node, env = pop()
        kind = node.__class__
        if kind is App:
            push((node.arg, env))
            push((node.fn, env))
        elif kind is Var:
            name = node.name
            while env is not None:  # the binders and bodies in scope, innermost first
                if env[0] == name:
                    break
                env = env[1]
            else:
                free.add(name)
        elif kind is Lam:
            b = node.binder
            binders.add(b)
            lams += 1
            if b.index > top:
                top = b.index
            push((node.body, (b, env)))
        elif kind is Labeled and node in bodies:  # its free names, looked up here
            work.extend((Var(name), env) for name in bodies[node])
        elif kind is Labeled:
            labeled = True
            if node.label.index > top:
                top = node.label.index
            bodies[node] = _FreeIn()
            push((node.body, (bodies[node], env)))
        # else the hole of a rendered context
    for name in free:
        if name.index > top:
            top = name.index
    hygienic = lams == len(binders) and free.isdisjoint(binders)
    return Scan(free, top, hygienic, labeled)


def is_hygienic(t: Term) -> bool:
    """Hygiene check: binders pairwise distinct and disjoint from fv(t)."""
    return scan(t).hygienic


def is_cl(t: Term) -> bool:
    """Consistent labeling: equal labels imply structurally equal bodies.

    A label's body is walked only where the label is first met; every later
    occurrence is compared with that body (`is`, else term_eq) and not
    walked again.  Skipping is sound: a body object already on the walk is
    covered, and two term_eq bodies hold the same labels over term_eq
    bodies, so any conflict inside a skipped body also sits inside the
    first one.
    """
    bodies: dict[Name, Term] = {}
    stack = [t]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        cls = node.__class__
        while cls is Labeled:  # a chain of labels, followed in place
            body = node.body
            prev = bodies.get(node.label)
            if prev is not None:
                if prev is not body and not term_eq(prev, body):
                    return False
                break
            bodies[node.label] = body
            node, cls = body, body.__class__
        if cls is App:  # a label met before leaves cls Labeled
            push(node.arg)
            push(node.fn)
        elif cls is Lam:
            push(node.body)
    return True


def normalize(t: Term, supply: Optional[NameSupply] = None) -> tuple[Term, NameSupply, Scan]:
    """t with its binders renamed to hygiene, the supply that minted the new
    names (seeded above every name of t unless one is given), and t's scan.
    A hygienic t comes back as itself, after one walk.

    A label's body is renamed where the label is first met, and that node
    stands for every later occurrence, so the copies stay equal and share
    their binders.  Copies whose free names sit under different binders
    have no such renaming: the result is then not alpha_eq to t."""
    found = scan(t)
    if supply is None:
        supply = NameSupply(found.top + 1)
    if found.hygienic:
        return t, supply, found
    taken = set(found.free)

    def lam_fn(node, env):
        y = node.binder
        ny = supply.fresh(y.base) if y in taken else y
        taken.add(ny)
        return ny, (y, ny, env)

    enter, leave = shared_labels() if found.labeled else (None, None)
    return rewrite(t, enter, leave, _renaming(), lam_fn), supply, found


def hygienize(t: Term, supply: Optional[NameSupply] = None) -> Term:
    """Rename binders so the whole term satisfies the hygiene condition."""
    return normalize(t, supply)[0]


def canon(t: Term) -> tuple:
    """The canonical nameless form of t: a flat preorder tuple of tokens.

    An application is ``"A"`` followed by its two sides, an abstraction
    ``"L"`` (its binder erased) followed by its body, a labeled term ``"T"``,
    its label's number by first occurrence, then its body; a bound variable
    is its de Bruijn index (an int), a free variable its Name, and the hole
    ``"h"``.  Every token has a fixed arity, so the form reads back uniquely,
    and comparing or hashing it does not recurse.  Two terms are
    alpha-equivalent, labels compared modulo one injective renaming, iff
    their forms are equal.
    """
    out: list = []
    emit = out.append
    labels: dict[Name, int] = {}
    work = [(t, None, 0)]
    push, pop = work.append, work.pop
    while work:
        node, env, depth = pop()
        kind = node.__class__
        if kind is App:
            emit("A")
            push((node.arg, env, depth))
            push((node.fn, env, depth))
        elif kind is Var:
            name = node.name
            while env is not None:  # (binder, its depth, outer env)
                if env[0] == name:
                    emit(depth - env[1] - 1)
                    break
                env = env[2]
            else:
                emit(name)
        elif kind is Lam:
            emit("L")
            push((node.body, (node.binder, depth, env), depth + 1))
        elif kind is Labeled:
            emit("T")
            emit(labels.setdefault(node.label, len(labels)))
            push((node.body, env, depth))
        else:  # the hole of a rendered context
            emit("h")
    return tuple(out)


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence: equality of the canonical forms (see ``canon``).
    Terms equal as trees, a node shared by both counting as equal, are
    alpha-equivalent without being keyed."""
    return term_eq(t1, t2) or canon(t1) == canon(t2)


def erase(t: Term) -> Term:
    """Drop all label wrappers."""
    return rewrite(t, leave=lambda node, body, env: body)


def strip_value_labels(t: Term) -> Term:
    """Drop label stacks that directly wrap an abstraction, everywhere.

    The parallel semantics discards exactly these labels as obsolete when
    a labeled value is applied, so quotienting by them preserves meaning;
    the per-step machine-correspondence checks compare modulo this.
    """

    def leave(node, body, env):
        if isinstance(body, Lam):
            return body
        return node if body is node.body else Labeled(node.label, body)

    return rewrite(t, leave=leave)
