"""Store machine realizing the natural semantics of lazy evaluation.

A state holds a control string, a frame list, and a heap.  Arguments move
to the heap under fresh names when a binder is entered; demanding a heap
variable checks its binding out (a var frame remembers the name), and the
finished value is written back, so each binding is evaluated at most
once.  The heap stays insertion-ordered for deterministic printing.  Each
step pushes or pops one frame and names, in the state it yields, the heap
variable it bound, checked out or rebound (``CKHState.changed``), so a
trace can print and map a state at the cost of what the step changed.

The mapping into the labeled semantics (``buildL``) folds the frames back
into the control and then closes the result over the heap, wrapping each
resolved binding in a label named after its heap variable.  Given the
``ImageCache`` of the previous state of the same run, it drops only the
labels of the changed name, of the checked-out names and of the names
whose nodes embed theirs, and closes them again through one memo whose
entries check themselves: a term's closure records the labeled nodes it
was closed with and serves while they are the current ones, and nodes are
made through the memo, so a label whose references come back as the same
nodes comes back as the same node (hash-consing, Filliâtre & Conchon,
ML Workshop 2006).
"""
from __future__ import annotations

from functools import partial
from typing import Optional

from .frames import ArgF
from .results import evaluate, iterate
from .terms import (
    App,
    Frozen,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    Var,
    is_closed,
    rewrite,
    step_subst,
    subst_normal,
)

PUSHARG, DESCEND_LAM, LOOKUPVAR, UPDATEHEAP = (
    "pusharg",
    "descend-lam",
    "lookupvar",
    "updateheap",
)


class VarF(Frozen):
    __slots__ = ("name",)


class CKHState(Frozen, changed=None):
    # heap: Name -> Term, insertion ordered; the states of one drive share
    # it, so read a state before asking for the next (a one-shot step copies
    # it); changed: the heap name the last step bound, checked out or rebound
    __slots__ = ("control", "frames", "heap", "changed")


class UnboundVariable(AssertionError):
    pass


class UnresolvableVariable(AssertionError):
    pass


def initial_state(t: Term) -> CKHState:
    """The initial state of t, unchecked: runs inject it after start's checks."""
    return CKHState(t, (), {})


def inject_ckh(t: Term) -> CKHState:
    """The initial state of a closed term."""
    if not is_closed(t):
        raise OpenTermError("inject_ckh requires a closed term")
    return initial_state(t)


def is_final(s: CKHState) -> bool:
    return isinstance(s.control, Lam) and not s.frames


def _state_terms(s: CKHState):
    """Every term of a state, its heap and checked-out names as variables."""
    yield s.control
    for f in s.frames:
        yield f.term if isinstance(f, ArgF) else Var(f.name)
    for name, bound in s.heap.items():
        yield Var(name)
        yield bound


def step_ckh(
    s: CKHState, supply=None, substitute=None, heap=None
) -> Optional[tuple[str, CKHState]]:
    """One store-machine transition; absent iff the state is final.  The
    next state names the heap variable the step bound, checked out or
    rebound.  The state need not be normalized: substitute and supply
    default to step_subst's for its terms.  The step changes heap in place
    and the next state holds it; by default heap is a copy of s's."""
    control, frames = s.control, s.frames
    if heap is None:
        heap = dict(s.heap)
    if isinstance(control, App):
        return PUSHARG, CKHState(control.fn, (ArgF(control.arg),) + frames, heap)
    if isinstance(control, Lam):
        if not frames:
            return None
        top = frames[0]
        if isinstance(top, ArgF):
            if substitute is None:
                supply, substitute = step_subst(_state_terms(s), supply)
            fresh = supply.fresh(control.binder.base)
            body = substitute(control.body, control.binder, Var(fresh), supply)
            heap[fresh] = top.term
            return DESCEND_LAM, CKHState(body, frames[1:], heap, fresh)
        heap[top.name] = control
        return UPDATEHEAP, CKHState(control, frames[1:], heap, top.name)
    if isinstance(control, Var):
        name = control.name
        if name not in heap:
            raise UnboundVariable(f"{name} is not in the heap")
        binding = heap.pop(name)
        return LOOKUPVAR, CKHState(binding, (VarF(name),) + frames, heap, name)
    raise UnboundVariable(f"control is {type(control).__name__}")


class ImageCache:
    """What buildL keeps of one state of a run for the next.  labels maps
    each closed name to its labeled node, users each name to the names
    whose nodes embed its, and bindings each closed heap name to its
    binding and that binding's memo entry.  memo holds what the state's
    image used: a term maps to [the bound names it references, their
    labeled nodes when it was closed, its closed term], and a pair (a, b)
    to the App or Labeled node made from a and b."""

    __slots__ = ("labels", "users", "bindings", "memo")

    def __init__(self):
        self.labels: dict[Name, Labeled] = {}
        self.users: dict[Name, set] = {}
        self.bindings: dict[Name, tuple] = {}
        self.memo: dict = {}


def _refs(t: Term, heap: dict, out: dict) -> tuple:
    """The heap and checked-out names that occur free in t, each once, in
    order."""
    found: dict = {}
    work = [t]
    push, pop = work.append, work.pop
    while work:
        node = pop()
        kind = node.__class__
        if kind is App:
            push(node.arg)
            push(node.fn)
        elif kind is Var:
            if node.name in heap or node.name in out:
                found[node.name] = None
        else:
            push(node.body)
    return tuple(found)


def buildL(s: CKHState, reuse: Optional[ImageCache] = None) -> Term:
    """Fold frames back into the control, then close over the heap with
    labels; only reachable bindings are pulled in.

    Every reference to a heap name becomes one labeled node, and a var
    frame binds its checked-out name to the fold below it.  reuse is empty,
    or was filled by this function for the previous state of the same run;
    without it the cache starts empty.  A heap name keeps its labeled node
    until a step checks it out or rebinds it, so three kinds of label are
    dropped and closed again: the name the step changed (``s.changed``),
    the checked-out names (the fold moves at every step), and, through
    ``users``, every name whose node embeds one of theirs.  A dropped name
    puts its node and its binding's entry back into the memo, so the
    control a lookup installs closes as the binding did.  A memo entry
    checks itself: a term's closure is used only while the labeled nodes of
    its references are the ones it was closed with, and a node is made
    through the memo, so a user whose references come back as the same
    nodes is the same node again.  A call keeps only the entries it used.
    A closed App control is registered as the node its halves' closures
    make, so after a pusharg, as after a lookup, the image is the object
    it was; what is kept stays the same object, which a trace's
    ``PrintMemo`` prints from memory.
    """
    cache = ImageCache() if reuse is None else reuse
    labels, users, bindings, old = cache.labels, cache.users, cache.bindings, cache.memo
    heap = s.heap
    out: dict = {}  # checked-out name -> (bottom, arguments) of the fold below its frame
    bottom, args = s.control, []
    for f in s.frames:
        if f.__class__ is ArgF:
            args.append(f.term)
        else:
            if f.name in heap or f.name in out:
                raise UnresolvableVariable(f"{f.name} is both checked out and bound")
            out[f.name] = (bottom, args)
            bottom, args = Var(f.name), []

    # drop the labels the step may have changed; a dropped name's node and
    # its binding's entry go back into the last memo, where lookups start
    stale = [*out, s.changed]
    while stale:
        name = stale.pop()
        node = labels.pop(name, None)
        if node is not None:
            stale += users.pop(name)
            binding, e = bindings.pop(name, (None, None))
            if e is not None:
                old[binding] = e
            old[name, node.body] = node
    memo = cache.memo = {}
    current = labels.__getitem__

    def entry(t: Term) -> list:  # of a term other than a variable
        e = memo.get(t)
        if e is None:
            e = memo[t] = old.get(t) or [_refs(t, heap, out), None, None]
        return e

    def refs_of(t: Term) -> tuple:
        if t.__class__ is Var:
            return (t.name,) if t.name in heap or t.name in out else ()
        return entry(t)[0]

    def label_of(node: Var, env) -> Term:  # rewrite's var hook: a reference closed
        return labels.get(node.name, node)

    def closed(t: Term, given: Optional[Term] = None) -> Term:
        """t once its references are closed: its entry's closure while the
        references' nodes are the ones it was closed with, else given (a
        closure of t) or a new one."""
        if t.__class__ is Var:
            return labels.get(t.name, t)
        e = entry(t)
        nodes = tuple(map(current, e[0]))
        if e[1] != nodes:  # nodes compare by identity
            if given is None:
                given = rewrite(t, var=label_of) if nodes else t
            e[1], e[2] = nodes, given
        return e[2]

    def node(kind, a: Term, b: Term) -> Term:  # kind(a, b), made through the memo
        made = memo.get((a, b))
        if made is None:
            made = memo[a, b] = old.get((a, b)) or kind(a, b)
        return made

    def fold(t: Term, args: list) -> Term:  # t closed, args not yet
        for a in args:
            t = node(App, t, closed(a))
        return t

    control = s.control
    # close the names the pieces reference, in dependency order, detecting
    # cycles; a checked-out name is closed here only if something other
    # than the frame above it references it
    stack = list(refs_of(control))
    for segment in (*out.values(), (bottom, args)):
        for a in segment[1]:
            stack += refs_of(a)
    visiting: set[Name] = set()
    while stack:
        name = stack[-1]
        if name in labels:
            stack.pop()
            continue
        b = out[name] if name in out else heap[name]
        if b.__class__ is tuple:
            refs = tuple(dict.fromkeys(sum(map(refs_of, b[1]), refs_of(b[0]))))
        else:
            refs = refs_of(b)
        deps = [d for d in refs if d not in labels]
        if not deps:
            if b.__class__ is tuple:
                c = fold(closed(b[0]), b[1])
            else:
                c = closed(b)
                bindings[name] = (b, memo.get(b))
            labels[name] = node(Labeled, name, c)
            users[name] = set()
            for d in refs:
                users[d].add(name)
            visiting.discard(name)
            stack.pop()
            continue
        if name in visiting:
            cyclic = [d for d in deps if d in visiting]
            raise UnresolvableVariable(
                f"cyclic heap reference through {cyclic[0] if cyclic else name}"
            )
        visiting.add(name)
        for d in deps:
            if d in visiting:
                raise UnresolvableVariable(f"cyclic heap reference through {d}")
            stack.append(d)

    t = closed(control)
    if t.__class__ is App:  # for a pusharg next: its halves close as here and fold to t
        memo[closed(control.fn, t.fn), closed(control.arg, t.arg)] = t
    for name, segment in out.items():  # innermost first
        t = labels.get(name) or node(Labeled, name, fold(t, segment[1]))
    return fold(t, args)


def drive(s: CKHState, supply: NameSupply):
    """Store-machine steps from s on one copy of its heap, which every step
    changes in place and every state yielded holds: read a state before
    asking for the next one."""
    return iterate(partial(step_ckh, substitute=subst_normal, heap=dict(s.heap)), s, supply)


def eval_ckh(t: Term, fuel: int):
    """Drive the store machine; the result is the closed final control."""
    return evaluate(t, fuel, drive, buildL, initial_state)
