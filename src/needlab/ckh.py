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
``ImageCache`` of the previous state of the same run, it closes again only
the changed name, the checked-out bindings and the bindings that embed
them.
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
    """What buildL keeps of one state of a run for the next: each closed
    name's labeled node (labels) and entry (names); the state's control,
    frame arguments and kept bindings (pieces), each mapped to [the bound
    names it references, its closed term]; and the App and Labeled nodes
    made for the state (nodes), keyed by their two fields."""

    __slots__ = ("labels", "names", "pieces", "nodes")

    def __init__(self):
        self.labels: dict[Name, Labeled] = {}
        self.names: dict[Name, _Closed] = {}
        self.pieces: dict[Term, list] = {}
        self.nodes: dict[tuple, Term] = {}


class _Closed:
    """A closed name's entry: its heap binding (None for a checked-out
    name), the bound names the binding references, and the names whose
    labeled nodes embed this one's."""

    __slots__ = ("term", "refs", "users")

    def __init__(self, term: Optional[Term], refs: tuple):
        self.term, self.refs, self.users = term, refs, set()


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
    without it the cache starts empty.  A heap name keeps its binding until
    a step checks it out or rebinds it, so three kinds of entry are dropped
    and closed again: the name the step changed (``s.changed``), the
    checked-out names (the fold moves at every step), and, through
    ``_Closed.users``, every entry whose node embeds one of theirs.  A
    piece of the last state keeps its closed term unless it references a
    dropped name (its refs stay: a fresh name never occurs in an older
    term), and a dropped binding offers its closed body as a piece, so the
    control a lookup installs is not closed again.  Nodes are made through
    the cache, so a pusharg or a lookup rebuilds the image it had; what is
    kept stays the same object, which a trace's ``PrintMemo`` prints from
    memory.
    """
    if reuse is None:  # an empty cache
        labels, names, old, made = {}, {}, {}, {}
    else:
        labels, names, old, made = reuse.labels, reuse.names, reuse.pieces, reuse.nodes
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

    dropped = set()
    stale = [*out, s.changed] if names else ()
    while stale:
        name = stale.pop()
        entry = names.pop(name, None)
        if entry is not None:
            node = labels.pop(name)
            dropped.add(name)
            stale += entry.users
            if entry.term is not None:
                old.setdefault(entry.term, [entry.refs, node.body])
                made.setdefault((name, node.body), node)
    new, making = {}, {}
    if reuse is not None:
        reuse.pieces, reuse.nodes = new, making

    def make(kind, a, b, node: Optional[Term] = None) -> Term:
        """kind(a, b): the node made for this state or the last if any,
        else node if given, else a new one."""
        key = (a, b)
        hit = making.get(key)
        if hit is None:
            hit = made.get(key)
            if hit is None:
                hit = kind(a, b) if node is None else node
            making[key] = hit
        return hit

    def kept(t: Term) -> Optional[list]:  # t's piece from this state or the last
        p = new.get(t)
        if p is None:
            p = old.get(t)
            if p is None:
                return None
            if not dropped.isdisjoint(p[0]):  # a term's refs stay; its closure does not
                p = [p[0], None]
            new[t] = p
        return p

    def refs_of(t: Term) -> tuple:  # of the control, one of its halves or an argument
        if t.__class__ is Var:
            return (t.name,) if t.name in heap or t.name in out else ()
        p = kept(t)
        if p is None:
            p = new[t] = [_refs(t, heap, out), None]
        return p[0]

    def label_of(node: Var, env) -> Term:  # rewrite's var hook: a reference closed
        return labels.get(node.name, node)

    def closed(t: Term) -> Term:  # a piece, once its refs are closed
        if t.__class__ is Var:
            return labels.get(t.name, t)
        p = new[t]
        c = p[1]
        if c is None:
            c = p[1] = rewrite(t, var=label_of) if p[0] else t
        if c.__class__ is App:
            making.setdefault((c.fn, c.arg), c)
        return c

    def fold(t: Term, args: list) -> Term:  # t closed, args not yet
        for a in args:  # make(App, t, closed(a)), inlined: the fold runs every step
            key = (t, labels.get(a.name, a) if a.__class__ is Var else closed(a))
            hit = making.get(key)
            if hit is None:
                hit = made.get(key)
                if hit is None:
                    hit = App(*key)
                making[key] = hit
            t = hit
        return t

    control = s.control
    if control.__class__ is App:  # its halves are pieces too, for a pusharg next
        halves = refs_of(control.fn) + refs_of(control.arg)
        if kept(control) is None:
            new[control] = [tuple(dict.fromkeys(halves)), None]

    # close the names the pieces reference, in dependency order, detecting
    # cycles; a checked-out name is closed here only if something other
    # than the frame above it references it
    stack = list(refs_of(control))
    for segment in (*out.values(), (bottom, args)):
        for a in segment[1]:
            stack += refs_of(a)
    found: dict[Name, tuple] = {}
    visiting: set[Name] = set()
    while stack:
        name = stack[-1]
        if name in names:
            stack.pop()
            continue
        b = out[name] if name in out else heap[name]
        known = found.get(name)  # (refs, whether the binding is a piece)
        if known is None:
            if b.__class__ is tuple:
                refs = refs_of(b[0])
                for a in b[1]:
                    refs += refs_of(a)
                known = (tuple(dict.fromkeys(refs)), False)
            else:
                p = kept(b)
                known = (_refs(b, heap, out), False) if p is None else (p[0], True)
            found[name] = known
        refs, is_piece = known
        deps = [d for d in refs if d not in names]
        if not deps:
            if b.__class__ is tuple:
                c, b = fold(closed(b[0]), b[1]), None
            elif is_piece:
                c = closed(b)
            else:
                c = rewrite(b, var=label_of) if refs else b
            labels[name] = make(Labeled, name, c)
            names[name] = _Closed(b, refs)
            for d in refs:
                names[d].users.add(name)
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

    if control.__class__ is App:
        p = new[control]
        t = p[1]
        if t is None:
            fn, arg = closed(control.fn), closed(control.arg)
            same = fn is control.fn and arg is control.arg
            t = p[1] = make(App, fn, arg, control if same else None)
        else:  # a kept closure: its halves close to its children
            for half, c in ((control.fn, t.fn), (control.arg, t.arg)):
                if half.__class__ is not Var and new[half][1] is None:
                    new[half][1] = c
            making.setdefault((t.fn, t.arg), t)
    else:
        t = closed(control)
    for name, segment in out.items():  # innermost first
        node = labels.get(name)
        t = node if node is not None else make(Labeled, name, fold(t, segment[1]))
    return fold(t, args)


def drive(s: CKHState, supply: NameSupply):
    """Store-machine steps from s on one copy of its heap, which every step
    changes in place and every state yielded holds: read a state before
    asking for the next one."""
    return iterate(partial(step_ckh, substitute=subst_normal, heap=dict(s.heap)), s, supply)


def eval_ckh(t: Term, fuel: int):
    """Drive the store machine; the result is the closed final control."""
    return evaluate(t, fuel, drive, buildL, initial_state)
