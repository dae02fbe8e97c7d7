"""Store machine realizing the natural semantics of lazy evaluation.

A state holds a control string, a frame list, and a heap.  Arguments move
to the heap under fresh names when a binder is entered; demanding a heap
variable checks its binding out (a var frame remembers the name), and the
finished value is written back, so each binding is evaluated at most
once.  The heap stays insertion-ordered for deterministic printing only.

The mapping into the labeled semantics folds the frames back into the
control and then closes the result over the heap, wrapping each resolved
binding in a label named after its heap variable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .frames import ArgF, Frames
from .results import evaluate, iterate
from .terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    Var,
    is_closed,
    rewrite,
    subst,
    subterms as _subterms,
)

PUSHARG, DESCEND_LAM, LOOKUPVAR, UPDATEHEAP = (
    "pusharg",
    "descend-lam",
    "lookupvar",
    "updateheap",
)


@dataclass(frozen=True, eq=False, slots=True)
class VarF:
    name: Name


@dataclass(frozen=True, eq=False)
class CKHState:
    control: Term
    frames: Frames = ()
    heap: dict = field(default_factory=dict)  # Name -> Term, insertion ordered


class UnboundVariable(AssertionError):
    pass


class UnresolvableVariable(AssertionError):
    pass


def inject_ckh(t: Term) -> CKHState:
    if not is_closed(t):
        raise OpenTermError("inject_ckh requires a closed term")
    return CKHState(t, (), {})


def is_final(s: CKHState) -> bool:
    return isinstance(s.control, Lam) and not s.frames


def step_ckh(s: CKHState, supply: Optional[NameSupply] = None) -> Optional[tuple[str, CKHState]]:
    """One store-machine transition; absent iff the state is final."""
    control, frames, heap = s.control, s.frames, s.heap
    if isinstance(control, App):
        return PUSHARG, CKHState(control.fn, (ArgF(control.arg),) + frames, heap)
    if isinstance(control, Lam):
        if not frames:
            return None
        top = frames[0]
        if isinstance(top, ArgF):
            if supply is None:
                supply = NameSupply.for_terms((control, top.term))
            fresh = supply.fresh(control.binder.base)
            body = subst(control.body, control.binder, Var(fresh), supply)
            new_heap = dict(heap)
            new_heap[fresh] = top.term
            return DESCEND_LAM, CKHState(body, frames[1:], new_heap)
        new_heap = dict(heap)
        new_heap[top.name] = control
        return UPDATEHEAP, CKHState(control, frames[1:], new_heap)
    if isinstance(control, Var):
        name = control.name
        if name not in heap:
            raise UnboundVariable(f"{name} is not in the heap")
        new_heap = dict(heap)
        binding = new_heap.pop(name)
        return LOOKUPVAR, CKHState(binding, (VarF(name),) + frames, new_heap)
    raise UnboundVariable(f"control is {type(control).__name__}")


def buildL(s: CKHState, reuse: Optional[dict] = None) -> Term:
    """Fold frames back into the control, then close over the heap with
    labels; only reachable bindings are pulled in.

    Every reference to a heap name becomes one shared labeled node.  reuse,
    kept by the caller across the states of one trace, maps each heap name
    to (heap term, the heap names it references, their labeled nodes, its
    labeled node).  A binding is closed again only when its heap term is a
    different object or one of those names has a different labeled node.
    The heap names a term references never change: a name enters the heap
    fresh, and a checked-out name is rebound here.
    """
    heap = dict(s.heap)
    term = s.control
    for f in s.frames:
        if isinstance(f, ArgF):
            term = App(term, f.term)
        else:
            if f.name in heap:
                raise UnresolvableVariable(f"{f.name} is both checked out and bound")
            heap[f.name] = term
            term = Var(f.name)
    closed: dict[Name, Term] = {}  # name -> Labeled(name, closed binding)

    def heap_refs(t: Term) -> list[Name]:
        return [
            node.name for node in _subterms(t) if isinstance(node, Var) and node.name in heap
        ]

    def ref(node: Var) -> Term:  # its binding must already be in `closed`
        return closed[node.name] if node.name in heap else node

    # resolve reachable bindings in dependency order, detecting cycles
    visiting: set[Name] = set()
    stack: list[Name] = heap_refs(term)
    while stack:
        name = stack[-1]
        if name in closed:
            stack.pop()
            continue
        bound = heap[name]
        if reuse is None:
            refs = heap_refs(bound)
        else:
            entry = reuse.get(name)
            if entry is None or entry[0] is not bound:
                entry = reuse[name] = (bound, tuple(dict.fromkeys(heap_refs(bound))), (), None)
            refs = entry[1]
        deps = [d for d in refs if d not in closed]
        if not deps:
            if reuse is not None and entry[3] is not None and all(
                closed[d] is c for d, c in zip(refs, entry[2])
            ):
                closed[name] = entry[3]
            else:
                closed[name] = Labeled(name, rewrite(bound, var=ref))
                if reuse is not None:
                    reuse[name] = (bound, refs, tuple(closed[d] for d in refs), closed[name])
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
    return rewrite(term, var=ref)


def drive(s: CKHState, supply: NameSupply):
    return iterate(step_ckh, s, supply)


def eval_ckh(t: Term, fuel: int):
    """Drive the store machine; the result is the closed final control."""
    return evaluate(t, fuel, drive, buildL, inject_ckh)
