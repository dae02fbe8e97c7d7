"""Evaluation-context frames and grammar recognizers.

A one-hole context is stored as a tuple of frames, innermost first: the
head frame is the one nearest the hole.  Three frame kinds:

    ArgF(e)            hole in operator position, argument e
    LamF(x)            hole under binder x
    BodF(x, inner, between)
                       hole in argument position of an application whose
                       operator is between[lam x. inner[x]]; `inner` is the
                       context around the demanded occurrence of x in the
                       binder's body and `between` the answer context
                       separating the binder from its argument.

Reading a pure (BodF-free) frame list inner-to-outer as a bracket word
with LamF = '(' and ArgF = ')' turns the context grammars into bracket
conditions:

    answer contexts        balanced words (each binder paired with the
                           argument frame that closes it)
    outer partials         no unmatched '(' and the word ends on an
                           unmatched ')'
    inner partials         starts with '(' and every prefix keeps at
                           least one unmatched '('

Bracket matching never crosses a BodF: a binder inside an argument can
never pair with an application outside it.
"""
from __future__ import annotations

from itertools import chain
from typing import Optional

from .terms import HOLE, App, Frozen, Lam, Name, Term, Var, rewrite


class ArgF(Frozen):
    __slots__ = ("term",)


class LamF(Frozen):
    __slots__ = ("binder",)


class BodF(Frozen):
    __slots__ = ("binder", "inner", "between")


Frames = tuple  # of ArgF, LamF and BodF frames, innermost first


def plug(frames: Frames, t: Term) -> Term:
    """Wrap t in the context the frames denote.  At a BodF the walk builds
    the operator between[lam x. inner[x]] first, suspending the frames
    outside it on a work list, so nested demand frames take no recursion."""
    suspended = []  # (frames iterator, argument) per BodF whose operator is being built
    it = iter(frames)
    while True:
        for f in it:
            if isinstance(f, ArgF):
                t = App(t, f.term)
            elif isinstance(f, LamF):
                t = Lam(f.binder, t)
            else:
                suspended.append((it, t))
                it, t = chain(f.inner, (LamF(f.binder),), f.between), Var(f.binder)
                break
        else:
            if not suspended:
                return t
            it, argument = suspended.pop()
            t = App(t, argument)


def subst_plug(frames: Frames, x: Name, copy) -> tuple[tuple, Term]:
    """plug(frames, Var(x)) with copy() for each x, as new frames, outermost
    first, and the copy in the hole; no binder in the frames is x.  Copies
    come in subst_normal's order: BodF operators outermost first, the hole,
    then pending arguments innermost first.  BodFs wait on a work list, not
    the call stack, and keep the frames inside them that did not change."""

    def rebuilt(fs, fresh):  # fs innermost first, as its arguments are substituted
        out = []
        for f in fs:
            if f.__class__ is ArgF:
                t = rewrite(f.term, var=lambda node, env: copy() if node.name == x else node)
                f = ArgF(t) if fresh or t is not f.term else f
            elif f.__class__ is LamF and fresh:
                f = LamF(f.binder)
            out.append(f)
        return tuple(out)

    work = [(None, list(frames), len(frames))]  # (BodF, its inner, frames left to enter)
    while True:
        bod, fs, i = work.pop()
        while i and fs[i - 1].__class__ is not BodF:
            i -= 1
        if i:  # the next BodF inward, rebuilt in its place before the hole
            work += (bod, fs, i - 1), (fs[i - 1], list(fs[i - 1].inner), len(fs[i - 1].inner))
        elif bod is None:
            hole = copy()
            return rebuilt(fs, True)[::-1], hole
        else:  # frames compare by identity; a BodF of frames itself is made anew
            inner, between = rebuilt(fs, False), rebuilt(bod.between, False)
            if work[-1][0] is None or inner != bod.inner or between != bod.between:
                bod = BodF(bod.binder, inner, between)
            work[-1][1][work[-1][2]] = bod


def inject(t: Term) -> tuple[list, Term]:
    """A stack driver's initial state: an empty frame stack and the term."""
    return [], t


def build(state: tuple[list, Term]) -> Term:
    """The term of a stack driver's state plugged into its stack."""
    stack, sub = state
    return plug(tuple(reversed(stack)), sub)


def binder_at(stack: list, name: Name) -> Optional[int]:
    """Position of the topmost LamF binding name in an outermost-first
    stack, or None."""
    for j in range(len(stack) - 1, -1, -1):
        f = stack[j]
        if isinstance(f, LamF) and f.binder == name:
            return j
    return None


def context_term(frames: Frames) -> Term:
    """The context as a term with a distinguished hole."""
    return plug(frames, HOLE)


def balance(frames: Frames) -> int:
    """ArgF count minus LamF count up to (excluding) the first BodF."""
    args = lams = 0
    for f in frames:
        if isinstance(f, ArgF):
            args += 1
        elif isinstance(f, LamF):
            lams += 1
        else:
            break
    return args - lams


def scan_demand(frames: Frames):
    """Obligation scan of a demand-shaped frame list, inner to outer.

    A BodF stands for a nested demand application; the pending binders of
    its body context (binders awaiting arguments from further out, like
    the inner partial contexts the calculus splits off) propagate outward
    as open obligations at the BodF's position.  Each argument frame
    closes the nearest obligation, if one is open.  Obligations can never
    cross a BodF: the outer partial contexts that discharge them are built
    from binder/argument frames only.  Returns (valid, pending,
    first_open), where first_open is the position of the first binder
    after the last BodF that nothing closes, or None.
    """
    opens = 0  # binders after the last BodF that nothing has closed yet
    pending = 0  # obligations the last BodF left open
    first_open = None
    suspended = []  # iterators of the frame lists whose BodF's inner is being scanned
    it = enumerate(frames)
    while True:
        for i, f in it:
            if isinstance(f, LamF):
                if not opens:
                    first_open = i
                opens += 1
            elif isinstance(f, ArgF):
                if opens:
                    opens -= 1
                elif pending:
                    pending -= 1
            else:
                if opens or pending or not is_answer_frames(f.between):
                    return False, 0, None
                suspended.append(it)
                it = enumerate(f.inner)
                break
        else:
            if not suspended:
                return True, pending + opens, first_open if opens else None
            # the inner list's open obligations stand at its BodF's position
            pending, opens = pending + opens, 0
            it = suspended.pop()


def is_answer_frames(frames: Frames) -> bool:
    """Membership in the answer-context grammar: a balanced bracket word,
    read inner to outer."""
    opens = 0
    for f in frames:
        if isinstance(f, LamF):
            opens += 1
        elif isinstance(f, ArgF) and opens:
            opens -= 1
        else:  # a BodF, or an argument frame that closes no binder
            return False
    return not opens


def is_inner_partial_frames(frames: Frames) -> bool:
    """Membership in the inner partial-answer-context grammar."""
    bal = 0
    for f in frames:
        if isinstance(f, BodF):
            return False
        bal += 1 if isinstance(f, LamF) else -1
        if bal < 1:
            return False
    return True


def split_inner_partial(frames: Frames) -> Optional[tuple[Frames, Frames, int]]:
    """Split a demand context as (eval_frames, inner_partial_frames, k).

    The inner partial part is the trailing run of binders nothing closes;
    k is the total number of obligations the context leaves open,
    counting both those binders and the pending binders of nested demand
    frames, all of which the surrounding outer partial context must close
    for the composite to remain an answer context.  Returns None if the
    context fails the demand grammar.
    """
    ok, pending, first_open = scan_demand(frames)
    if not ok:
        return None
    if first_open is None:
        return frames, (), pending
    suffix = frames[first_open:]
    assert is_inner_partial_frames(suffix)
    return frames[:first_open], suffix, pending


def split_outer_partial(frames: Frames, k: int) -> Optional[tuple[Frames, Frames]]:
    """Split outward frames as (outer_partial_frames, rest).

    The outer partial part is the shortest prefix holding k argument
    frames that close nothing, ending at the k-th; with k = 0 it is empty.
    None if a BodF or the end comes first.  It checks nothing about rest:
    a caller that needs an evaluation context there asks is_eval_frames.
    """
    if k == 0:
        return (), frames
    seen = opens = 0
    for i, f in enumerate(frames):
        if isinstance(f, BodF):
            return None
        if isinstance(f, LamF):
            opens += 1
        elif opens:
            opens -= 1
        else:
            seen += 1
            if seen == k:
                return frames[: i + 1], frames[i + 1 :]
    return None


def is_eval_frames(frames: Frames) -> bool:
    """Membership in the evaluation-context grammar: a well-formed demand
    context with no obligation left open."""
    ok, pending, _ = scan_demand(frames)
    return ok and pending == 0


def matching_argument(frames: Frames, start: int) -> Optional[int]:
    """Position of the argument frame pairing the binder at frames[start].

    frames[start] must be a LamF; the answer-context grammar pairs it with
    the first ArgF beyond it that closes it, with everything in between a
    balanced answer context.  Matching cannot cross a BodF.
    """
    assert isinstance(frames[start], LamF)
    depth = 0
    for j in range(start + 1, len(frames)):
        f = frames[j]
        if isinstance(f, BodF):
            return None
        if isinstance(f, LamF):
            depth += 1
        else:
            if depth == 0:
                return j
            depth -= 1
    return None
