"""The CK transition system: redex search as small-step state transitions.

States pair a control string with a frame list encoding the evaluation
context.  Four rules: pusharg focuses the operator of an application,
descend-lam goes under a binder when the balance function finds it a
pending argument, lookupvar packages the context around a demanded
variable into a bod frame and focuses the argument, and beta-need-ck
substitutes a finished argument value into the stored body context.

Two mapping functions relate states to the other semantics: build plugs
the control into the frame context (pure terms), and build_step_term
replays the frames as eager labeled substitutions (labeled terms).  The
system exists to make the per-step correspondence checkable; it is not an
efficient evaluator (lookupvar re-validates context grammars each time).
"""
from __future__ import annotations

from itertools import chain
from typing import Optional

from .frames import (
    ArgF,
    BodF,
    Frames,
    LamF,
    balance,
    is_answer_frames,
    is_eval_frames,
    matching_argument,
    plug,
    split_inner_partial,
    split_outer_partial,
)
from .results import evaluate, iterate, normalized
from .terms import (
    App,
    Frozen,
    Labeled,
    Lam,
    NameSupply,
    Term,
    Var,
    strip_value_labels,
    subst_normal,
    subst_shared,
)

PUSHARG, DESCEND_LAM, LOOKUPVAR, BETA_NEED_CK = (
    "pusharg",
    "descend-lam",
    "lookupvar",
    "beta-need-ck",
)


class CKState(Frozen, frames=()):
    __slots__ = ("control", "frames")


class IllFormedState(AssertionError):
    """No rule applies and the state is not final; unreachable from a
    closed injection."""


def inject_ck(t: Term) -> CKState:
    """The initial state of a closed unlabeled term, normalized first
    (``results.normalized``); runs, which start normalized, skip it."""
    return CKState(normalized(t, "inject_ck")[0], ())


def is_final(s: CKState) -> bool:
    return isinstance(s.control, Lam) and is_answer_frames(s.frames)


def build(s: CKState) -> Term:
    """Plug the control into the context the frames denote."""
    return plug(s.frames, s.control)


def subst_frames(frames: Frames, x, v: Term, supply: NameSupply) -> Frames:
    """Map subst_normal across every term embedded in a frame list; every
    inserted copy is freshened (the original value lives in the control).
    Terms are substituted in frame order, a BodF's inner before its
    between; a work list of suspended frame lists stands in for recursion.
    Each list keeps its length, which splits a BodF's rebuilt frames."""
    suspended = []  # (frames iterator, frames built, BodF) per BodF being rebuilt
    it, out = iter(frames), []
    while True:
        for f in it:
            if isinstance(f, ArgF):
                out.append(ArgF(subst_normal(f.term, x, v, supply, keep_first=False)))
            elif isinstance(f, LamF):
                out.append(f)
            else:
                suspended.append((it, out, f))
                it, out = chain(f.inner, f.between), []
                break
        else:
            if not suspended:
                return tuple(out)
            it, parent, f = suspended.pop()
            n = len(f.inner)
            parent.append(BodF(f.binder, tuple(out[:n]), tuple(out[n:])))
            out = parent


def step_ck(s: CKState, supply=None) -> Optional[tuple[str, CKState]]:
    """One transition; absent iff the state is final.  The state is
    normalized as a whole, as every state reached from inject_ck is; without
    a supply, fresh names are minted above every name of it."""
    control, frames = s.control, s.frames
    if isinstance(control, App):
        return PUSHARG, CKState(control.fn, (ArgF(control.arg),) + frames)
    if isinstance(control, Lam):
        if balance(frames) > 0:
            return DESCEND_LAM, CKState(control.body, (LamF(control.binder),) + frames)
        if is_answer_frames(frames):
            return None
        bod_at = None
        for i, f in enumerate(frames):
            if isinstance(f, BodF):
                bod_at = i
                break
        if bod_at is None:
            raise IllFormedState("value control with a non-answer context")
        arg_frames = frames[:bod_at]
        if not is_answer_frames(arg_frames):
            raise IllFormedState("argument context is not an answer context")
        bod = frames[bod_at]
        if supply is None:
            supply = NameSupply.for_term(build(s))
        new_frames = (
            subst_frames(bod.inner, bod.binder, control, supply)
            + arg_frames
            + bod.between
            + frames[bod_at + 1 :]
        )
        return BETA_NEED_CK, CKState(control, new_frames)
    if isinstance(control, Var):
        name = control.name
        lam_at = None
        for j, f in enumerate(frames):
            if isinstance(f, LamF) and f.binder == name:
                lam_at = j
                break
        if lam_at is None:
            raise IllFormedState(f"demanded variable {name} is unbound")
        arg_at = matching_argument(frames, lam_at)
        if arg_at is None:
            raise IllFormedState(f"binder {name} has no matching argument")
        inner = frames[:lam_at]
        between = frames[lam_at + 1 : arg_at]
        rest = frames[arg_at + 1 :]
        split = split_inner_partial(inner)
        if split is None:
            raise IllFormedState("body context fails the demand grammar")
        if not is_answer_frames(between):
            raise IllFormedState("binder/argument context is not an answer context")
        if split_outer_partial(rest, split[2]) is None:
            raise IllFormedState("outer context fails the partial-answer split")
        if not is_eval_frames(rest):
            raise IllFormedState("outer context is not an evaluation context")
        argument = frames[arg_at].term
        return LOOKUPVAR, CKState(argument, (BodF(name, inner, between),) + rest)
    raise IllFormedState(f"control is {type(control).__name__}")


def build_step_term(s: CKState, supply: Optional[NameSupply] = None, strip: bool = False) -> Term:
    """Replay the frames as eager labeled substitutions, yielding the
    labeled-semantics image of the state.  Each argument goes in under a
    fresh label from the supply, one shared copy per binder frame
    (``terms.subst_shared``); the state is normalized as a whole, so no
    binder of the replayed term is free in an argument, and nothing is
    renamed.  Images are compared modulo label renaming.  With strip, label
    stacks on values are dropped (``strip_value_labels``), walking only an
    image that a replay put a label in: one whose binder frames bind no
    occurrence has none."""
    if supply is None:
        supply = NameSupply.for_terms((build(s),))
    fs = list(s.frames)  # innermost first; fs[i:] is still to replay
    i = 0
    e: Term = s.control
    labeled = False
    while i < len(fs):
        f = fs[i]
        i += 1
        if isinstance(f, ArgF):
            e = App(e, f.term)
        elif isinstance(f, BodF):
            fs[i:i] = (*f.inner, LamF(f.binder), *f.between, ArgF(e))
            e = Var(f.binder)
        else:
            arg_at = matching_argument(fs, i - 1)
            assert arg_at is not None, "binder frame without a matching argument"
            assert is_answer_frames(fs[i:arg_at]), "context before the argument not an answer"
            label = supply.fresh(f.binder.base)
            argument = fs.pop(arg_at).term
            new = subst_shared(e, f.binder, Labeled(label, argument))
            labeled = labeled or new is not e  # e itself: nothing substituted
            e = new
    return strip_value_labels(e) if strip and labeled else e


def drive(s: CKState, supply: NameSupply):
    return iterate(step_ck, s, supply)


def eval_ck(t: Term, fuel: int):
    """Drive the transition system; the answer is the built final state."""
    return evaluate(t, fuel, drive, build, CKState)


__all__ = [
    "BETA_NEED_CK",
    "CKState",
    "DESCEND_LAM",
    "IllFormedState",
    "LOOKUPVAR",
    "PUSHARG",
    "balance",
    "build",
    "build_step_term",
    "drive",
    "eval_ck",
    "inject_ck",
    "is_final",
    "step_ck",
    "subst_frames",
]
