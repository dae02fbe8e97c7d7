"""Parallel rewriting with sharing labels.

Terms may wrap any subterm in a variable label.  Reduction is by-name:
when an application is demanded, the argument is substituted for all
occurrences of the bound variable under one fresh label, argument status
notwithstanding.  When a redex sits under a label, every other copy of
that labeled subterm is contracted in the same step by a whole-program
label substitution, which is what keeps the labeling consistent: any two
subterms with the same label must be structurally identical.

Labels never block the redex search; a search that passes a label just
records it.  Copies of a shared argument must remain one term, so a step
inserts it with ``terms.subst_shared``, which never freshens a copy
(contrast the hygiene-restoring substitution of the pure calculi).  The
search never enters a binder, so the argument is closed and no binder of
the body can capture it: ``subst_shared``'s precondition.
"""
from __future__ import annotations

from typing import Optional

from .results import NotConsistentlyLabeled, evaluate
from .terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    erase,
    is_cl,
    rewrite,
    shared_labels,
    subst_shared,
)


def is_labeled_value(t: Term) -> bool:
    while isinstance(t, Labeled):
        t = t.body
    return isinstance(t, Lam)


def substlab(t: Term, z: Name, s: Term) -> Term:
    """Replace the body of every z-labeled subterm with s, keeping the
    wrapper; descends under other labels, binders, and applications.  Every
    replaced copy is one Labeled(z, s) node."""
    copy = Labeled(z, s)
    shared, leave = shared_labels()

    def enter(node, env):
        if node.label != z:
            return shared(node, env)
        return node if node.body is s else copy

    return rewrite(t, enter, leave)


class _AppL:
    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term


class _LabL:
    __slots__ = ("label",)

    def __init__(self, label: Name):
        self.label = label


def _plug(stack: list, t: Term) -> Term:
    for f in reversed(stack):
        t = App(t, f.term) if isinstance(f, _AppL) else Labeled(f.label, t)
    return t


def step_lstep(t: Term, supply: Optional[NameSupply] = None, check: bool = True) -> Optional[Term]:
    """One parallel step of a closed term; absent iff t is a (possibly
    labeled) value."""
    if check and not is_cl(t):
        raise NotConsistentlyLabeled("input is not consistently labeled")
    if supply is None:
        supply = NameSupply.for_term(t)
    control = t
    stack: list = []  # outermost first
    while True:
        if isinstance(control, App):
            stack.append(_AppL(control.arg))
            control = control.fn
        elif isinstance(control, Labeled):
            stack.append(_LabL(control.label))
            control = control.body
        elif isinstance(control, Lam):
            break
        else:
            raise OpenTermError("redex search reached an unbound variable")
    # peel the operator's own label stack
    while stack and isinstance(stack[-1], _LabL):
        stack.pop()  # obsolete labels, discarded by the contraction
    if not stack:
        return None  # labeled value
    app = stack.pop()
    assert isinstance(app, _AppL), "operator labels exhausted without an application"
    argument = app.term
    fresh = supply.fresh(control.binder.base)
    contractum = subst_shared(control.body, control.binder, Labeled(fresh, argument))
    # nearest enclosing label, with only applications between it and the redex
    label_at = None
    for i in range(len(stack) - 1, -1, -1):
        if isinstance(stack[i], _LabL):
            label_at = i
            break
    if label_at is None:
        return _plug(stack, contractum)
    # substlab rewrites every copy of the label's body in t, this one included
    return substlab(t, stack[label_at].label, _plug(stack[label_at + 1 :], contractum))


def drive(t: Term, supply: NameSupply):
    """Parallel steps from a closed hygienic term: ("beta-step", term) per
    step, then (None, labeled value)."""
    while not is_labeled_value(t):
        t = step_lstep(t, supply, check=False)
        yield "beta-step", t
    yield None, t


def eval_lstep(t: Term, fuel: int):
    """Iterate a closed program, labeled or not, to a labeled value."""
    return evaluate(t, fuel, drive, labels=True)


__all__ = [
    "NotConsistentlyLabeled",
    "drive",
    "erase",
    "eval_lstep",
    "is_cl",
    "is_labeled_value",
    "step_lstep",
    "substlab",
]
