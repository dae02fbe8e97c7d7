"""Parallel rewriting with sharing labels.

Terms may wrap any subterm in a variable label.  Reduction is by-name:
when an application is demanded, the argument is substituted for all
occurrences of the bound variable under one fresh label, argument status
notwithstanding.  When a redex sits under a label, every other copy of
that labeled subterm is contracted in the same step by a whole-program
label substitution, which is what keeps the labeling consistent: any two
subterms with the same label must be structurally identical.

Labels never block the redex search; a search that passes a label just
records it.  Copies of a shared argument must remain identical, so the
substitution used here never freshens inserted copies (contrast the
hygiene-restoring substitution of the pure calculi).
"""
from __future__ import annotations

from typing import Optional

from .results import evaluate
from .terms import (
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    _rebuild,
    erase,
    rewrite,
    term_eq,
)


class NotConsistentlyLabeled(ValueError):
    pass


def is_labeled_value(t: Term) -> bool:
    while isinstance(t, Labeled):
        t = t.body
    return isinstance(t, Lam)


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
        if cls is App:
            push(node.arg)
            push(node.fn)
        elif cls is Lam:
            push(node.body)
        elif cls is Labeled:
            body = node.body
            prev = bodies.get(node.label)
            if prev is None:
                bodies[node.label] = body
                push(body)
            elif prev is not body and not term_eq(prev, body):
                return False
    return True


def substlab(t: Term, z: Name, s: Term) -> Term:
    """Replace the body of every z-labeled subterm with s, keeping the
    wrapper; descends under other labels, binders, and applications."""

    def enter(node):
        if node.label != z:
            return None
        return node if node.body is s else Labeled(z, s)

    return rewrite(t, enter)


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


def _subst_closed(t: Term, x: Name, s: Term) -> Term:
    """Insert the same closed s at every free occurrence of x in t.

    With s closed no binder of t can capture, so nothing is renamed and no
    free-variable walk of s is needed; only binders of x shadow.
    """

    def var_fn(node, shadowed):
        return s if shadowed is None and node.name == x else node

    def lam_fn(node, shadowed):
        return node.binder, (True if node.binder == x else shadowed)

    return _rebuild(t, var_fn, lam_fn)


def step_lstep(t: Term, supply: Optional[NameSupply] = None, check: bool = True) -> Optional[Term]:
    """One parallel step of a closed term; absent iff t is a (possibly
    labeled) value.

    The search never enters a binder, so the argument it substitutes is
    closed whenever t is.
    """
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
    contractum = _subst_closed(control.body, control.binder, Labeled(fresh, argument))
    # nearest enclosing label, with only applications between it and the redex
    label_at = None
    for i in range(len(stack) - 1, -1, -1):
        if isinstance(stack[i], _LabL):
            label_at = i
            break
    if label_at is None:
        return _plug(stack, contractum)
    z = stack[label_at].label
    inner = _plug(stack[label_at + 1 :], contractum)
    whole = _plug(stack[:label_at], Labeled(z, inner))
    return substlab(whole, z, inner)


def drive(t: Term, supply: NameSupply):
    """Parallel steps from a closed hygienic term: ("beta-step", term) per
    step, then (None, labeled value)."""
    while not is_labeled_value(t):
        t = step_lstep(t, supply, check=False)
        yield "beta-step", t
    yield None, t


def eval_lstep(t: Term, fuel: int):
    """Inject an unlabeled program and iterate to a labeled value."""
    return evaluate(t, fuel, drive)


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
