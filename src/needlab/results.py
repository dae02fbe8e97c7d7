"""Evaluator outcomes shared by every semantics in the package, and the one
loop that runs a machine to one of them.

A run starts with one walk of its term (``terms.scan``, which
``terms.normalize`` runs): from what it reads, ``start`` rejects open
input, and labeled input on a machine that reads no labels, and seeds the
run's name supply.  A second walk renames binders only when the term is
not hygienic, and on a labeled term two more check its labels: ``is_cl``
on the input, and ``alpha_eq`` of the renamed term to the input."""
from __future__ import annotations

from .terms import (
    Frozen,
    LabeledTermError,
    NameSupply,
    OpenTermError,
    Term,
    alpha_eq,
    is_cl,
    normalize,
)


class NotConsistentlyLabeled(LabeledTermError):
    """Two occurrences of one label hold different bodies."""


def normalized(t: Term, what: str, supply=None, closed: bool = True):
    """A one-shot step's input normalized (``normalize``), and the supply
    that renamed it, above every name of t unless one is given; rejects a
    labeled t and, if closed, an open one.  what names the step."""
    t, supply, found = normalize(t, supply)
    if closed and found.free:
        raise OpenTermError(f"{what} requires a closed term")
    if found.labeled:
        raise LabeledTermError(f"{what} reads unlabeled terms only")
    return t, supply


class Done(Frozen):
    __slots__ = ("answer", "steps")


class Timeout(Frozen):
    __slots__ = ("steps",)


def iterate(step, state, supply: NameSupply):
    """A drive from a single-step function: step(state, supply) returns
    (rule, next state), or None on a final state."""
    while (r := step(state, supply)) is not None:
        yield r
        state = r[1]
    yield None, state


def start(t: Term, fuel: int, inject=None, labels: bool = False):
    """inject(hygienized t), a machine run's initial state, and the run's
    name supply; rejects open terms, negative fuel, labeled terms that are
    not consistently labeled or have no consistent renaming to hygiene and,
    unless the machine reads labels, labeled terms."""
    state, supply, found = normalize(t)
    if found.free:
        raise OpenTermError("evaluation requires a closed term")
    if found.labeled and not labels:
        raise LabeledTermError("this machine evaluates unlabeled terms only")
    if found.labeled and not is_cl(t):  # the term as given, before renaming
        raise NotConsistentlyLabeled("input is not consistently labeled")
    if found.labeled and state is not t and not alpha_eq(state, t):
        raise NotConsistentlyLabeled("copies of one label refer to different binders")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    return (state if inject is None else inject(state)), supply


def evaluate(t: Term, fuel: int, drive, answer=None, inject=None, labels: bool = False):
    """Run one machine on a closed term for at most fuel steps: drive(state,
    supply) yields (rule, state) per step from the initial state, then
    (None, final state); the answer is answer(final state), by default the
    final state itself.  labels says whether the machine reads labeled
    terms."""
    state, supply = start(t, fuel, inject, labels)
    steps = 0
    for rule, state in drive(state, supply):
        if rule is None:
            continue  # the final state: let the drive end rather than close it
        if steps == fuel:
            return Timeout(steps)
        steps += 1
    return Done(state if answer is None else answer(state), steps)
