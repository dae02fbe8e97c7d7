"""Evaluator outcomes shared by every semantics in the package, and the one
loop that runs a machine to one of them."""
from __future__ import annotations

from dataclasses import dataclass

from .terms import NameSupply, OpenTermError, Term, hygienize, is_closed


@dataclass(frozen=True, eq=False)
class Done:
    answer: Term
    steps: int


@dataclass(frozen=True)
class Timeout:
    steps: int


def iterate(step, state, supply: NameSupply):
    """A drive from a single-step function: step(state, supply) returns
    (rule, next state), or None on a final state."""
    while (r := step(state, supply)) is not None:
        yield r
        state = r[1]
    yield None, state


def start(t: Term, fuel: int, inject=None):
    """inject(hygienized t), a machine run's initial state, and the run's
    name supply; rejects open terms and negative fuel."""
    if not is_closed(t):
        raise OpenTermError("evaluation requires a closed term")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    supply = NameSupply.for_term(t)
    state = hygienize(t, supply)
    return (state if inject is None else inject(state)), supply


def evaluate(t: Term, fuel: int, drive, answer=None, inject=None):
    """Run one machine on a closed term for at most fuel steps: drive(state,
    supply) yields (rule, state) per step from the initial state, then
    (None, final state); the answer is answer(final state), by default the
    final state itself."""
    state, supply = start(t, fuel, inject)
    steps = 0
    for rule, state in drive(state, supply):
        if rule is None:
            continue  # the final state: let the drive end rather than close it
        if steps == fuel:
            return Timeout(steps)
        steps += 1
    return Done(state if answer is None else answer(state), steps)
