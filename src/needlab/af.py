"""Reference semantics: the classical call-by-need calculus, its modified
variant, and a call-by-name evaluator.

The original calculus keeps binders adjacent to their arguments, so three
axioms drive its standard reduction: deref copies a value argument to the
single demanded occurrence, while lift and assoc re-associate one answer
layer at a time to expose the next deref.  The modified variant collapses
each run of consecutive re-associations into one step and substitutes all
occurrences at once:

    beta-need'  (lam x. E[x]) v          = E[x]{x := v}
    lift'       ((lam x. A[v]) e1) e2    = (lam x. A[v e2]) e1
    assoc'      (lam x. E[x]) (A[v])     = A[(lam x. E[x]) v]   (A nonempty)

Lift and assoc, plain or modified, are one move (``_reassociate``): a
boundary frame, a pending argument for lift and a demanding call for
assoc, goes in among an answer's layers, one layer in the plain calculus
and all the way to the value in the modified one.  An assoc' contractum
therefore always contains an immediate beta-need' redex.

The redex search reuses the shared frame machinery: a BodF frame with an
empty between-context plays the demand frame (lam x. E[x]) [] while the
argument reduces.  The search is resumable (refocusing): a contraction
leaves the frame stack truncated at the contraction site, and the next
search starts from the contractum on top of it.  A deref rewrites only
the demanded occurrence, so it keeps the path there on the stack (with
the call, put back when the argument was reduced under a demand frame)
and returns the value's copy as the new control.  A step cuts the stack
and pushes only frames the last state's stack did not hold, so the frames
below its lowest cut stay the same objects at the same depths.  One
driver per calculus (``drive_af``, ``drive_afmod``) keeps the stack for a
whole run: the evaluators plug it only for the final answer (``build``),
and ``harness.run_eval`` never plugs it: ``syntax.StackPrinter``, the one
printer of frame stacks, prints each step's term from the stack and the
contractum, keeping the printed piece of every frame below the cut (a
demand frame's piece, with its contexts, included) and printing only the
frames above it.
step_af and step_afmod remain the single-step API; they search from an
empty stack, after checking and hygienizing the term they are given.
"""
from __future__ import annotations

from functools import partial
from typing import Optional

from .frames import ArgF, BodF, Frames, LamF, binder_at, build, inject, plug
from .results import evaluate, normalized
from .terms import (
    App,
    Lam,
    NameSupply,
    OpenTermError,
    Term,
    Var,
    freshen,
    subst_normal,
)

DEREF, LIFT, ASSOC = "deref", "lift", "assoc"
BETA_NEED_MOD, LIFT_MOD, ASSOC_MOD = "beta-need'", "lift'", "assoc'"


def af_answer_split(t: Term) -> Optional[tuple[Frames, Term]]:
    """Split t as nested (lam x. a) e layers around a value, if possible.

    The frames are innermost first, as plug reads them: plugging the
    value into them rebuilds t.
    """
    frames: list = []
    while isinstance(t, App) and isinstance(t.fn, Lam):
        frames.append(ArgF(t.arg))
        frames.append(LamF(t.fn.binder))
        t = t.fn.body
    if isinstance(t, Lam):
        frames.reverse()
        return tuple(frames), t
    return None


def is_af_answer(t: Term) -> bool:
    """Whether af_answer_split(t) succeeds, by a walk that builds nothing."""
    while t.__class__ is App and t.fn.__class__ is Lam:
        t = t.fn.body
    return t.__class__ is Lam


def _step(
    stack: list, where: dict, control: Term, modified: bool, supply: NameSupply
) -> tuple[Optional[str], Term]:
    """Search for the standard redex of plug(stack, control) and contract it.

    The stack is outermost-first and describes the path from the root to
    control, as an earlier search left it; LamF frames only ever sit
    directly on the ArgF carrying their argument, and BodF frames have an
    empty between-context (the binder-adjacency the calculus maintains).
    Returns (rule, contractum) with the stack truncated in place at the
    contraction site, so that plugging the contractum into it gives the
    whole reduct.  A deref rewrites only the demanded occurrence: the stack
    holds the path to it, with the call kept, and the contractum is the
    fresh copy of the value.  On an answer the rule is None, and the stack
    holds the answer context around the returned value.  where is the
    drive's map for ``_binder_at``.
    """
    while True:
        if isinstance(control, App):
            stack.append(ArgF(control.arg))
            control = control.fn
        elif isinstance(control, Lam) and stack and isinstance(stack[-1], ArgF):
            where[control.binder] = len(stack)
            stack.append(LamF(control.binder))
            control = control.body
        elif isinstance(control, Lam):
            return _resolve_value(control, stack, where, modified, supply)
        elif isinstance(control, Var):
            name = control.name
            lam_at = _binder_at(stack, where, name)
            if lam_at is None:
                raise OpenTermError(f"demanded variable {name} is unbound")
            assert lam_at > 0 and isinstance(stack[lam_at - 1], ArgF)
            arg = stack[lam_at - 1].term
            if isinstance(arg, Lam) and not modified:
                # deref changes only the occurrence: the path stays
                return DEREF, freshen(arg, supply)
            inner = tuple(reversed(stack[lam_at + 1 :]))
            del stack[lam_at - 1 :]
            if isinstance(arg, Lam):
                body = plug(inner, Var(name))
                return BETA_NEED_MOD, subst_normal(body, name, arg, supply)
            call = BodF(name, inner, ())
            if modified:
                split = af_answer_split(arg)
                if split is not None:
                    return _reassociate(call, *split, True)
            elif is_af_answer(arg):  # only the outer layer (lam y. a) e moves; a is reused
                return _reassociate(call, (LamF(arg.fn.binder), ArgF(arg.arg)), arg.fn.body, False)
            stack.append(call)
            control = arg
        else:
            raise AssertionError(f"reduction reached {type(control).__name__}")


def _binder_at(stack: list, where: dict, name) -> Optional[int]:
    """``frames.binder_at``, first tried at where[name], the position of the
    last LamF pushed for name: if one still sits there it is the topmost.
    Derefs keep their calls, so the stack, and a scan, grow with the run."""
    i = where.get(name, len(stack))
    f = stack[i] if i < len(stack) else None
    if f.__class__ is LamF and f.binder == name:
        return i
    return binder_at(stack, name)


def _reassociate(boundary, layers: Frames, v: Term, modified: bool) -> tuple[str, Term]:
    """lift, lift', assoc and assoc': boundary, an ArgF or a BodF, goes in
    among the answer layers (innermost first) around v, under the outer
    layer only in the plain calculus and all the way in the modified one."""
    k = 0 if modified else len(layers) - 2
    inside = plug(layers[:k], v)
    if boundary.__class__ is ArgF:
        rule, t = (LIFT_MOD if modified else LIFT), App(inside, boundary.term)
    else:
        call = Lam(boundary.binder, plug(boundary.inner, Var(boundary.binder)))
        rule, t = (ASSOC_MOD if modified else ASSOC), App(call, inside)
    return rule, plug(layers[k:], t)


def _resolve_value(v: Term, stack: list, where: dict, modified: bool, supply: NameSupply):
    # consume answer layers: each is an ArgF directly under its LamF
    i = len(stack)
    while i >= 2 and isinstance(stack[i - 1], LamF) and isinstance(stack[i - 2], ArgF):
        i -= 2
    if i == 0:
        return None, v  # whole term is an answer
    layers = tuple(reversed(stack[i:]))
    boundary = stack[i - 1]
    del stack[i - 1 :]
    if layers:
        return _reassociate(boundary, layers, v, modified)
    assert isinstance(boundary, BodF), "application of a bare value cannot be a lift redex"
    if not modified:
        # argument reduced to a bare value: deref, the call back on the stack
        base = len(stack)
        stack += (ArgF(v), LamF(boundary.binder), *reversed(boundary.inner))
        pushed = enumerate(stack[base + 1 :], base + 1)
        where.update((f.binder, k) for k, f in pushed if f.__class__ is LamF)
        return DEREF, freshen(v, supply)
    call_body = plug(boundary.inner, Var(boundary.binder))
    return BETA_NEED_MOD, subst_normal(call_body, boundary.binder, v, supply)


def _step_from_root(t: Term, modified: bool, supply: Optional[NameSupply]):
    t, supply = normalized(t, "a standard step", supply)
    stack: list = []
    rule, new = _step(stack, {}, t, modified, supply)
    return None if rule is None else (rule, build((stack, new)))


def step_af(t: Term, supply: Optional[NameSupply] = None) -> Optional[tuple[str, Term]]:
    """One leftmost standard step of the plain calculus; absent on answers."""
    return _step_from_root(t, False, supply)


def step_afmod(t: Term, supply: Optional[NameSupply] = None) -> Optional[tuple[str, Term]]:
    """One standard step of the modified calculus; absent on answers."""
    return _step_from_root(t, True, supply)


def _drive(state: tuple[list, Term], supply: NameSupply, modified: bool):
    """Reduce a closed hygienic term, resuming each search at the last
    contraction site.  A state is (stack, term), plugging the term into
    the outermost-first stack gives the whole term.

    Yields (rule, state) per step and finally (None, state), the stack then
    holding the answer context around the value.  The stack is the
    driver's own and changes on resumption, so read it before asking for
    the next step.  Steps preserve closedness and hygiene: no re-check.
    """
    stack, control = state
    where: dict = {}
    while True:
        rule, control = _step(stack, where, control, modified, supply)
        yield rule, (stack, control)
        if rule is None:
            return


drive_af = partial(_drive, modified=False)
drive_afmod = partial(_drive, modified=True)


def eval_af(t: Term, fuel: int):
    return evaluate(t, fuel, drive_af, build, inject)


def eval_afmod(t: Term, fuel: int):
    return evaluate(t, fuel, drive_afmod, build, inject)


def step_name(t: Term, supply: Optional[NameSupply] = None) -> Optional[Term]:
    """One call-by-name step: leftmost-outermost beta, absent on values; t
    is normalized first (``results.normalized``), and may be open."""
    t, supply = normalized(t, "step_name", supply, closed=False)
    return _beta_name(t, supply)


def _beta_name(t: Term, supply: NameSupply) -> Optional[Term]:
    """step_name on a normalized t."""
    spine: list[App] = []
    c = t
    while isinstance(c, App):
        spine.append(c)
        c = c.fn
    if isinstance(c, Var):
        raise OpenTermError(f"head variable {c.name} is unbound")
    if not spine:
        return None
    redex_app = spine.pop()
    new = subst_normal(c.body, c.binder, redex_app.arg, supply)
    for node in reversed(spine):
        new = App(new, node.arg)
    return new


def drive_name(t: Term, supply: NameSupply):
    """Call-by-name from a closed hygienic term: ("beta", term) per step,
    then (None, value)."""
    while not isinstance(t, Lam):
        t = _beta_name(t, supply)
        yield "beta", t
    yield None, t


def eval_name(t: Term, fuel: int):
    """Call-by-name evaluation to a value."""
    return evaluate(t, fuel, drive_name)
