"""The single-axiom call-by-need calculus and its standard reduction.

A closed term either is an answer (a value wrapped in an answer context)
or splits uniquely into an evaluation context and one redex.  The redex
carries seven components: the outer partial answer context, the answer
context between the demanded binder and its argument, the binder itself,
the inner partial answer context and demand context inside the binder's
body, and the argument's own answer split.  Contracting substitutes the
argument's value for every occurrence of the binder, discards the
function call, and hoists the argument's bindings above the result.

The decomposition is found by a frame-stack search (the same walk the CK
transition system performs), not by backtracking over the context
grammars; the exhaustive grammar enumerator in needlab.oracle serves as
its independent check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .frames import (
    ArgF,
    BodF,
    Frames,
    LamF,
    context_term,
    is_answer_frames,
    plug,
    split_inner_partial,
    split_outer_partial,
)
from .results import evaluate
from .terms import (
    App,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    Var,
    canon,
    hygienize,
    is_closed,
    subst,
)


def is_value(t: Term) -> bool:
    return isinstance(t, Lam)


@dataclass(frozen=True, eq=False)
class AnswerContext:
    """Nesting of binder/argument layers; plugging a value yields an answer."""

    frames: Frames = ()

    def to_term(self) -> Term:
        return context_term(self.frames)


@dataclass(frozen=True, eq=False)
class Answer:
    context: AnswerContext
    value: Term


@dataclass(frozen=True, eq=False)
class Redex:
    """One beta-need redex under an outer evaluation context.

    The redex itself is outer_partial[(binding[lam binder. inner_partial[
    demand[binder]]]) arg_context[value]]; plugging it into `outer`
    reconstructs the decomposed term.
    """

    outer: Frames
    outer_partial: Frames
    binding: Frames
    binder: Name
    inner_partial: Frames
    demand: Frames
    arg_context: Frames
    value: Term

    def redex_term(self) -> Term:
        body = plug(self.demand, Var(self.binder))
        fn = plug(self.binding, Lam(self.binder, plug(self.inner_partial, body)))
        arg = plug(self.arg_context, self.value)
        return plug(self.outer_partial, App(fn, arg))

    def whole_term(self) -> Term:
        return plug(self.outer, self.redex_term())


NeedDecomposition = Union[Answer, Redex]


def is_answer(t: Term) -> Optional[tuple[AnswerContext, Term]]:
    """The unique answer split of t, if t matches the answer grammar."""
    ENTER, EXIT_FN, EXIT_BODY = 0, 1, 2
    work: list = [(ENTER, t, None)]
    results: list = []
    while work:
        phase, node, extra = work.pop()
        if phase == ENTER:
            if isinstance(node, Lam):
                results.append(((), node))
            elif isinstance(node, App):
                work.append((EXIT_FN, node, None))
                work.append((ENTER, node.fn, None))
            else:
                results.append(None)
        elif phase == EXIT_FN:
            split = results.pop()
            if split is None:
                results.append(None)
            else:
                fn_frames, fn_value = split
                work.append((EXIT_BODY, node, (fn_frames, fn_value)))
                work.append((ENTER, fn_value.body, None))
        else:
            split = results.pop()
            if split is None:
                results.append(None)
            else:
                fn_frames, fn_value = extra
                body_frames, value = split
                frames = body_frames + (LamF(fn_value.binder),) + fn_frames + (ArgF(node.arg),)
                results.append((frames, value))
    split = results[0]
    if split is None:
        return None
    return AnswerContext(split[0]), split[1]


class IllFormedTerm(AssertionError):
    """The redex search hit a state the grammars rule out; for closed
    hygienic inputs this is unreachable."""


def _search(t: Term, strict: bool) -> Optional[NeedDecomposition]:
    """Frame-stack redex search; stack holds frames outermost-first.

    `bal` tracks the argument/binder balance of the stack region above the
    innermost BodF, so the descend decision is O(1) per lambda.
    """

    def fail(msg: str):
        if strict:
            raise IllFormedTerm(msg)
        return None

    control = t
    stack: list = []
    bal = 0
    while True:
        if isinstance(control, App):
            stack.append(ArgF(control.arg))
            bal += 1
            control = control.fn
        elif isinstance(control, Lam) and bal > 0:
            stack.append(LamF(control.binder))
            bal -= 1
            control = control.body
        elif isinstance(control, Lam):
            # value with no pending argument: answer or completed redex
            bod_at = None
            for i in range(len(stack) - 1, -1, -1):
                if isinstance(stack[i], BodF):
                    bod_at = i
                    break
            if bod_at is None:
                frames = tuple(reversed(stack))
                if not is_answer_frames(frames):
                    return fail("value context is not an answer context")
                return Answer(AnswerContext(frames), control)
            arg_frames = tuple(reversed(stack[bod_at + 1 :]))
            if not is_answer_frames(arg_frames):
                return fail("argument context is not an answer context")
            bod = stack[bod_at]
            demand_split = split_inner_partial(bod.inner)
            if demand_split is None:
                return fail("body context fails the demand grammar")
            demand, inner_partial, open_count = demand_split
            outer_frames = tuple(reversed(stack[:bod_at]))
            outer_split = split_outer_partial(outer_frames, open_count)
            if outer_split is None:
                return fail("outer context fails the partial-answer split")
            outer_partial, outer = outer_split
            return Redex(
                outer=outer,
                outer_partial=outer_partial,
                binding=bod.between,
                binder=bod.binder,
                inner_partial=inner_partial,
                demand=demand,
                arg_context=arg_frames,
                value=control,
            )
        elif isinstance(control, Var):
            name = control.name
            lam_at = None
            for j in range(len(stack) - 1, -1, -1):
                f = stack[j]
                if isinstance(f, LamF) and f.binder == name:
                    lam_at = j
                    break
            if lam_at is None:
                return fail(f"demanded variable {name} is unbound")
            depth = 0
            arg_at = None
            for i in range(lam_at - 1, -1, -1):
                f = stack[i]
                if isinstance(f, BodF):
                    break
                if isinstance(f, LamF):
                    depth += 1
                elif depth == 0:
                    arg_at = i
                    break
                else:
                    depth -= 1
            if arg_at is None:
                return fail(f"binder {name} has no matching argument")
            inner = tuple(reversed(stack[lam_at + 1 :]))
            between = tuple(reversed(stack[arg_at + 1 : lam_at]))
            if not is_answer_frames(between):
                return fail("context between binder and argument not an answer context")
            if split_inner_partial(inner) is None:
                return fail("context around demanded variable fails the grammar")
            argument = stack[arg_at].term
            del stack[arg_at:]
            stack.append(BodF(name, inner, between))
            bal = 0
            control = argument
        else:
            return fail(f"search reached {type(control).__name__}")


def decompose(t: Term) -> NeedDecomposition:
    """Unique decomposition of a closed term: answer or redex-in-context."""
    if not is_closed(t):
        raise OpenTermError("decompose requires a closed term")
    d = _search(t, strict=True)
    assert d is not None
    return d


def contract(r: Redex, supply: Optional[NameSupply] = None) -> Term:
    """Right-hand side of the axiom: substitute the value for the binder,
    drop the call, and hoist the argument's bindings."""
    if supply is None:
        supply = NameSupply.for_term(r.whole_term())
    body = plug(r.demand + r.inner_partial, Var(r.binder))
    core = subst(body, r.binder, r.value, supply)
    wrap = r.arg_context + r.binding + r.outer_partial + r.outer
    return plug(wrap, core)


def step_sr(t: Term, supply: Optional[NameSupply] = None) -> Optional[Term]:
    """One standard-reduction step; absent iff t is an answer."""
    if not is_closed(t):
        raise OpenTermError("step_sr requires a closed term")
    t = hygienize(t, supply)
    d = _search(t, strict=True)  # decompose would re-check closedness
    if isinstance(d, Answer):
        return None
    return contract(d, supply)


def drive(t: Term, supply: NameSupply):
    """Standard reduction from a closed hygienic term: ("beta-need", term)
    per step, then (None, answer).  Steps preserve closedness, so the
    search runs without decompose's check."""
    while not isinstance(d := _search(t, strict=True), Answer):
        t = contract(d, supply)
        yield "beta-need", t
    yield None, t


def eval_sr(t: Term, fuel: int):
    """Iterate the standard reduction at most fuel times."""
    return evaluate(t, fuel, drive)


@dataclass(frozen=True, eq=False)
class Partition:
    """An answer context split around one binder/argument pair."""

    outer: Frames
    mid: AnswerContext
    inner: Frames
    binder: Name
    argument: Term

    def recompose(self) -> AnswerContext:
        frames = (
            self.inner
            + (LamF(self.binder),)
            + self.mid.frames
            + (ArgF(self.argument),)
            + self.outer
        )
        return AnswerContext(frames)

    def composite_is_answer(self) -> bool:
        return is_answer_frames(self.inner + self.outer)


def partitions(a: AnswerContext) -> list[tuple[int, Partition]]:
    """One Partition per binder/argument layer, outermost binder first."""
    frames = a.frames
    if not is_answer_frames(frames):
        raise ValueError("partitions requires an answer context")
    pairs: list[tuple[int, int]] = []
    opens: list[int] = []
    for i, f in enumerate(frames):
        if isinstance(f, LamF):
            opens.append(i)
        elif isinstance(f, ArgF):
            pairs.append((opens.pop(), i))
    pairs.sort(key=lambda p: -p[0])
    out = []
    for idx, (lam_at, arg_at) in enumerate(pairs):
        out.append(
            (
                idx,
                Partition(
                    outer=frames[arg_at + 1 :],
                    mid=AnswerContext(frames[lam_at + 1 : arg_at]),
                    inner=frames[:lam_at],
                    binder=frames[lam_at].binder,
                    argument=frames[arg_at].term,
                ),
            )
        )
    return out


def _positions(t: Term) -> Iterator[tuple[tuple, Term]]:
    stack = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Lam):
            stack.append((path + ("b",), node.body))
        elif isinstance(node, App):
            stack.append((path + ("a",), node.arg))
            stack.append((path + ("f",), node.fn))


def _replace_at(t: Term, path: tuple, new: Term) -> Term:
    if not path:
        return new
    spine = [t]
    for step in path[:-1]:
        node = spine[-1]
        spine.append(node.body if step == "b" else node.fn if step == "f" else node.arg)
    current = new
    for step, node in zip(reversed(path), reversed(spine)):
        if step == "b":
            current = Lam(node.binder, current)
        elif step == "f":
            current = App(current, node.arg)
        else:
            current = App(node.fn, current)
    return current


def redex_at_root(t: Term) -> Optional[Redex]:
    """The beta-need redex the term itself forms, if it is one."""
    d = _search(t, strict=False)
    if isinstance(d, Redex) and not d.outer:
        return d
    return None


def compatible_reducts(t: Term, supply: Optional[NameSupply] = None) -> list[Term]:
    """All one-step contractions at any subterm position, deduped by alpha."""
    if supply is None:
        supply = NameSupply.for_term(t)
    seen = set()
    out = []
    for path, sub in _positions(t):
        r = redex_at_root(sub)
        if r is None:
            continue
        reduct = _replace_at(t, path, contract(r, supply))
        key = canon(reduct)
        if key not in seen:
            seen.add(key)
            out.append(reduct)
    return out


def joinable(t1: Term, t2: Term, k: int, _cache: Optional[dict] = None) -> bool:
    """Breadth-first joinability within k compatible steps on each side."""
    cache = {} if _cache is None else _cache

    def reducts(term: Term) -> list[Term]:
        key = canon(term)
        if key not in cache:
            cache[key] = compatible_reducts(term)
        return cache[key]

    seen1 = {canon(t1)}
    seen2 = {canon(t2)}
    front1, front2 = [t1], [t2]
    if seen1 & seen2:
        return True
    for _ in range(k):
        grew = False
        for seen, front in ((seen1, front1), (seen2, front2)):
            new = []
            for term in front:
                for r in reducts(term):
                    key = canon(r)
                    if key not in seen:
                        seen.add(key)
                        new.append(r)
            front[:] = new
            grew = grew or bool(new)
        if seen1 & seen2:
            return True
        if not grew:
            return False
    return bool(seen1 & seen2)
