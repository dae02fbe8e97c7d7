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
grammars.  The contexts the search builds are in the grammars by
construction, so it re-checks none of them; the exhaustive grammar
enumerator in needlab.oracle serves as its independent check.

The axiom keeps the redex's outer context and its demand context around
the value, so the standard reduction refocuses (Danvy and Nielsen; Danvy
and Zerny): ``drive`` substitutes into the demand frames themselves and
resumes the search at the copy in the demanded hole.  Its (stack, term)
states are plugged only for the answer and printed from the stack;
step_sr is the one-shot step from the root.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from .frames import (
    ArgF,
    BodF,
    LamF,
    binder_at,
    build,
    context_term,
    inject,
    is_answer_frames,
    plug,
    split_inner_partial,
    split_outer_partial,
    subst_plug,
)
from .results import LabeledTermError, evaluate, normalized
from .terms import (
    App,
    Frozen,
    Labeled,
    Lam,
    NameSupply,
    Term,
    Var,
    _copies,
    canon,
    subst_normal,
)


class AnswerContext(Frozen, frames=()):
    """Nesting of binder/argument layers; plugging a value yields an answer."""

    __slots__ = ("frames",)

    def to_term(self) -> Term:
        return context_term(self.frames)


class Answer(Frozen):
    __slots__ = ("context", "value")


class Redex(Frozen):
    """One beta-need redex under an outer evaluation context.

    The redex itself is outer_partial[(binding[lam binder. inner_partial[
    demand[binder]]]) arg_context[value]]; plugging it into `outer`
    reconstructs the decomposed term.
    """

    __slots__ = (
        "outer",
        "outer_partial",
        "binding",
        "binder",
        "inner_partial",
        "demand",
        "arg_context",
        "value",
    )

    def redex_term(self) -> Term:
        call = BodF(self.binder, self.demand + self.inner_partial, self.binding)
        return plug(self.arg_context + (call,) + self.outer_partial, self.value)

    def whole_term(self) -> Term:
        return plug(self.outer, self.redex_term())


NeedDecomposition = Union[Answer, Redex]


def is_answer(t: Term) -> Optional[tuple[AnswerContext, Term]]:
    """The unique answer split of t, if t matches the answer grammar.

    The walk goes down operators and, while an argument is pending, into
    a binder's body; an answer ends on a value with none pending."""
    stack: list = []  # outermost first
    pending = 0
    while True:
        if isinstance(t, App):
            stack.append(ArgF(t.arg))
            pending += 1
            t = t.fn
        elif isinstance(t, Lam) and pending:
            stack.append(LamF(t.binder))
            pending -= 1
            t = t.body
        elif isinstance(t, Lam):
            return AnswerContext(tuple(reversed(stack))), t
        else:
            return None


def _search(t: Term, stack: Optional[list] = None) -> Optional[NeedDecomposition]:
    """Frame-stack redex search of plug(stack, t), growing and cutting the
    stack in place; it holds frames outermost-first, as an earlier search
    left them, and is empty by default.  None at a free variable or at a
    node that is not App, Lam or Var.

    The frames it pushes are in the context grammars by construction (the
    unique-decomposition property), so it checks none of them; the splits
    at a redex only compute its fields.  `bal` tracks the argument/binder
    balance of the stack region above the innermost BodF, so the descend
    decision is O(1) per lambda.
    """
    control, bal = t, 0
    stack = [] if stack is None else stack
    for f in reversed(stack):
        if isinstance(f, BodF):
            break
        bal += 1 if isinstance(f, ArgF) else -1
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
            for bod_at in range(len(stack) - 1, -1, -1):
                if isinstance(stack[bod_at], BodF):
                    break
            else:
                return Answer(AnswerContext(tuple(reversed(stack))), control)
            bod = stack[bod_at]
            demand, inner_partial, open_count = split_inner_partial(bod.inner)
            outer_partial, outer = split_outer_partial(
                tuple(reversed(stack[:bod_at])), open_count
            )
            return Redex(
                outer=outer,
                outer_partial=outer_partial,
                binding=bod.between,
                binder=bod.binder,
                inner_partial=inner_partial,
                demand=demand,
                arg_context=tuple(reversed(stack[bod_at + 1 :])),
                value=control,
            )
        elif isinstance(control, Var):
            name = control.name
            lam_at = binder_at(stack, name)
            if lam_at is None:
                return None
            depth = 0
            for arg_at in range(lam_at - 1, -1, -1):  # out to the binder's argument
                if isinstance(stack[arg_at], LamF):
                    depth += 1
                elif depth == 0:
                    break
                else:
                    depth -= 1
            inner = tuple(reversed(stack[lam_at + 1 :]))
            between = tuple(reversed(stack[arg_at + 1 : lam_at]))
            argument = stack[arg_at].term
            del stack[arg_at:]
            stack.append(BodF(name, inner, between))
            bal = 0
            control = argument
        else:
            return None


def decompose(t: Term) -> NeedDecomposition:
    """Unique decomposition of a closed unlabeled term, normalized first
    (``results.normalized``): answer or redex-in-context."""
    return _search(normalized(t, "decompose")[0])


def _contractum(r: Redex, supply: NameSupply) -> Term:
    """The axiom's right-hand side: substitute the value for the binder,
    drop the call, and hoist the argument's bindings."""
    body = plug(r.demand + r.inner_partial, Var(r.binder))
    core = subst_normal(body, r.binder, r.value, supply)
    return plug(r.arg_context + r.binding + r.outer_partial, core)


def contract(r: Redex, supply: Optional[NameSupply] = None) -> Term:
    """The whole reduct: the contractum plugged into the outer context.  r
    is a redex of a normalized term, as decompose gives, so the hoist
    captures nothing; without a supply, names are minted above the term's."""
    if supply is None:
        supply = NameSupply.for_term(r.whole_term())
    return plug(r.outer, _contractum(r, supply))


def step_sr(t: Term, supply: Optional[NameSupply] = None) -> Optional[Term]:
    """One standard-reduction step; absent iff t is an answer.  Without a
    supply, fresh names are minted above every name of t."""
    t, supply = normalized(t, "step_sr", supply)
    d = _search(t)  # decompose would normalize again
    if isinstance(d, Answer):
        return None
    return contract(d, supply)


def drive(state: tuple[list, Term], supply: NameSupply):
    """Standard reduction from (stack, term), a closed hygienic term
    plugged into an outermost-first stack: ("beta-need", state) per step,
    then (None, state), the stack then holding the answer context around
    the value.  Each step keeps the outer and outer partial frames, pushes
    new ones for the hoisted bindings and, substituted (``subst_plug``),
    the demand context, and resumes at the value's copy in the hole; the
    stack is the driver's own, so read it before asking for the next step.
    Steps preserve closedness, so the search runs without decompose's check."""
    stack, t = state
    while not isinstance(d := _search(t, stack), Answer):
        del stack[len(d.outer) + len(d.outer_partial) :]
        hoisted = reversed(d.arg_context + d.binding)  # answer contexts: no BodF
        stack += (ArgF(f.term) if f.__class__ is ArgF else LamF(f.binder) for f in hoisted)
        core, t = subst_plug(d.demand + d.inner_partial, d.binder, _copies(d.value, supply))
        stack += core
        yield "beta-need", (stack, t)
    yield None, (stack, d.value)


def eval_sr(t: Term, fuel: int):
    """Iterate the standard reduction at most fuel times."""
    return evaluate(t, fuel, drive, build, inject)


class Partition(Frozen):
    """An answer context split around one binder/argument pair."""

    __slots__ = ("outer", "mid", "inner", "binder", "argument")

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


def _positions(t: Term) -> Iterator[tuple[list, Term]]:
    """(path, node) per application of t, in preorder; the path is the
    walk's own list of steps, valid until the next item."""
    path: list = []
    stack = [(t, 0, ())]  # a node, the length of its parent's path, its step
    while stack:
        node, depth, step = stack.pop()
        path[depth:] = step
        depth = len(path)
        if node.__class__ is App:
            yield path, node
            stack.append((node.arg, depth, ("a",)))
            stack.append((node.fn, depth, ("f",)))
        elif node.__class__ is Lam:
            stack.append((node.body, depth, ("b",)))
        elif node.__class__ is Labeled:
            raise LabeledTermError("compatible_reducts reads unlabeled terms only")


def _replace_at(t: Term, path: Sequence[str], new: Term) -> Term:
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
    d = _search(t)
    if isinstance(d, Redex) and not d.outer:
        return d
    return None


def compatible_reducts(t: Term, supply: Optional[NameSupply] = None) -> list[Term]:
    """All one-step contractions at any subterm position, deduped by alpha.

    Only applications are tried: at an abstraction the search finds an
    answer and at a variable it fails, so neither is a redex.  t is
    normalized at its first redex, and the search restarts on the renamed
    term if that renamed anything.  Labeled input is rejected."""
    seen = set()
    out = []
    for path, sub in _positions(t):
        r = redex_at_root(sub)
        if r is None:
            continue
        if not seen:  # the first redex
            renamed, supply = normalized(t, "compatible_reducts", supply, closed=False)
            if renamed is not t:
                return compatible_reducts(renamed, supply)
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
