"""Exhaustive grammar-directed enumeration of decompositions.

This is the independent check for the frame-stack redex search: it
enumerates, straight off the context grammars and without any search
strategy, every way a term can be split as an answer or as an evaluation
context around a redex.  Distinct derivations of the same split are
collapsed by comparing rendered components, so the count measures
genuinely different decompositions.  Exponential in principle; meant for
terms of a dozen nodes or so.
"""
from __future__ import annotations

from typing import Iterator

from .frames import ArgF, BodF, Frames, LamF, context_term, is_answer_frames
from .need import Answer, NeedDecomposition, Redex
from .terms import App, Lam, Term, Var, alpha_eq, canon


def answer_splits(t: Term) -> list[tuple[Frames, Term]]:
    """All answer-grammar splits of t (at most one exists)."""
    out: list[tuple[Frames, Term]] = []
    if isinstance(t, Lam):
        out.append(((), t))
    if isinstance(t, App):
        for fn_frames, fn_value in answer_splits(t.fn):
            for body_frames, value in answer_splits(fn_value.body):
                frames = (
                    body_frames
                    + (LamF(fn_value.binder),)
                    + fn_frames
                    + (ArgF(t.arg),)
                )
                out.append((frames, value))
    return out


def _answer_holes(t: Term) -> Iterator[tuple[Frames, Term]]:
    """Answer-context paths: (frames, subterm at the hole)."""
    yield (), t
    if isinstance(t, App):
        for fn_frames, at_fn in _answer_holes(t.fn):
            if isinstance(at_fn, Lam):
                for body_frames, hole in _answer_holes(at_fn.body):
                    yield (
                        body_frames + (LamF(at_fn.binder),) + fn_frames + (ArgF(t.arg),),
                        hole,
                    )


def _outer_partial_holes(t: Term) -> Iterator[tuple[Frames, Term]]:
    yield (), t
    if isinstance(t, App):
        for a_frames, at_hole in _answer_holes(t.fn):
            for hat_frames, hole in _outer_partial_holes(at_hole):
                yield hat_frames + a_frames + (ArgF(t.arg),), hole


def _inner_partial_holes(t: Term) -> Iterator[tuple[Frames, Term]]:
    yield (), t
    for a_frames, at_hole in _answer_holes(t):
        if isinstance(at_hole, Lam):
            for chk_frames, hole in _inner_partial_holes(at_hole.body):
                yield chk_frames + (LamF(at_hole.binder),) + a_frames, hole


def _demanding_calls(t: Term) -> Iterator[tuple]:
    """Every call of t that demands its argument, per the grammar: (outer
    partial, binding, binder, inner partial, demand, argument), the binder's
    occurrence at the demand context's hole."""
    for hat_frames, at_hat in _outer_partial_holes(t):
        if not isinstance(at_hat, App):
            continue
        for a1_frames, at_a1 in _answer_holes(at_hat.fn):
            if not isinstance(at_a1, Lam):
                continue
            binder = at_a1.binder
            for chk_frames, at_chk in _inner_partial_holes(at_a1.body):
                if not is_answer_frames(chk_frames + hat_frames):
                    continue
                for dem_frames, leaf in eval_context_holes(at_chk):
                    if isinstance(leaf, Var) and leaf.name == binder:
                        yield hat_frames, a1_frames, binder, chk_frames, dem_frames, at_hat.arg


def eval_context_holes(t: Term) -> Iterator[tuple[Frames, Term]]:
    """Evaluation-context paths per the grammar, derivations not deduped."""
    yield (), t
    if isinstance(t, App):
        for frames, sub in eval_context_holes(t.fn):
            yield frames + (ArgF(t.arg),), sub
    for a_frames, at_hole in _answer_holes(t):
        if a_frames:
            for frames, sub in eval_context_holes(at_hole):
                yield frames + a_frames, sub
    for hat_frames, a1_frames, binder, chk_frames, dem_frames, arg in _demanding_calls(t):
        bod = BodF(binder, dem_frames + chk_frames, a1_frames)
        for frames, sub in eval_context_holes(arg):
            yield frames + (bod,) + hat_frames, sub


def redexes_at_root(t: Term, outer: Frames) -> Iterator[Redex]:
    """All ways t itself matches the redex pattern, t at the hole of outer."""
    for hat_frames, a1_frames, binder, chk_frames, dem_frames, arg in _demanding_calls(t):
        for a2_frames, value in answer_splits(arg):
            yield Redex(
                outer=outer,
                outer_partial=hat_frames,
                binding=a1_frames,
                binder=binder,
                inner_partial=chk_frames,
                demand=dem_frames,
                arg_context=a2_frames,
                value=value,
            )


def _redex_parts(r: Redex) -> Iterator[Term]:
    """A redex decomposition's seven terms: its contexts, then its value."""
    for frames in (r.outer, r.outer_partial, r.binding, r.inner_partial, r.demand, r.arg_context):
        yield context_term(frames)
    yield r.value


def _redex_key(r: Redex):
    return (r.binder.base, r.binder.index), *map(canon, _redex_parts(r))


def _answer_key(frames: Frames, value: Term):
    return canon(context_term(frames)), canon(value)


def enumerate_decompositions(t: Term) -> tuple[dict, dict]:
    """All distinct decompositions: (answer splits, redex decompositions),
    each a dict from a decomposition's canonical key to one derivation.

    Redexes are keyed by the canonical forms of all eight components;
    answers by the context and value.
    """
    answers = {}
    for frames, value in answer_splits(t):
        answers[_answer_key(frames, value)] = (frames, value)
    redexes = {}
    for frames, sub in eval_context_holes(t):
        for r in redexes_at_root(sub, frames):
            redexes[_redex_key(r)] = r
    return answers, redexes


def decomposition_matches(d: NeedDecomposition, answers: dict, redexes: dict) -> bool:
    """Does the search result appear in the oracle's enumeration?  Takes
    the dicts of enumerate_decompositions and compares d with each stored
    derivation of its kind, component by component, by alpha_eq (and the
    binder by name); d is never keyed."""
    if isinstance(d, Answer):
        return any(
            alpha_eq(context_term(d.context.frames), context_term(frames))
            and alpha_eq(d.value, value)
            for frames, value in answers.values()
        )
    return any(
        d.binder == r.binder and all(map(alpha_eq, _redex_parts(d), _redex_parts(r)))
        for r in redexes.values()
    )
