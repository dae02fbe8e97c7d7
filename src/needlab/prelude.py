"""Church-style lazy pair constructors, available as parse-time bindings.

cons builds a pair closure, car and cdr project; arguments stay
unevaluated until a projection demands them, which is the laziness
witness the tests pin down (taking cdr of a pair whose first component
diverges still terminates).
"""
from __future__ import annotations

from .syntax import parse
from .terms import Frozen, Name, Term, free_vars, subst


class PreludeBinding(Frozen):
    __slots__ = ("name", "expansion")


CONS = PreludeBinding(Name("cons"), parse(r"\x.\y.\s.s x y"))
CAR = PreludeBinding(Name("car"), parse(r"\p.p (\x.\y.x)"))
CDR = PreludeBinding(Name("cdr"), parse(r"\p.p (\x.\y.y)"))

PRELUDE = (CONS, CAR, CDR)


def expand_prelude(t: Term) -> Term:
    """Substitute the closed expansions for free cons/car/cdr occurrences."""
    free = free_vars(t)
    for binding in PRELUDE:
        if binding.name in free:
            t = subst(t, binding.name, binding.expansion)
    return t
