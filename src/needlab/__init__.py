"""needlab: a workbench for the single-axiom call-by-need lambda calculus.

Seven interchangeable semantics over one term language (the by-need
standard reduction, the classical call-by-need calculus and its modified
variant, call-by-name, a CK transition system, a heap-based store
machine, and a labeled parallel rewriting system), plus the mapping
functions between them and a differential-testing harness that checks
their agreement per step and per program.
"""

from .results import Done, LabeledTermError, Timeout
from .syntax import ParseError, parse, print_term
from .terms import (
    HOLE,
    App,
    Labeled,
    Lam,
    Name,
    NameSupply,
    OpenTermError,
    Term,
    Var,
    alpha_eq,
    canon,
    erase,
    free_vars,
    hygienize,
    is_closed,
    is_hygienic,
    subst,
    term_eq,
    term_size,
)

__all__ = [
    "App",
    "Done",
    "HOLE",
    "Labeled",
    "LabeledTermError",
    "Lam",
    "Name",
    "NameSupply",
    "OpenTermError",
    "ParseError",
    "Term",
    "Timeout",
    "Var",
    "alpha_eq",
    "canon",
    "erase",
    "free_vars",
    "hygienize",
    "is_closed",
    "is_hygienic",
    "parse",
    "print_term",
    "subst",
    "term_eq",
    "term_size",
]
