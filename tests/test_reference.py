"""Launchbury's natural semantics as an independent check of need-sr and
call-by-name.

``bench/reference.py`` reads needlab terms as de Bruijn tuples and evaluates
them with code of its own: ``eval_lazy`` runs Launchbury's natural
semantics as a heap machine with update frames, and ``eval_name`` runs
leftmost-outermost beta steps.  It imports nothing from needlab, so it
shares no substitution, hygiene or search code with the machines it checks,
and a defect in code that all of them share (which criterion 8's
cross-check between machines cannot see) shows here.

The paper establishes a correspondence between its semantics and
Launchbury's.  The step-count check below is narrower and is an observed
invariant, not a theorem quoted from the paper: on every term here that
terminates, need-sr takes one beta-need step for each thunk that
``eval_lazy`` forces for the first time.  The answers agree as closed
values in de Bruijn form.
"""
import importlib.util
from pathlib import Path

import pytest

from needlab import af, need
from needlab.gen import enumerate_closed, gen_closed
from needlab.harness import answer_value
from needlab.results import Done
from needlab.syntax import parse

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: The bench programs that need no prelude, and need-sr's steps on each.
PROGRAM_STEPS = {
    "add-succ": 93,
    "mul-add": 53,
    "sub-pred": 34,
    "shared-numeral": 102,
    "shared-boolean": 33,
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ref():
    return _load("reference")


def _outcome(ref, machine, r):
    """(done, steps, de Bruijn value or None) of one needlab run."""
    if isinstance(r, Done):
        return True, r.steps, ref.to_db(answer_value(machine, r))
    return False, r.steps, None


def _check_need(ref, t, db, fuel) -> tuple[bool, bool]:
    """need-sr against eval_lazy on t: (they agree, eval_lazy is done).
    A run that times out has taken fuel steps; eval_lazy stops at the first
    forcing past fuel."""
    done, forced, value = ref.eval_lazy(db, fuel)
    lazy = (done, forced if done else fuel, value)
    return _outcome(ref, "need-sr", need.eval_sr(t, fuel)) == lazy, done


def test_need_and_name_agree_with_the_reference_on_the_corpus(ref):
    done = 0
    for i in range(1000):
        t = gen_closed(42 + i, 25)
        db = ref.to_db(t)
        agrees, finished = _check_need(ref, t, db, 2000)
        assert agrees, f"call-by-need on corpus term {i}"
        name = _outcome(ref, "name", af.eval_name(t, 2000))
        assert name == ref.eval_name(db, 2000), f"call-by-name on corpus term {i}"
        done += finished
    assert (done, 1000 - done) == (985, 15)


def test_need_agrees_with_launchbury_on_every_small_term(ref):
    done = terms = 0
    for t in enumerate_closed(10):
        agrees, finished = _check_need(ref, t, ref.to_db(t), 200)
        assert agrees, f"call-by-need on small term {terms}"
        done += finished
        terms += 1
    assert (terms, done, terms - done) == (10180, 10179, 1)


def test_need_agrees_with_launchbury_on_the_bench_programs(ref):
    programs = _load("programs")
    steps = {}
    for name, tree in programs.PROGRAMS:
        if name not in PROGRAM_STEPS:
            continue  # it reads the prelude's free cons, car and cdr
        t = parse(programs.source(tree))
        db = ref.to_db(t)
        agrees, done = _check_need(ref, t, db, 10_000)
        assert agrees and done, name
        _, steps[name], value = ref.eval_lazy(db, 10_000)
        assert value == ref.parse_db(r"\t.\f.t" if programs.expected(tree) else r"\t.\f.f")
    assert steps == PROGRAM_STEPS
