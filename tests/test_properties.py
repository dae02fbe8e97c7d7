"""Property suites over generated and enumerated corpora."""
from hypothesis import given, settings
from hypothesis import strategies as st

from needlab.frames import context_term, is_answer_frames, plug, subst_plug
from needlab.gen import enumerate_closed, gen_closed
from needlab.harness import answer_value
from needlab.need import (
    Answer,
    Redex,
    _search,
    compatible_reducts,
    decompose,
    eval_sr,
    is_answer,
    partitions,
    step_sr,
)
from needlab.oracle import decomposition_matches, enumerate_decompositions
from needlab.results import Done
from needlab.syntax import parse, print_term
from needlab.terms import (
    NameSupply,
    Var,
    _copies,
    alpha_eq,
    canon,
    free_vars,
    freshen,
    hygienize,
    is_closed,
    is_hygienic,
    subst,
    subst_normal,
    subterms,
    term_eq,
)

seeds = st.integers(min_value=0, max_value=10**6)
sizes = st.integers(min_value=2, max_value=20)


@given(seeds, sizes)
@settings(max_examples=150, deadline=None)
def test_roundtrip_print_parse(seed, size):
    t = gen_closed(seed, size)
    assert term_eq(parse(print_term(t)), t)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_roundtrip_after_reduction_with_fresh_names(seed):
    t = gen_closed(seed, 14)
    r = eval_sr(t, 40)
    if isinstance(r, Done):
        assert term_eq(parse(print_term(r.answer)), r.answer)


@given(seeds, seeds)
@settings(max_examples=100, deadline=None)
def test_subst_safety(seed1, seed2):
    # strip binders off a closed term to expose genuinely free variables
    from needlab.terms import Lam

    t = gen_closed(seed1, 14)
    while isinstance(t, Lam):
        t = t.body
    s = gen_closed(seed2, 8)
    for x in free_vars(t):
        out = subst(t, x, s)
        assert free_vars(out) <= (free_vars(t) - {x}) | free_vars(s)
        assert x not in free_vars(out)


@given(seeds, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_subst_normal_agrees_with_subst_on_normalized_input(seed, pick):
    # in a closed hygienic term w, substitute for the binder x of an
    # abstraction \x.t any subterm s that neither holds nor lies in it: no
    # binder of t is x or free in s, and s's binders are not t's
    from needlab.terms import Lam

    w = hygienize(gen_closed(seed, 16))
    nodes = list(subterms(w))
    inside = {id(n): {id(m) for m in subterms(n)} for n in nodes}
    pairs = [
        (lam, s)
        for lam in nodes
        if isinstance(lam, Lam)
        for s in nodes
        if id(s) not in inside[id(lam)] and id(lam) not in inside[id(s)]
    ]
    if not pairs:
        return
    lam, s = pairs[pick % len(pairs)]
    general, normal = NameSupply.for_term(w), NameSupply.for_term(w)
    want = subst(lam.body, lam.binder, s, general)
    got = subst_normal(lam.body, lam.binder, s, normal)
    assert term_eq(got, want) and normal._next == general._next


@given(seeds, sizes)
@settings(max_examples=100, deadline=None)
def test_subst_plug_copies_as_subst_normal_does(seed, size):
    # at each redex of a standard reduction, substituting into the demand
    # frames and plugging them around the hole's copy gives subst_normal of
    # the plugged body, fresh names included, and mints as many names; the
    # frames returned are new objects
    t = hygienize(gen_closed(seed, size))
    supply = NameSupply.for_term(t)
    for _ in range(60):
        d = _search(t)
        if isinstance(d, Answer):
            return
        frames = d.demand + d.inner_partial
        body = plug(frames, Var(d.binder))
        plugged, normal = NameSupply(supply._next), NameSupply(supply._next)
        new, hole = subst_plug(frames, d.binder, _copies(d.value, plugged))
        want = subst_normal(body, d.binder, d.value, normal)
        assert term_eq(plug(tuple(reversed(new)), hole), want), print_term(t)
        assert plugged._next == normal._next
        assert not {id(f) for f in new} & {id(f) for f in frames}
        t = step_sr(t, supply)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_alpha_eq_invariant_under_freshening(seed):
    t = gen_closed(seed, 14)
    f = freshen(t, NameSupply.for_term(t))
    assert alpha_eq(t, f)
    assert canon(t) == canon(f)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_step_preserves_closedness_and_hygiene(seed):
    t = hygienize(gen_closed(seed, 14))
    for _ in range(25):
        n = step_sr(t)
        if n is None:
            return
        assert is_closed(n)
        assert is_hygienic(n)
        t = n


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_standard_step_is_a_compatible_reduct(seed):
    t = hygienize(gen_closed(seed, 12))
    n = step_sr(t)
    if n is None:
        return
    assert canon(n) in {canon(r) for r in compatible_reducts(t)}


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_answer_redex_dichotomy(seed):
    t = hygienize(gen_closed(seed, 14))
    d = decompose(t)
    split = is_answer(t)
    assert isinstance(d, Answer) == (split is not None)
    if isinstance(d, Redex):
        assert term_eq(d.whole_term(), t)


def test_uniqueness_against_oracle_exhaustive():
    for t in enumerate_closed(7):
        answers, redexes = enumerate_decompositions(t)
        assert len(answers) + len(redexes) == 1, print_term(t)
        assert decomposition_matches(decompose(t), answers, redexes)


def test_oracle_match_checks_the_value():
    # a search result that differs from the oracle's only in its value
    # must not match
    values = parse(r"\a.a"), parse(r"\a.\b.a")
    kinds = set()
    for t in enumerate_closed(7):
        answers, redexes = enumerate_decompositions(t)
        d = decompose(t)
        other = next(v for v in values if canon(v) != canon(d.value))
        if isinstance(d, Answer):
            doctored = Answer(d.context, other)
        else:
            fields = {f: getattr(d, f) for f in Redex.__slots__}
            doctored = Redex(**{**fields, "value": other})
        assert not decomposition_matches(doctored, answers, redexes), print_term(t)
        kinds.add(type(d))
    assert kinds == {Answer, Redex}


def test_partition_soundness_on_enumerated_answers():
    seen = 0
    for t in enumerate_closed(7):
        split = is_answer(t)
        if split is None or not split[0].frames:
            continue
        seen += 1
        ctx = split[0]
        for _, p in partitions(ctx):
            assert term_eq(p.recompose().to_term(), ctx.to_term())
            assert is_answer_frames(p.inner + p.outer)
    assert seen > 0


def test_joinability_on_random_multi_redex_terms():
    # the exhaustive audit at small sizes has no terms with two distinct
    # reducts; random larger terms supply real pairs
    from needlab.need import joinable

    cache: dict = {}
    pairs = 0
    for seed in range(400):
        t = hygienize(gen_closed(seed, 16))
        reducts = compatible_reducts(t)
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                pairs += 1
                assert joinable(reducts[i], reducts[j], 10, _cache=cache), print_term(t)
    assert pairs > 0


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_determinism_of_standard_reduction(seed):
    t = gen_closed(seed, 14)
    a = eval_sr(t, 60)
    b = eval_sr(t, 60)
    assert type(a) is type(b)
    if isinstance(a, Done):
        assert a.steps == b.steps
        assert term_eq(a.answer, b.answer)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_evaluators_agree(seed):
    from needlab.af import eval_af, eval_afmod, eval_name
    from needlab.ck import eval_ck
    from needlab.ckh import eval_ckh
    from needlab.lstep import eval_lstep

    t = gen_closed(seed, 14)
    results = {
        "need-sr": eval_sr(t, 400),
        "af": eval_af(t, 400),
        "af-mod": eval_afmod(t, 400),
        "name": eval_name(t, 400),
        "ck": eval_ck(t, 400),
        "ckh": eval_ckh(t, 400),
        "lstep": eval_lstep(t, 400),
    }
    dones = {m: r for m, r in results.items() if isinstance(r, Done)}
    if len(dones) == len(results):
        # values must agree across the sharing machines; call-by-name only
        # has to agree on the verdict
        values = {canon(answer_value(m, r)) for m, r in dones.items() if m != "name"}
        assert len(values) == 1
