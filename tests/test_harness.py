import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import needlab
from needlab import af, ck, ckh, harness, lstep, need, oracle, results, terms
from needlab.cli import main as cli_main
from needlab.frames import build as build_stack
from needlab.frames import context_term, plug
from needlab.harness import (
    MACHINE_TABLE,
    MACHINES,
    SIM_PAIRS,
    SIM_TABLE,
    SimPair,
    _CKHPrinter,
    answer_value,
    check_confluence,
    check_simulation,
    check_unique_decomposition,
    close_answer_value,
    run_diff,
    run_eval,
    to_json_str,
)
from needlab.gen import enumerate_closed, gen_closed
from needlab.prelude import expand_prelude
from needlab.results import Done, LabeledTermError
from needlab.syntax import parse, print_term
from needlab.terms import (
    App,
    NameSupply,
    alpha_eq,
    hygienize,
    is_closed,
    is_hygienic,
    scan,
    strip_value_labels,
    subterms,
    term_eq,
)

T1 = r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)"
OMEGA = r"(\d.d d) (\d.d d)"
# 2 <= 3 on Church numerals, with pred built from the prelude's lazy pairs
LEQ = expand_prelude(
    parse(
        r"""
        (\zero. (\succ. (\pred. (\iszero. (\leq.
          leq (succ (succ zero)) (succ (succ (succ zero))))
          (\m.\n. iszero (n pred m)))
          (\n. n (\x.\t.\f.f) (\t.\f.t)))
          (\n. car (n (\p. cons (cdr p) (succ (cdr p))) (cons zero zero))))
          (\n.\s.\z. s (n s z)))
          (\s.\z.z)
        """
    )
)


def test_run_eval_need_trace():
    tr = run_eval(parse(T1), "need-sr", 100)
    assert tr.verdict == "done"
    assert len(tr.steps) == 5
    assert all(s.rule == "beta-need" for s in tr.steps)
    assert alpha_eq(parse(tr.answer), parse(r"\x.x"))
    assert all(s.mapped is None for s in tr.steps)


def test_run_eval_ckh_trace():
    tr = run_eval(parse(r"(\x.x) (\y.y)"), "ckh", 100)
    assert tr.verdict == "done"
    assert len(tr.steps) == 4
    assert [s.rule for s in tr.steps] == ["pusharg", "descend-lam", "lookupvar", "updateheap"]
    assert all(s.mapped is not None for s in tr.steps)


def test_run_eval_timeout_trace_has_fuel_steps():
    tr = run_eval(parse(OMEGA), "name", 10)
    assert tr.verdict == "timeout"
    assert len(tr.steps) == 10
    assert tr.answer is None


def test_trace_json_schema():
    tr = run_eval(parse(r"(\x.x) (\y.y)"), "ck", 50)
    payload = tr.to_json()
    assert set(payload) == {"machine", "fuel", "verdict", "steps", "answer"}
    assert payload["verdict"] == "done"
    for s in payload["steps"]:
        assert set(s) == {"rule", "term", "mapped"}
    json.loads(to_json_str(payload))


def test_close_answer_value():
    t = parse(r"(\x.\y.x) ((\a.a) (\b.b))")
    from needlab.need import eval_sr

    r = eval_sr(t, 100)
    v = close_answer_value(r.answer)
    assert alpha_eq(v, parse(r"\y.(\a.a) (\b.b)"))


def test_check_simulation_pairs():
    for pair in SIM_PAIRS:
        rep = check_simulation(parse(r"(\x.x) (\y.y)"), pair, 100)
        assert rep.ok and rep.completed
    rep = check_simulation(parse(T1), "ck-need", 200)
    assert rep.ok
    assert rep.rule_counts["beta-need-ck"] == 5  # one per standard step
    rep = check_simulation(parse(T1), "ck-lstep", 200)
    assert rep.ok
    rep = check_simulation(parse(T1), "ckh-lstep", 200)
    assert rep.ok


def test_ck_lstep_image_from_the_run_supply():
    # the image's labels come from the state's seed, a fork of the run's
    # supply; the image must be the one a supply seeded from the plugged
    # state gives, and the seed must end above every name it holds
    image = SIM_TABLE["ck-lstep"].images()
    states = 0
    for i in range(100):
        t = gen_closed(42 + i, 25)
        supply = NameSupply.for_term(t)
        state = ck.inject_ck(hygienize(t, supply))
        for n, (rule, state) in enumerate(ck.drive(state, supply)):
            seeded = ck.build_step_term(state, NameSupply.for_term(ck.build(state)))
            seed = supply.fork()
            m = image(state, seed)
            assert alpha_eq(m, strip_value_labels(seeded)), i
            assert seed.fork().fresh().index > scan(m).top, i
            states += 1
            if n == 300:
                break
    assert states > 500


def test_check_simulation_rejects_negative_fuel():
    for pair in SIM_PAIRS:
        with pytest.raises(ValueError):
            check_simulation(parse(T1), pair, -1)


def test_machine_and_pair_tables():
    assert tuple(MACHINE_TABLE) == MACHINES
    assert MACHINES == ("need-sr", "af", "af-mod", "name", "ck", "ckh", "lstep")
    assert tuple(SIM_TABLE) == SIM_PAIRS == ("ckh-lstep", "ck-need", "ck-lstep")
    assert {SIM_TABLE[p].source for p in SIM_PAIRS} == {"ck", "ckh"}


def test_run_diff_small_corpus():
    rep = run_diff(seed=7, count=60, max_size=12, fuel=300)
    assert rep.ok, rep.mismatches[:2]
    assert not rep.inconclusive
    assert len(rep.entries) == 60
    # verdict matrix is complete
    for e in rep.entries:
        assert set(e.verdicts) == set(MACHINES)


def test_run_diff_byte_identical_reports():
    a = to_json_str(run_diff(seed=3, count=15, max_size=10, fuel=200).to_json())
    b = to_json_str(run_diff(seed=3, count=15, max_size=10, fuel=200).to_json())
    assert a == b


def test_run_diff_that_compares_no_value_is_not_ok(capsys):
    # with no fuel every machine times out, so no term's values are compared
    rep = run_diff(seed=45, count=1, max_size=25, fuel=0)
    assert not rep.mismatches and [e.value for e in rep.entries] == [None]
    assert not rep.ok and rep.to_json()["ok"] is False
    assert cli_main(["diff", "--seed", "45", "--count", "1", "--fuel", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_check_unique_decomposition_small():
    rep = check_unique_decomposition(6)
    assert rep.ok
    assert rep.terms == rep.answers + rep.redexes
    assert rep.answers > 0 and rep.redexes > 0


def test_check_confluence_small():
    rep = check_confluence(6, 8)
    assert rep.ok
    assert rep.terms > 0


def test_audits_that_checked_nothing_are_not_ok():
    # no closed term has fewer than two nodes, and fuel 0 stops a run that
    # has not finished before its first transition
    ud = check_unique_decomposition(1)
    assert ud.terms == 0 and not ud.ok and not ud.to_json()["ok"]
    cr = check_confluence(1, 10)
    assert cr.terms == cr.pairs == 0 and not cr.ok
    sim = check_simulation(parse(r"(\x.x) (\y.y)"), "ck-need", 0)
    assert sim.transitions == 0 and not sim.completed and not sim.violations
    assert not sim.ok
    # a run that finishes at once checked its final state
    done = check_simulation(parse(r"\x.x"), "ck-need", 0)
    assert done.transitions == 0 and done.completed and done.ok


def _counting(monkeypatch, module, attr, calls):
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_check_confluence_searches_applications_only(monkeypatch):
    # at size 8 no term has two reducts, so joinable never runs and every
    # search is compatible_reducts' own, on an enumerated term
    calls = [0]
    _counting(monkeypatch, need, "redex_at_root", calls)
    rep = check_confluence(8, 10)
    assert rep.ok and rep.pairs == 0
    apps = sum(
        node.__class__ is App for t in enumerate_closed(8) for node in subterms(t)
    )
    assert calls[0] == apps > 0


def test_check_unique_decomposition_keys_each_result_once(monkeypatch):
    # canon runs for the oracle's keys only: the search result is compared
    # with the oracle's derivations by alpha_eq, which finds their shared
    # components equal as trees and keys neither
    calls = [0]
    _counting(monkeypatch, terms, "canon", calls)
    _counting(monkeypatch, oracle, "canon", calls)
    inside = [0]
    enumerate_real = harness.enumerate_decompositions

    def enumerate_counted(t):
        before = calls[0]
        out = enumerate_real(t)
        inside[0] += calls[0] - before
        return out

    monkeypatch.setattr(harness, "enumerate_decompositions", enumerate_counted)
    rep = check_unique_decomposition(7)
    assert rep.ok
    assert inside[0] > 0
    assert calls[0] - inside[0] == 0


def test_check_unique_decomposition_walks_no_free_vars(monkeypatch):
    # enumerated terms are closed by construction
    calls = [0]
    _counting(monkeypatch, terms, "free_vars", calls)
    assert check_unique_decomposition(7).ok
    assert calls[0] == 0


def _audit_reports(monkeypatch, cpus):
    """Both audits' JSON at size 10 (10,180 terms) when the process may run
    on cpus CPUs; neither audit leaves a worker behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    ud = to_json_str(check_unique_decomposition(10).to_json())
    assert multiprocessing.active_children() == []
    cr = to_json_str(check_confluence(10, 10).to_json())
    assert multiprocessing.active_children() == []
    return ud, cr


def _pools(monkeypatch) -> list:
    """The start methods of the pools the audits make from now on."""
    methods = []
    real = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: methods.append(method) or real(method)
    )
    return methods


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the audits pool by fork only"
)


@needs_fork
def test_pooled_audits_report_what_the_serial_run_does(monkeypatch):
    pools = _pools(monkeypatch)
    pooled = _audit_reports(monkeypatch, 2)
    assert pools == ["fork", "fork"]
    assert _audit_reports(monkeypatch, 1) == pooled
    assert pools == ["fork", "fork"]  # one CPU: no pool
    ud, cr = (json.loads(text) for text in pooled)
    assert ud["ok"] and cr["ok"] and ud["terms"] == cr["terms"] == 10180 and cr["pairs"] > 0


@needs_fork
def test_pooled_audits_keep_failures_in_enumeration_order(monkeypatch):
    index = {print_term(t): k for k, t in enumerate(enumerate_closed(10))}
    chosen = {text for text, k in index.items() if k in (0, 1, 1000, 5001, 5003, 10179)}
    current = [None]
    enumerate_real = harness.enumerate_decompositions
    matches = harness.decomposition_matches

    def enumerate_noting(t):
        current[0] = print_term(t)
        return enumerate_real(t)

    monkeypatch.setattr(harness, "enumerate_decompositions", enumerate_noting)
    monkeypatch.setattr(
        harness, "decomposition_matches", lambda *a: current[0] not in chosen and matches(*a)
    )
    monkeypatch.setattr(need, "joinable", lambda *a, **k: False)  # every pair fails
    pools = _pools(monkeypatch)
    pooled = _audit_reports(monkeypatch, 2)
    assert pools == ["fork", "fork"]
    assert _audit_reports(monkeypatch, 1) == pooled
    ud, cr = (json.loads(text) for text in pooled)
    assert [index[f["term"]] for f in ud["failures"]] == [0, 1, 1000, 5001, 5003, 10179]
    order = [index[f["term"]] for f in cr["failures"]]
    assert len(order) == cr["pairs"] and order == sorted(order)
    assert {k % 2 for k in order} == {0, 1}


def test_cli_smoke(tmp_path, capsys):
    f = tmp_path / "t.lam"
    f.write_text(T1 + "\n")
    assert cli_main(["parse", str(f)]) == 0
    assert cli_main(["eval", "--machine", "need-sr", "--fuel", "50", str(f)]) == 0
    assert cli_main(["trace", "--machine", "ck", "--fuel", "50", "--json", str(f)]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    payload = json.loads(out)
    assert payload["machine"] == "ck"
    assert cli_main(["decompose", str(f)]) == 0
    assert cli_main(["check-sim", "--pair", "ck-need", "--fuel", "100", str(f)]) == 0
    assert cli_main(["check-ud", "--max-size", "4"]) == 0
    assert cli_main(["check-cr", "--max-size", "4", "--depth", "4"]) == 0
    assert cli_main(["diff", "--seed", "1", "--count", "5", "--max-size", "8", "--fuel", "100"]) == 0


def test_cli_prelude_flag(tmp_path):
    f = tmp_path / "p.lam"
    f.write_text(f"cdr (cons ({OMEGA}) (\\v.v))\n")
    assert cli_main(["eval", "--machine", "need-sr", "--fuel", "500", "--prelude", str(f)]) == 0


def test_cli_parse_error(tmp_path):
    f = tmp_path / "bad.lam"
    f.write_text("(\\x.x\n")
    assert cli_main(["parse", str(f)]) == 2


def test_cli_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "bytes.lam"
    f.write_bytes(b"\\x.x \xff")
    assert cli_main(["parse", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: 1:6: unexpected character '\\udcff'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--machine", "af", "--fuel", "-1", "FILE"],
        ["trace", "--machine", "af", "--fuel", "-1", "FILE"],
        ["check-sim", "--pair", "ck-need", "--fuel", "-1", "FILE"],
        ["diff", "--count", "0"],
        ["diff", "--max-size", "1"],
        ["check-ud", "--max-size", "-1"],
        ["check-cr", "--depth", "-1"],
        ["eval", "--machine", "af", "MISSING"],
        ["parse", "MISSING"],
        # parameters under which an audit would check nothing
        ["check-ud", "--max-size", "1"],
        ["check-cr", "--max-size", "1"],
        ["check-sim", "--pair", "ck-need", "--fuel", "0", "FILE"],
    ],
)
def test_cli_bad_usage_exits_2(tmp_path, capsys, argv):
    f = tmp_path / "t.lam"
    f.write_text(T1 + "\n")
    paths = {"FILE": str(f), "MISSING": str(tmp_path / "missing.lam")}
    assert cli_main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err and not captured.out


def test_cli_eval_line_matches_run_eval(tmp_path, capsys):
    # `needlab eval` runs the evaluator directly; its line must be the one
    # a full trace of the same term would give
    f = tmp_path / "t.lam"
    for i in (8, 26, 33, 42, 74):  # several steps on every machine; 74 diverges
        t = gen_closed(42 + i, 25)
        f.write_text(print_term(t) + "\n")
        for machine in MACHINES:
            tr = run_eval(t, machine, 200)
            if tr.verdict == "done":
                expected = f"done in {len(tr.steps)} steps: {tr.answer}"
            else:
                expected = f"timeout after {len(tr.steps)} steps"
            capsys.readouterr()
            assert cli_main(["eval", "--machine", machine, "--fuel", "200", str(f)]) == 0
            assert capsys.readouterr().out == expected + "\n", (i, machine)


def _trace_by_single_steps(t, step, fuel):
    # run_eval's af trace rebuilt from the public single-step API, which
    # searches from the root and re-checks and re-hygienizes every term
    supply = NameSupply.for_term(t)
    current = hygienize(t, supply)
    steps = []
    while True:
        assert is_closed(current) and is_hygienic(current), print_term(current)
        r = step(current, supply)
        if r is None:
            return steps, "done", print_term(current)
        if len(steps) == fuel:
            return steps, "timeout", None
        rule, current = r
        steps.append((rule, print_term(current)))


@pytest.mark.parametrize("machine, step", [("af", af.step_af), ("af-mod", af.step_afmod)])
def test_run_eval_af_trace_matches_single_steps(machine, step):
    # run_eval drives af's resumable search without re-checking each term;
    # every intermediate term must still be closed and hygienic
    terms = [gen_closed(42 + i, 25) for i in range(300)] + [LEQ]
    for i, t in enumerate(terms):
        tr = run_eval(t, machine, 1000)
        steps, verdict, answer = _trace_by_single_steps(t, step, 1000)
        assert [(s.rule, s.term) for s in tr.steps] == steps, i
        assert (tr.verdict, tr.answer) == (verdict, answer), i
    assert tr.verdict == "done"
    assert alpha_eq(close_answer_value(parse(tr.answer)), parse(r"\t.\f.t"))


def test_run_eval_ckh_render_cache():
    # x is bound by descend-lam, checked out by lookupvar and rebound to its
    # value by updateheap: each step must print as an uncached rendering does
    terms = [parse(r"(\x.x x) ((\y.y) (\z.z))"), LEQ]
    terms += [gen_closed(42 + i, 25) for i in (8, 26, 33)]
    rules = set()
    for t in terms:
        tr = run_eval(t, "ckh", 1000)
        assert tr.verdict == "done"
        supply = NameSupply.for_term(t)
        state = ckh.inject_ckh(hygienize(t, supply))
        assert tr.initial == _CKHPrinter()(state)
        for s in tr.steps:
            rule, state = ckh.step_ckh(state, supply)
            assert (s.rule, s.term) == (rule, _CKHPrinter()(state))
            rules.add(rule)
        assert ckh.step_ckh(state, supply) is None
    assert {"descend-lam", "lookupvar", "updateheap"} <= rules


def test_ckh_trace_prints_one_frame_per_step(monkeypatch):
    # a store-machine step pushes or pops one frame: its trace prints at
    # most one frame piece per step, beyond the initial state's frames
    calls = []
    piece = harness._ckh_frame
    monkeypatch.setattr(harness, "_ckh_frame", lambda *a: calls.append(a) or piece(*a))
    tr = run_eval(LEQ, "ckh", 10_000)
    assert tr.verdict == "done" and len(tr.steps) > 100
    assert 0 < len(calls) <= len(tr.steps) + len(ckh.inject_ckh(LEQ).frames)


def test_cli_trace_into_closed_pipe(tmp_path):
    # `needlab trace ... | head -1`: the reader leaves after one line
    f = tmp_path / "w.lam"
    f.write_text(r"(\x0.x0 x0 x0) (\x1.x1 x1)" + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(needlab.__file__)))
    argv = ["trace", "--machine", "af", "--fuel", "500", str(f)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "needlab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert first.startswith(b"machine: af")
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 1


def _one_shot(machine, state):
    # (term, mapped) of a state printed from scratch, without any memo
    if machine in ("need-sr", "af", "af-mod"):
        stack, sub = state
        return print_term(plug(tuple(reversed(stack)), sub)), None
    if machine == "ck":
        term = f"<{print_term(state.control)} | {print_term(context_term(state.frames))}>"
        return term, print_term(ck.build(state))
    if machine == "ckh":
        return _CKHPrinter()(state), print_term(ckh.buildL(state))
    return print_term(state), None


def _cut_and_grown(before: list, stack: list) -> bool:
    # the af stack was cut below its last depth and then grew above the cut
    kept = 0
    while kept < min(len(before), len(stack)) and stack[kept] is before[kept]:
        kept += 1
    return kept < len(before) and len(stack) > kept


@pytest.mark.parametrize("machine", MACHINES)
def test_run_eval_prints_states_as_one_shot_renderings(machine):
    # run_eval prints each state from what changed since the last one; every
    # step must read as the state printed from scratch
    terms = [gen_closed(42 + i, 25) for i in range(80)] + [LEQ]
    regrown = 0
    for i, t in enumerate(terms):
        tr = run_eval(t, machine, 400)
        row = MACHINE_TABLE[machine]
        supply = NameSupply.for_term(t)
        state = row.inject(hygienize(t, supply))
        assert tr.initial == _one_shot(machine, state)[0], i
        steps = iter(tr.steps)
        before = []
        for rule, state in row.drive(state, supply):
            term, mapped = _one_shot(machine, state)
            if machine in ("af", "af-mod"):
                regrown += _cut_and_grown(before, state[0])
                before = list(state[0])
            if rule is None:
                assert (tr.verdict, tr.answer) == ("done", mapped or term), i
                break
            s = next(steps, None)
            if s is None:
                assert tr.verdict == "timeout", i
                break
            assert (s.rule, s.term, s.mapped) == (rule, term, mapped), (i, len(tr.steps))
    assert tr.verdict == "done"
    # af's printer keeps the pieces of the frames below a cut: the steps that
    # cut the stack and grow it again must have happened
    assert regrown > 0 or machine not in ("af", "af-mod")


# sha256 of the run_eval JSON lines of each machine on the first 80 corpus
# terms and LEQ at fuel 400, recorded before traces printed only what a step
# changed; one changed byte fails
GOLDEN_TRACES = {
    "need-sr": "6d0df0962396ef32b7d4dbacafb46ab0ced2394daa4e482908e2463f333d3a92",
    "af": "540c99a2f52db86c5e07cf7b3bf6acf1b84c158ba7bb2005bc63cf30b1b408fb",
    "af-mod": "79b1bc4b2528afdcf4aa2ee833261658164b80b632bf5c479dc0e83764a19e01",
    "name": "5d31d21af4feeec2b6945153a507f670f45314f971b4c3cfb6fdd7edc0eb21bf",
    "ck": "39f4979fd40a419a5731bd562badb9cef267e611aad2cc8800f70a9cba4c8036",
    "ckh": "c683a4222ad4ca8fd58105af79273496fa6199e43016abea9ae7de2f1db31427",
    "lstep": "5c1a68590542aff989ce7ce83bb5bd4b70a959a1a275af7f4cab45af49dd864c",
}


@pytest.mark.parametrize("machine", MACHINES)
def test_run_eval_traces_are_byte_identical_to_golden(machine):
    terms = [gen_closed(42 + i, 25) for i in range(80)] + [LEQ]
    text = "\n".join(to_json_str(run_eval(t, machine, 400).to_json()) for t in terms)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TRACES[machine]


# sha256 of the check_simulation JSON lines of each pair on the first 80
# corpus terms at fuel 400, recorded while the ck-need pair still seeded
# need.step_sr's supply from the plugged term
GOLDEN_SIMULATIONS = {
    "ckh-lstep": "9519fcdfd334850beefec60926b53c8e5d1354719f939186311a76aa573bd5eb",
    "ck-need": "2ce17efaf70eac481788e7a1937d43033312bd1590906123ca7484a90477df52",
    "ck-lstep": "880dca63eff8230d75da0be34e346647368e727b0417e4033a6015927ebb403f",
}


@pytest.mark.parametrize("pair", SIM_PAIRS)
def test_check_simulation_is_byte_identical_to_golden(pair):
    terms = [gen_closed(42 + i, 25) for i in range(80)]
    reports = [check_simulation(t, pair, 400) for t in terms]
    assert sum(r.transitions for r in reports) > 0
    text = "\n".join(to_json_str(r.to_json()) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SIMULATIONS[pair]


def _one_step_returns_its_input(row):
    return SimPair(row.source, row.step_rules, row.images, lambda m, supply: m)


def _images_keep_the_first(row):
    def images():
        image, first = row.images(), []

        def again(s, supply):
            if not first:
                first.append(image(s, supply))
            return first[0]

        return again

    return SimPair(row.source, row.step_rules, images, row.one_step)


# sha256 of the check_simulation JSON lines of every pair, in SIM_PAIRS
# order, on the first 80 corpus terms at fuel 400 with the pair's row
# doctored; recorded while every image was compared by its canonical key
DOCTORED_SIMULATIONS = {
    "one-step-returns-its-input": (
        _one_step_returns_its_input,
        "974e244719b824476007e44f5e96293e5af35d670afaacdfda88d94aa472e913",
    ),
    "images-keep-the-first": (
        _images_keep_the_first,
        "e8433fe8341ac8fa6692a1aaebe0a10822adaedf15b63618bbc017af2fcbdd95",
    ),
}


@pytest.mark.parametrize("doctor", DOCTORED_SIMULATIONS)
def test_check_simulation_reports_violations_as_golden(monkeypatch, doctor):
    make, digest = DOCTORED_SIMULATIONS[doctor]
    terms = [gen_closed(42 + i, 25) for i in range(80)]
    lines = []
    for pair in SIM_PAIRS:
        monkeypatch.setitem(SIM_TABLE, pair, make(SIM_TABLE[pair]))
        reports = [check_simulation(t, pair, 400) for t in terms]
        # a run stops at a violation exactly when it takes a step rule
        steps = [bool(r.rule_counts.keys() & SIM_TABLE[pair].step_rules) for r in reports]
        assert [bool(r.violations) for r in reports] == steps and sum(steps) > 30, pair
        lines += [to_json_str(r.to_json()) for r in reports]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair", SIM_PAIRS)
def test_cli_check_sim_prints_the_report_and_its_term_parses_back(tmp_path, capsys, pair):
    f = tmp_path / "t.lam"
    transitions = 0
    for i in (0, 8, 26, 33, 74):
        t = gen_closed(42 + i, 25)
        f.write_text(print_term(t) + "\n")
        status = cli_main(["check-sim", "--pair", pair, "--fuel", "400", str(f)])
        out = capsys.readouterr().out
        rep = check_simulation(t, pair, 400)
        assert status == 0 and rep.ok
        assert out == to_json_str(rep.to_json()) + "\n"
        assert term_eq(parse(json.loads(out)["term"]), t)
        transitions += rep.transitions
    assert transitions > 20


def _patch_everywhere(monkeypatch, attr, real, replacement):
    """Install replacement in every needlab module that imported real as attr."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "needlab" and getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, replacement)


def _holds_label(t) -> bool:
    return any(node.__class__ is terms.Labeled for node in subterms(t))


def test_check_simulation_walks_only_what_its_checks_read(monkeypatch, walks):
    # start's scan is the one walk of the input; every pair steps its
    # images from the state's seed without walking them; the input is
    # printed only by to_json, and only an image that holds a label is
    # stripped
    calls = {"normalize": 0, "print_term": 0}
    stripped, stepping = [], [False]
    for attr, real in (("normalize", terms.normalize), ("print_term", print_term)):

        def counted(*args, _attr=attr, _real=real, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        _patch_everywhere(monkeypatch, attr, real, counted)
    real_strip = terms.strip_value_labels

    def strip(t):
        if not stepping[0]:  # an image, not a stepped one
            stripped.append(t)
        return real_strip(t)

    _patch_everywhere(monkeypatch, "strip_value_labels", real_strip, strip)
    corpus = [gen_closed(42 + i, 25) for i in range(100)]
    for pair in SIM_PAIRS:
        row = SIM_TABLE[pair]

        def one_step(m, supply, _row=row, _pair=pair):
            before = {**walks, **calls}
            stepping[0] = True
            try:
                return _row.one_step(m, supply)
            finally:
                stepping[0] = False
                assert {**walks, **calls} == before, _pair

        monkeypatch.setitem(SIM_TABLE, pair, SimPair(row.source, row.step_rules, row.images, one_step))
        steps = strips = 0
        for t in corpus:
            walks.update(dict.fromkeys(walks, 0))
            calls.update(dict.fromkeys(calls, 0))
            stripped.clear()
            rep = check_simulation(t, pair, 1000)
            assert rep.ok
            n = sum(rep.rule_counts.get(r, 0) for r in row.step_rules)
            assert (walks["scan"], walks["subterms"], walks["for_terms"]) == (1, 0, 0), pair
            # ck-lstep's replay takes the free names of each argument it labels
            assert walks["free_vars"] == 0 or pair == "ck-lstep"
            assert calls == {"normalize": 1, "print_term": 0}, pair
            assert rep.to_json()["term"] == print_term(t) and calls["print_term"] == 1
            assert all(map(_holds_label, stripped)), pair
            steps += n
            strips += len(stripped)
        assert steps > 100 and (strips > 100 or pair == "ck-need"), pair


def _stale_seeds(monkeypatch, corpus) -> dict:
    """Per pair, over check_simulation runs on the corpus at fuel 1000:
    [its step transitions, those whose target step minted from a supply
    that does not start above every name of the image it stepped]."""
    counts = {}
    current = []  # the pair, and the image the step transition steps

    def seeded(supply):
        pair, m = current
        if supply.fork().fresh().index <= scan(m).top:
            counts[pair][1] += 1

    step_lstep, contract = lstep.step_lstep, need.contract

    def lstep_seeded(t, supply=None, check=True):
        seeded(supply)
        return step_lstep(t, supply, check)

    def contract_seeded(r, supply=None):
        seeded(supply)
        return contract(r, supply)

    monkeypatch.setattr(lstep, "step_lstep", lstep_seeded)
    monkeypatch.setattr(need, "contract", contract_seeded)
    for pair in SIM_PAIRS:
        row = SIM_TABLE[pair]
        counts[pair] = [0, 0]

        def one_step(m, supply, _row=row, _pair=pair):
            counts[_pair][0] += 1
            current[:] = _pair, m
            return _row.one_step(m, supply)

        monkeypatch.setitem(SIM_TABLE, pair, SimPair(row.source, row.step_rules, row.images, one_step))
        for t in corpus:
            assert check_simulation(t, pair, 1000).ok, pair
    return counts


def test_simulation_steps_mint_names_fresh_for_their_image(monkeypatch):
    corpus = [gen_closed(42 + i, 25) for i in range(100)] + [LEQ]
    counts = _stale_seeds(monkeypatch, corpus)
    assert all(steps > 50 and stale == 0 for steps, stale in counts.values()), counts


def test_only_the_freshness_check_sees_a_stale_ck_lstep_seed(monkeypatch):
    # an image function that mints its labels from a fork of the state's
    # seed leaves the seed where it was, so the step of that image gets a
    # label name the image already holds; on these terms every report stays
    # ok (on LEQ the clash is a violation), so the freshness check is what
    # catches it
    row = SIM_TABLE["ck-lstep"]

    def images():
        return lambda s, seed: ck.build_step_term(s, seed.fork(), strip=True)

    mutant = SimPair(row.source, row.step_rules, images, row.one_step)
    monkeypatch.setitem(SIM_TABLE, "ck-lstep", mutant)
    corpus = [gen_closed(42 + i, 25) for i in range(100)]
    steps, stale = _stale_seeds(monkeypatch, corpus)["ck-lstep"]
    assert stale > 0, steps


# sha256 of each report's JSON, recorded while the reports were dataclasses
# that asdict serialized; check_confluence(9, 10) is the smallest
# joinability audit that checks a pair (2 pairs over 2,622 terms)
GOLDEN_REPORTS = {
    "ud-7": (
        lambda: check_unique_decomposition(7),
        "12b3bc5c20ee9918e2889fd7054f50fc0ef98e827ac4e66d48ead4a6806b5b12",
    ),
    "cr-9": (
        lambda: check_confluence(9, 10),
        "d7bb68aef50e3ac69f5e4440983fcc9f015e44e91e7d5a30082cd4a6d4a439d3",
    ),
    "diff-42": (
        lambda: run_diff(42, 20, 25, 200),
        "b07fd5d7428d3b14f941cc715fb36a4f62aa1fe909ca01d997d8b3c89c6add18",
    ),
}


@pytest.mark.parametrize("report", GOLDEN_REPORTS)
def test_report_json_is_byte_identical_to_golden(report):
    make, digest = GOLDEN_REPORTS[report]
    payload = make().to_json()
    assert payload["ok"] and (report != "cr-9" or payload["pairs"] == 2)
    assert hashlib.sha256(to_json_str(payload).encode()).hexdigest() == digest


def test_cli_imports_no_dataclasses():
    # every needlab record is a slotted Frozen subclass: loading the CLI
    # generates no dataclass code and imports neither dataclasses nor the
    # inspect module it pulls in
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(needlab.__file__)))
    code = "import needlab.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.decode() == "False\n"


#: Each machine's evaluator and the driver it passes to results.evaluate,
#: by module attribute.
EVALUATORS = {
    "need-sr": (need, "eval_sr", "drive"),
    "af": (af, "eval_af", "drive_af"),
    "af-mod": (af, "eval_afmod", "drive_afmod"),
    "name": (af, "eval_name", "drive_name"),
    "ck": (ck, "eval_ck", "drive"),
    "ckh": (ckh, "eval_ckh", "drive"),
    "lstep": (lstep, "eval_lstep", "drive"),
}


@pytest.mark.parametrize("machine", MACHINES)
def test_eval_walks_a_hygienic_term_once_before_the_first_step(monkeypatch, walks, machine):
    # one scan checks closedness and labels and seeds the run's supply; the
    # hygienic term is not renamed, and ck and ckh inject without checking
    # closedness again
    module, evaluator, driver = EVALUATORS[machine]
    real = getattr(module, driver)
    at_first_step = []

    def drive(state, supply):
        at_first_step.append(dict(walks))
        yield from real(state, supply)

    monkeypatch.setattr(module, driver, drive)
    for t in [gen_closed(42 + i, 25) for i in (8, 26, 33)] + [hygienize(LEQ)]:
        assert is_closed(t) and is_hygienic(t)
        walks.update(dict.fromkeys(walks, 0))
        r = getattr(module, evaluator)(t, 50)
        assert r.steps > 0
        assert at_first_step.pop() == {"scan": 1, "free_vars": 0, "subterms": 0, "for_terms": 0}


def _binders(t):
    return [node.binder for node in subterms(t) if node.__class__ is terms.Lam]


def _pieces_ckh(state):
    """The terms of a ckh state apart from its heap and checked-out names."""
    yield state.control
    yield from (f.term for f in state.frames if f.__class__ is ckh.ArgF)
    yield from state.heap.values()


@pytest.mark.parametrize("machine", [m for m in MACHINES if m != "lstep"])
def test_driver_states_are_normalized(machine):
    # the environment-free substitution the drivers use needs normalized
    # states: binders pairwise distinct and disjoint from the free names.
    # A ckh state keeps a value in the heap and as the control after an
    # update, and a later copy of the same value can meet pieces of the
    # first in the frames, so each of its terms is normalized on its own and
    # none binds a heap or checked-out name
    row = MACHINE_TABLE[machine]
    whole = {"need-sr": build_stack, "af": build_stack, "af-mod": build_stack,
             "name": lambda t: t, "ck": ck.build}.get(machine)
    states = 0
    for t in [gen_closed(42 + i, 25) for i in range(100)] + [LEQ]:
        state, supply = results.start(t, 1000, row.inject)
        for steps, (rule, state) in enumerate(row.drive(state, supply)):
            states += 1
            if whole is not None:
                found = terms.scan(whole(state))
                assert found.hygienic and not found.free, (print_term(t), steps)
            else:
                names = set(state.heap) | {f.name for f in state.frames if f.__class__ is ckh.VarF}
                for piece in _pieces_ckh(state):
                    assert terms.is_hygienic(piece), (print_term(t), steps)
                    assert names.isdisjoint(_binders(piece)), (print_term(t), steps)
            if rule is None or steps == 1000:
                break
    assert states > 1000


LABELED = [r"l:(\x.x) (\y.y)", r"(\x.x) l:(\y.y)"]


@pytest.mark.parametrize("machine", MACHINES)
def test_eval_rejects_labeled_input_unless_the_machine_reads_labels(machine):
    module, evaluator, _ = EVALUATORS[machine]
    row = MACHINE_TABLE[machine]
    assert row.labels == (machine == "lstep")
    for source in LABELED:
        t = parse(source)
        if row.labels:
            assert isinstance(getattr(module, evaluator)(t, 50), Done)
            assert run_eval(t, machine, 50).verdict == "done"
            continue
        with pytest.raises(LabeledTermError):
            getattr(module, evaluator)(t, 50)
        with pytest.raises(LabeledTermError):
            run_eval(t, machine, 50)
    for pair, sim in SIM_TABLE.items():
        if sim.source == machine:
            with pytest.raises(LabeledTermError):
                check_simulation(parse(LABELED[0]), pair, 50)


@pytest.mark.parametrize(
    "step",
    [
        need.decompose,
        need.step_sr,
        af.step_af,
        af.step_afmod,
        af.step_name,
        need.compatible_reducts,
        ck.inject_ck,
        ckh.inject_ckh,
    ],
    ids=lambda f: f.__name__,
)
def test_one_shot_steps_reject_labeled_input(step):
    # the one walk each makes of its input sees the label
    for source in LABELED:
        with pytest.raises(LabeledTermError):
            step(parse(source))


@pytest.mark.parametrize("machine", MACHINES)
def test_cli_rejects_labeled_input_unless_the_machine_reads_labels(tmp_path, capsys, machine):
    f = tmp_path / "l.lam"
    for source in LABELED:
        f.write_text(source + "\n")
        status = cli_main(["eval", "--machine", machine, str(f)])
        captured = capsys.readouterr()
        if machine == "lstep":
            assert status == 0 and captured.out.startswith("done in 1 steps: ")
            continue
        assert status == 2, (machine, source)
        assert captured.err.startswith(f"labeled term: {machine}: ") and not captured.out
        assert "Traceback" not in captured.err


def test_lstep_rejects_input_that_is_not_consistently_labeled(monkeypatch, tmp_path, capsys):
    # the label l names two different bodies
    bad = parse(r"l:(\x.x) l:(\y.\z.z)")
    # one error type, whether the run or the one-shot step finds it
    with pytest.raises(lstep.NotConsistentlyLabeled):
        lstep.step_lstep(bad)
    with pytest.raises(lstep.NotConsistentlyLabeled):
        lstep.eval_lstep(bad, 50)
    with pytest.raises(LabeledTermError):
        run_eval(bad, "lstep", 50)
    f = tmp_path / "l.lam"
    f.write_text(print_term(bad) + "\n")
    assert cli_main(["eval", "--machine", "lstep", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("labeled term: lstep: ") and not captured.out
    # the check reads the term as given, before binders are renamed apart
    assert isinstance(lstep.eval_lstep(parse(r"l:(\x.x) l:(\x.x)"), 50), Done)
    # an unlabeled run does not check its labels
    monkeypatch.setattr(results, "is_cl", None)
    assert isinstance(lstep.eval_lstep(parse(r"(\x.x) (\y.y)"), 50), Done)


def test_lstep_renames_each_label_body_once(tmp_path, capsys):
    # renaming to hygiene renames a label's body where it is first met and
    # reuses that node, so the run starts consistently labeled
    t = parse(r"l:(\x.x) l:(\x.x)")
    state, _ = results.start(t, 50, labels=True)
    assert state.fn is state.arg and alpha_eq(state, t)
    r = lstep.eval_lstep(t, 50)
    assert isinstance(r, Done) and print_term(r.answer) == r"x%1:(l:(\x.x))"
    f = tmp_path / "l.lam"
    f.write_text(print_term(t) + "\n")
    assert cli_main(["eval", "--machine", "lstep", str(f)]) == 0
    assert capsys.readouterr().out == "done in 1 steps: x%1:(l:(\\x.x))\n"
    # copies of l whose y are different binders: no renaming keeps them equal
    for source in (r"(\y.l:(y)) (\y.l:(y))", r"\y.(\y.l:(y)) l:(y)"):
        bad = parse(source)
        assert terms.is_cl(bad)
        with pytest.raises(lstep.NotConsistentlyLabeled):
            lstep.eval_lstep(bad, 50)
        with pytest.raises(LabeledTermError):
            run_eval(bad, "lstep", 50)
        f.write_text(source + "\n")
        assert cli_main(["eval", "--machine", "lstep", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("labeled term: lstep: ") and not captured.out


def test_cli_decompose_rejects_labeled_input(tmp_path, capsys):
    f = tmp_path / "l.lam"
    f.write_text(LABELED[0] + "\n")
    assert cli_main(["decompose", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("labeled term: decompose: ") and not captured.out


def test_cli_rejects_the_hole_in_a_term_to_run(tmp_path, capsys):
    # [] parses so that printed contexts read back, but no command runs it
    f = tmp_path / "h.lam"
    f.write_text("(\\x.x) []\n")
    commands = [["eval", "--machine", m] for m in MACHINES]
    commands += [["trace", "--machine", "ck"], ["decompose"], ["check-sim", "--pair", "ck-need"]]
    for argv in commands:
        assert cli_main(argv + [str(f)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("hole: the hole [] ") and not captured.out, argv
        assert len(captured.err.splitlines()) == 1
    assert cli_main(["parse", str(f)]) == 0
    assert capsys.readouterr().out == "(\\x.x) []\n"


def test_labeled_output_parses_back():
    # lstep and ckh print labeled terms; each must reprint to itself
    terms = [gen_closed(42 + i, 25) for i in range(50)] + [LEQ]
    labeled = 0
    for t in terms:
        printed = []
        tr = run_eval(t, "lstep", 1000)
        printed += [s.term for s in tr.steps] + [tr.answer]
        tr = run_eval(t, "ckh", 1000)
        printed += [s.mapped for s in tr.steps] + [tr.answer]
        for text in printed:
            if text is not None:
                assert print_term(parse(text)) == text
                labeled += ":(" in text
    assert labeled > 500


def _demand_chain(n: int) -> str:
    r"""(\a0.(\a1.( ... (\an.an) a(n-1) ... ) a1) a0) (\z.z): n nested demands."""
    text = rf"\a{n}.a{n}"
    for k in range(n - 1, -1, -1):
        text = rf"\a{k}.({text}) a{k}"
    return rf"({text}) (\z.z)"


@pytest.mark.parametrize(
    "source",
    [r"(\x0.x0 x0 x0) (\x1.x1 x1)", print_term(gen_closed(116, 25)), _demand_chain(300)],
    ids=["omega3", "corpus74", "chain300"],
)
def test_cli_long_traces_within_default_recursion_limit(tmp_path, source):
    # divergent witnesses at fuel 2000 grow deep terms and frame stacks, and
    # a demand chain nests demand frames 300 deep; the CLI runs under the
    # interpreter's default recursion limit
    f = tmp_path / "w.lam"
    f.write_text(source + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(needlab.__file__)))
    for machine in MACHINES:
        proc = subprocess.run(
            [sys.executable, "-m", "needlab.cli", "trace", "--machine", machine]
            + ["--fuel", "2000", str(f)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, (machine, proc.stderr.decode()[-2000:])
        assert b"RecursionError" not in proc.stderr, machine


def test_cli_eval_ck_on_a_deep_demand_chain(tmp_path):
    # (\a0.(\a1.( ... (\an.an) a(n-1) ... ) a1) a0) (\z.z) nests n demand
    # frames; the frame walks must not recurse on them
    n = 1100
    text = rf"\a{n}.a{n}"
    for k in range(n - 1, -1, -1):
        text = rf"\a{k}.({text}) a{k}"
    f = tmp_path / "chain.lam"
    f.write_text(rf"({text}) (\z.z)" + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(needlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "needlab.cli", "eval", "--machine", "ck", "--fuel", "5000", str(f)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.decode() == "done in 4404 steps: \\z.z\n"
