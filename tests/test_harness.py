import json

from needlab.cli import main as cli_main
from needlab.harness import (
    MACHINES,
    SIM_PAIRS,
    answer_value,
    check_confluence,
    check_simulation,
    check_unique_decomposition,
    close_answer_value,
    run_diff,
    run_eval,
    to_json_str,
)
from needlab.gen import gen_closed
from needlab.syntax import parse, print_term
from needlab.terms import alpha_eq

T1 = r"((\x.(\y.\z.z y x) (\y.y)) (\x.x)) (\z.z)"
OMEGA = r"(\d.d d) (\d.d d)"


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


def test_check_unique_decomposition_small():
    rep = check_unique_decomposition(6)
    assert rep.ok
    assert rep.terms == rep.answers + rep.redexes
    assert rep.answers > 0 and rep.redexes > 0


def test_check_confluence_small():
    rep = check_confluence(6, 8)
    assert rep.ok
    assert rep.terms > 0


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
