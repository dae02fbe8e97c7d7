"""Tests of the benchmark itself: the reference evaluators on hand-computed
cases, the program list, and every workload end to end in its small mode.

    python3 -m pytest bench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import programs  # noqa: E402
import reference as R  # noqa: E402

I = ("l", ("v", 0))
OMEGA = R.parse_db(r"(\d.d d) (\d.d d)")


def test_closed_counts_match_a220894():
    counts = R.closed_counts(12)
    assert counts[1:] == [1, 2, 4, 13, 42, 139, 506, 1915, 7558, 31092, 132170]
    assert counts[0] == 0


def test_parse_db_reads_printed_syntax_and_erases_labels():
    assert R.parse_db(r"\x.\y.x y") == ("l", ("l", ("a", ("v", 1), ("v", 0))))
    assert R.parse_db(r"(\x%3.x%3) \y.y") == ("a", I, I)
    assert R.parse_db(r"(\q.q) x%1:(\a.a)") == ("a", I, I)
    assert R.parse_db(r"y%2:(\x.x%5:(\z.z) x)") == ("l", ("a", I, ("v", 0)))
    with pytest.raises(ValueError):
        R.parse_db(r"\x.y")


def test_call_by_name_reference():
    # (\x.x x) ((\a.a) (\b.b)) copies the unevaluated argument: 4 steps.
    t = R.parse_db(r"(\x.x x) ((\a.a) (\b.b))")
    assert R.eval_name(t, 100) == (True, 4, I)
    # K (\z.z) Omega never touches Omega; a value is returned as is.
    assert R.eval_name(R.parse_db(r"(\x.\y.x) (\z.z)"), 10) == (True, 1, ("l", I))
    assert R.eval_name(I, 0) == (True, 0, I)
    assert R.eval_name(OMEGA, 10) == (False, 10, None)


def test_lazy_reference_counts_forced_thunks():
    # x is forced once, which forces a; then the copy of x's value forces b.
    t = R.parse_db(r"(\x.x x) ((\a.a) (\b.b))")
    assert R.eval_lazy(t, 100) == (True, 3, I)
    # Omega is never demanded; each demanded variable counts once.
    k = ("a", ("a", R.parse_db(r"\x.\y.x"), I), OMEGA)
    assert R.eval_lazy(k, 100) == (True, 1, I)
    done, forced, _ = R.eval_lazy(OMEGA, 50)
    assert not done and forced == 51


def test_lazy_read_back_substitutes_heap_contents():
    # The value \y.x closes over an unevaluated thunk: read back as \y.\z.z.
    assert R.eval_lazy(R.parse_db(r"(\x.\y.x) (\z.z)"), 10) == (True, 0, ("l", I))
    # A thunk never demanded reads back as the redex it is ...
    t = R.parse_db(r"(\x.\y.x) ((\a.a) (\b.b))")
    assert R.eval_lazy(t, 10) == (True, 0, ("l", ("a", I, I)))
    # ... and a forced one as the value it was updated with.
    t = R.parse_db(r"(\x.x (\y.x)) ((\a.a) (\b.b))")
    assert R.eval_lazy(t, 10) == (True, 3, ("l", I))


def test_program_expectations():
    want = {
        "add-succ": True,
        "mul-add": False,
        "sub-pred": True,
        "shared-numeral": True,
        "shared-boolean": True,
        "lazy-pair": True,
    }
    assert {name: programs.expected(tree) for name, tree in programs.PROGRAMS} == want


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["corpus", "programs", "audit"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_mode_runs_and_checks(workload, trace):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    out = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if workload == "programs":
        # af-mod: one evaluation and three traces of the three programs fail.
        assert (result["failed"], result["attempted"]) == (4, 42)
    else:
        assert result["failed"] == 0
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert "{" not in out.stdout
