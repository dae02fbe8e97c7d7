"""needlab benchmark: one command, three workloads, outputs checked apart from needlab.

    python3 bench/run.py --workload corpus|programs|audit --seed N \\
        --seconds S --trace 0|1 [--small]

Each run sets up its inputs (importing needlab and building the terms) five
times and reports the median, then repeats whole rounds of the workload's
operations until ``--seconds`` have passed.  An operation is one
evaluation, trace or audit call.  Every output is checked against
``reference.py`` (call-by-name and Launchbury-style lazy evaluators, a
printed-syntax reader and a closed-term count), against Python arithmetic
for the Church programs, and against the audits' own coverage.  A failed
operation is counted, never timed.

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics; with ``--trace 1`` the listed needlab functions are wrapped
(``tracer.py``) and the result holds the per-layer metrics, per round.
Results and spans go to ``bench/out/``.  ``--small`` shrinks every
workload so that a run and its checks take seconds.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import programs  # noqa: E402
import reference  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

WORKLOADS = ("corpus", "programs", "audit")
MACHINES = ("need-sr", "af", "af-mod", "name", "ck", "ckh", "lstep")
EVALUATORS = {
    "need-sr": ("need", "eval_sr"),
    "af": ("af", "eval_af"),
    "af-mod": ("af", "eval_afmod"),
    "name": ("af", "eval_name"),
    "ck": ("ck", "eval_ck"),
    "ckh": ("ckh", "eval_ckh"),
    "lstep": ("lstep", "eval_lstep"),
}
SIM_PAIRS = ("ckh-lstep", "ck-need", "ck-lstep")
#: The machine whose transitions each simulation pair replays.
SIM_SOURCE = {"ckh-lstep": "ckh", "ck-need": "ck", "ck-lstep": "ck"}
MODULES = ("terms", "syntax", "frames", "results", "gen", "need", "af", "ck", "ckh",
           "lstep", "oracle", "prelude", "harness")

CORPUS_SEED = 42
CORPUS_MAX_SIZE = 25
#: Workload sizes, chosen so one round takes a few seconds on one core.
FULL = {"corpus_count": 300, "fuel": 1000, "program_fuel": 100_000, "programs": None,
        "audit_size": 10, "cr_depth": 10, "prefix": 300, "scaling_fuel": 1000}
SMALL = {"corpus_count": 30, "fuel": 200, "program_fuel": 100_000,
         "programs": ("sub-pred", "shared-boolean", "lazy-pair"), "audit_size": 9,
         "cr_depth": 10, "prefix": 30, "scaling_fuel": 200}
SETUP_REPEATS = 5
SCALING_WITNESS = r"(\x0.x0 x0 x0) (\x1.x1 x1)"
TRUE, FALSE = reference.parse_db(r"\t.\f.t"), reference.parse_db(r"\t.\f.f")
#: One calibration unit: both reference evaluators on the first program.
CALIBRATION_TERM = reference.parse_db(programs.source(programs.PROGRAMS[0][1]))
#: Reported times are scaled to a machine on which one unit takes 1 ms.
NOMINAL_UNIT_S = 1e-3
#: A unit is run after every this many seconds of timed work.
CALIBRATE_EVERY_S = 0.02
#: An operation is scaled by the median of this many units on each side of it.
CALIBRATION_WINDOW = 10


class Calibration:
    """Machine speed, sampled in step with the timed work.

    On a shared virtual machine the CPU's speed can drift by a third, in
    steps that last seconds, and every timing drifts with it.  A fixed piece of pure-Python work that
    shares no code with needlab (``reference.py`` on a fixed term) is run
    after every ``CALIBRATE_EVERY_S`` of timed work, so the units sample
    the machine in step with the work they normalize.  An operation's time
    is reported as ``measured * NOMINAL_UNIT_S / local unit time``, the
    local unit time being the median of the units run around it.
    """

    def __init__(self):
        self.units: list[float] = []
        self._since = 0.0
        self._local: dict = {}

    def unit(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference.eval_lazy(CALIBRATION_TERM, 10**6)
        reference.eval_name(CALIBRATION_TERM, 10**6)
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.units.append(elapsed)

    def after(self, seconds: float) -> None:
        """Account for timed work; one unit per CALIBRATE_EVERY_S of it."""
        self._since += seconds
        while self._since >= CALIBRATE_EVERY_S:
            self._since -= CALIBRATE_EVERY_S
            self.unit()

    def scale(self) -> float:
        return NOMINAL_UNIT_S / statistics.median(self.units)

    def scale_at(self, unit: int) -> float:
        """Scale for work done just before unit number `unit` ran."""
        if unit not in self._local:
            window = self.units[max(0, unit - CALIBRATION_WINDOW):unit + CALIBRATION_WINDOW]
            self._local[unit] = NOMINAL_UNIT_S / statistics.median(window or self.units)
        return self._local[unit]


class Op:
    """One operation of a round and what it reported."""

    __slots__ = ("kind", "what", "item", "failed", "seconds", "steps", "result", "unit")

    def __init__(self, kind: str, what: str, item: int):
        self.kind, self.what, self.item = kind, what, item
        self.failed, self.seconds, self.steps, self.result, self.unit = False, 0.0, 0, None, 0


def import_needlab() -> dict:
    """Fresh import of every needlab module (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "needlab" or n.startswith("needlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return {name: importlib.import_module(f"needlab.{name}") for name in MODULES}


def build_inputs(nl: dict, workload: str, size: dict) -> list:
    """The workload's terms: (label, term, program tree or None)."""
    if workload == "programs":
        chosen = [p for p in programs.PROGRAMS if size["programs"] is None or p[0] in size["programs"]]
        return [
            (name, nl["prelude"].expand_prelude(nl["syntax"].parse(programs.source(tree))), tree)
            for name, tree in chosen
        ]
    count = size["corpus_count"] if workload == "corpus" else size["prefix"]
    gen_closed = nl["gen"].gen_closed
    return [(str(CORPUS_SEED + i), gen_closed(CORPUS_SEED + i, CORPUS_MAX_SIZE), None)
            for i in range(count)]


def setup(workload: str, size: dict, tracer: Tracer | None):
    """Import needlab and build the inputs, several times; the last one is kept.

    Each repetition is scaled by calibration units run around it, and the
    median is reported.  Under tracing, the last repetition is traced, so
    set-up's own calls (generation, parsing) are counted once.
    """
    times = []
    for repeat in range(SETUP_REPEATS):
        calibration = Calibration()
        for _ in range(10):
            calibration.unit()
        start = time.perf_counter()
        nl = import_needlab()
        if tracer and repeat == SETUP_REPEATS - 1:
            tracer.install()
        inputs = build_inputs(nl, workload, size)
        if tracer:
            tracer.remove()
        elapsed = time.perf_counter() - start
        for _ in range(10):
            calibration.unit()
        times.append(elapsed * calibration.scale())
    return nl, inputs, statistics.median(times)


class Workload:
    """Operations of one round, how to run each, and how to check them."""

    def __init__(self, name: str, nl: dict, inputs: list, size: dict):
        self.name, self.nl, self.inputs, self.size = name, nl, inputs, size
        self.errors: list[str] = []
        self.refs = [self._reference(term, tree) for _, term, tree in inputs]
        if name == "audit":
            self.ops = [Op("ud", "decomposition", -1), Op("cr", "joinability", -1)]
            self.ops += [Op("sim", pair, i) for pair in SIM_PAIRS for i in range(len(inputs))]
            self.ops += [Op("cl", "labeling", i) for i in range(len(inputs))]
        else:
            kinds = ("eval", "trace") if name == "programs" else ("eval",)
            self.ops = [Op(k, m, i) for k in kinds for m in MACHINES for i in range(len(inputs))]

    # ---- references, computed once before the timed rounds -------------
    def _reference(self, term, tree):
        if self.name == "audit":
            return None
        fuel = self.size["program_fuel" if tree is not None else "fuel"]
        db = reference.to_db(term)
        ref = {"name": reference.eval_name(db, fuel), "lazy": reference.eval_lazy(db, fuel)}
        if tree is not None:
            ref["expect"] = TRUE if programs.expected(tree) else FALSE
        return ref

    # ---- running -------------------------------------------------------
    def run(self, op: Op) -> None:
        nl, size = self.nl, self.size
        term = self.inputs[op.item][1] if op.item >= 0 else None
        fuel = size["program_fuel" if self.name == "programs" else "fuel"]
        start = time.perf_counter()
        try:
            if op.kind == "eval":
                module, fn = EVALUATORS[op.what]
                op.result = getattr(nl[module], fn)(term, fuel)
            elif op.kind == "trace":
                op.result = nl["harness"].run_eval(term, op.what, fuel)
            elif op.kind == "ud":
                self._fresh_enumeration()
                op.result = nl["harness"].check_unique_decomposition(size["audit_size"])
            elif op.kind == "cr":
                self._fresh_enumeration()
                op.result = nl["harness"].check_confluence(size["audit_size"], size["cr_depth"])
            elif op.kind == "sim":
                op.result = nl["harness"].check_simulation(term, op.what, fuel)
            else:
                op.result = self._labeling(term, fuel)
        except Exception as exc:  # a failing operation is counted, not timed
            op.failed, op.result = True, f"{type(exc).__name__}: {exc}"
            return
        op.seconds = time.perf_counter() - start

    def _fresh_enumeration(self) -> None:
        # Each audit enumerates from scratch, as one `needlab check-*` command does.
        cached = getattr(self.nl["gen"], "_enum_db", None)
        if cached is not None and hasattr(cached, "cache_clear"):
            cached.cache_clear()

    def _labeling(self, term, fuel: int) -> tuple[int, int]:
        """Criterion 10 on one term: (transitions, consistency violations)."""
        nl = self.nl
        lstep = nl["lstep"]
        supply = nl["terms"].NameSupply.for_term(term)
        u = nl["terms"].hygienize(term)
        transitions = 0
        for _ in range(fuel):
            if lstep.is_labeled_value(u):
                break
            u = lstep.step_lstep(u, supply, check=False)
            transitions += 1
            if not lstep.is_cl(u):
                return transitions, 1
        return transitions, 0

    # ---- checking --------------------------------------------------------
    def check(self, ops: list) -> None:
        """Check every completed operation of a round; record its steps."""
        coverage: dict = {}
        for op in ops:
            if op.failed:
                continue
            label = self.inputs[op.item][0] if op.item >= 0 else op.what
            try:
                problem = getattr(self, f"_check_{op.kind}")(op)
            except Exception as exc:  # an output the references cannot read
                problem = f"unreadable output: {exc!r}"
            if problem:
                self.errors.append(f"{op.kind} {op.what} {label}: {problem}")
            if op.kind in ("sim", "cl"):
                coverage[op.what] = coverage.get(op.what, 0) + op.steps
        for what, transitions in coverage.items():
            if transitions == 0:  # an audit that covered nothing checked nothing
                for op in ops:
                    if op.what == what:
                        op.failed = True

    def _value_problem(self, machine: str, value_db, ref) -> str | None:
        lazy = ref["lazy"]
        if machine == "name":
            if value_db != ref["name"][2]:
                return "value differs from the call-by-name reference"
        elif value_db != lazy[2]:
            return "value differs from the lazy reference read-back"
        if "expect" in ref and value_db != ref["expect"]:
            return "value differs from the Python-computed boolean"
        return None

    def _check_eval(self, op: Op) -> str | None:
        ref, r = self.refs[op.item], op.result
        done = type(r).__name__ == "Done"
        op.steps = r.steps
        if op.what == "name":
            want_done, want_steps, _ = ref["name"]
            if done != want_done or r.steps != want_steps:
                return f"verdict/steps {done}/{r.steps}, call-by-name reference {want_done}/{want_steps}"
        elif done != ref["lazy"][0]:
            return f"verdict {done}, lazy reference {ref['lazy'][0]}"
        elif op.what == "need-sr" and done and r.steps != ref["lazy"][1]:
            return f"{r.steps} steps, lazy reference forced {ref['lazy'][1]} thunks"
        if not done:
            return None
        value = self.nl["harness"].answer_value(op.what, r)
        return self._value_problem(op.what, reference.to_db(value), ref)

    def _check_trace(self, op: Op) -> str | None:
        ref, trace = self.refs[op.item], op.result
        op.steps = len(trace.steps)
        if trace.verdict != "done":
            return f"trace verdict {trace.verdict}"
        want = {"name": ref["name"][1], "need-sr": ref["lazy"][1]}.get(op.what)
        if want is not None and op.steps != want:
            return f"{op.steps} traced steps, reference {want}"
        # The printed answer, labels erased, must read back to the value
        # without forcing anything: it is an answer.
        done, forced, value = reference.eval_lazy(reference.parse_db(trace.answer), 0)
        if not done or forced:
            return "printed answer is not an answer"
        return self._value_problem(op.what, value, ref)

    def _check_ud(self, op: Op) -> str | None:
        rep = op.result
        op.steps = rep.terms
        want = sum(reference.closed_counts(self.size["audit_size"]))
        if not rep.ok:
            return f"{len(rep.failures)} decomposition failures"
        if rep.terms != want or rep.answers + rep.redexes != rep.terms:
            return f"{rep.terms} terms ({rep.answers}+{rep.redexes}), closed-term count {want}"
        return None

    def _check_cr(self, op: Op) -> str | None:
        rep = op.result
        op.steps = rep.terms
        want = sum(reference.closed_counts(self.size["audit_size"]))
        if rep.pairs == 0:
            op.failed = True
        if not rep.ok:
            return f"{len(rep.failures)} pairs not joinable"
        if rep.terms != want:
            return f"{rep.terms} terms, closed-term count {want}"
        return None

    def _check_sim(self, op: Op) -> str | None:
        rep = op.result
        op.steps = rep.transitions
        return None if rep.ok else f"violation {rep.violations[0]}"

    def _check_cl(self, op: Op) -> str | None:
        op.steps, violations = op.result
        return "labeling inconsistent after a transition" if violations else None


def scaling_ratios(nl: dict, fuel: int) -> dict:
    """Per machine: time at twice the fuel over time at the fuel, on a divergent witness.

    The two fuels alternate and the median of the pairs' ratios is kept,
    so a drift in machine speed cancels within each pair.
    """
    witness = nl["syntax"].parse(SCALING_WITNESS)
    out = {}
    for machine in MACHINES:
        module, fn = EVALUATORS[machine]
        evaluate = getattr(nl[module], fn)
        ratios: list = []
        spent = 0.0
        while len(ratios) < 3 or (spent < 0.5 and len(ratios) < 25):
            times = []
            for f in (fuel, 2 * fuel):
                start = time.perf_counter()
                evaluate(witness, f)
                times.append(time.perf_counter() - start)
            spent += sum(times)
            ratios.append(times[1] / times[0])
        out[machine] = statistics.median(ratios)
    return out


class Record(NamedTuple):
    """What a round keeps of one operation."""

    kind: str
    what: str
    item: int
    failed: bool
    seconds: float  # as measured
    steps: int
    unit: int  # the calibration unit run next

    @property
    def machine(self) -> str | None:
        """The machine whose steps the operation drives, if any."""
        if self.kind in ("eval", "trace"):
            return self.what
        return {"sim": SIM_SOURCE.get(self.what), "cl": "lstep"}.get(self.kind)


def typical_ops(done: list, calibration: Calibration) -> dict:
    """(kind, what, item) -> (median calibrated seconds over rounds, steps).

    Medians drop the few calls a descheduled virtual CPU stretches by
    milliseconds; steps are the same in every round.
    """
    seen: dict = {}
    for r in done:
        seconds = r.seconds * calibration.scale_at(r.unit)
        seen.setdefault((r.kind, r.what, r.item), ([], r.steps))[0].append(seconds)
    return {key: (statistics.median(times), steps) for key, (times, steps) in seen.items()}


def per_kind(typical: dict) -> dict:
    """(kind, what) -> [seconds, steps] of one typical round."""
    totals: dict = {}
    for (kind, what, _), (seconds, steps) in typical.items():
        t = totals.setdefault((kind, what), [0.0, 0])
        t[0] += seconds
        t[1] += steps
    return totals


def end_to_end(done: list, calibration: Calibration) -> dict:
    """Calibrated throughput and latency of a typical round's completed operations."""
    typical = typical_ops(done, calibration)
    seconds = sum(t for t, _ in typical.values())
    steps = sum(n for _, n in typical.values())
    kinds = [t / n for t, n in per_kind(typical).values() if n]
    return {
        "us_per_step": (seconds / steps * 1e6, "us/step"),
        "us_per_step_gmean": (statistics.geometric_mean(kinds) * 1e6, "us/step"),
        "op_ms_gmean": (statistics.geometric_mean([t for t, _ in typical.values()]) * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrunken inputs for quick checks")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "needlab", "__init__.py")):
        print(f"needlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.setrecursionlimit(20_000)  # the reference evaluators recurse over term depth
    size = SMALL if args.small else FULL

    tracer = Tracer() if args.trace else None
    nl, inputs, setup_s = setup(args.workload, size, tracer)
    if not os.path.abspath(nl["terms"].__file__).startswith(SRC + os.sep):
        print("needlab was imported from outside this checkout", file=sys.stderr)
        return 2
    setup_calls, setup_self = (list(tracer.calls), list(tracer.self_s)) if tracer else ([], [])
    work = Workload(args.workload, nl, inputs, size)
    order = random.Random(args.seed)
    ratios = scaling_ratios(nl, size["scaling_fuel"]) if args.trace else {}

    rounds = []
    calibration = Calibration()
    for _ in range(CALIBRATION_WINDOW):  # the first operations' window
        calibration.unit()
    started = time.perf_counter()
    while True:
        # A fresh order every round, so the calls that happen to run just
        # after a garbage collection or a cold cache differ between rounds.
        order.shuffle(work.ops)
        # The benchmark's own objects (inputs, references, records) are
        # moved out of the collector's sight, so collections inside the
        # operations scan only what needlab allocates.
        gc.collect()
        gc.freeze()
        if tracer:
            tracer.install()
        for op in work.ops:
            work.run(op)
            op.unit = len(calibration.units)
            calibration.after(op.seconds)
        if tracer:
            tracer.remove()
        work.check(work.ops)
        rounds.append([Record(op.kind, op.what, op.item, op.failed, op.seconds, op.steps, op.unit)
                       for op in work.ops])
        for op in work.ops:
            op.failed, op.seconds, op.steps, op.result = False, 0.0, 0, None
        if time.perf_counter() - started >= args.seconds:
            break

    done = [r for ops in rounds for r in ops if not r.failed]
    attempted = sum(len(ops) for ops in rounds)
    failed = attempted - len(done)
    n_rounds = len(rounds)

    if tracer:
        metrics = {}
        # one set-up plus one round, self times scaled like the end-to-end ones
        scale = calibration.scale()
        for i, name in enumerate(NAMES):
            calls = setup_calls[i] + (tracer.calls[i] - setup_calls[i]) / n_rounds
            self_s = setup_self[i] + (tracer.self_s[i] - setup_self[i]) / n_rounds
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s * scale, "s")
        for machine in MACHINES:
            machine_steps = sum(r.steps for r in done if r.machine == machine)
            metrics[f"{machine}.steps"] = (machine_steps / n_rounds, "count")
        for machine in MACHINES:
            metrics[f"{machine}.scaling_ratio"] = (ratios[machine], "ratio")
        metrics["traced.us_per_step"] = end_to_end(done, calibration)["us_per_step"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **end_to_end(done, calibration),
        }

    result = {
        "correct": not work.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report(args, work, rounds, metrics, result, calibration)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write(stem + "-spans.csv.gz")
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


def report(args, work: Workload, rounds: list, metrics: dict, result: dict,
           calibration: Calibration) -> None:
    """Human-readable summary, printed before the JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}  "
          f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    units = calibration.units
    print(f"  calibration: {len(units)} units, median {statistics.median(units) * 1e3:.3f} ms "
          f"(min {min(units) * 1e3:.3f}, max {max(units) * 1e3:.3f}); times are scaled by "
          f"{calibration.scale():.4f} overall, by the units around each operation")
    for error in work.errors[:10]:
        print(f"  CHECK FAILED: {error}")
    failures: dict = {}
    for r in rounds[-1]:
        if r.failed:
            failures[(r.kind, r.what)] = failures.get((r.kind, r.what), 0) + 1
    for (kind, what), n in sorted(failures.items()):
        print(f"  failed per round: {n} x {kind} {what}")
    done = [r for ops in rounds for r in ops if not r.failed]
    for (kind, what), (seconds, steps) in sorted(per_kind(typical_ops(done, calibration)).items()):
        if steps:
            us = seconds / steps * 1e6
            print(f"  {kind:5} {what:13} {us:10.1f} us/step  ({steps} steps per round)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.6f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
