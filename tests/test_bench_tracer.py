"""The benchmark reads needlab by name: its tracer wraps functions listed
by name, and ``bench/run.py`` looks attributes up on the modules it
imports.  A name renamed or deleted in the package breaks a benchmark run,
or, read through getattr with a default, silently changes what it
measures.  Check every name here, where tier-1 sees it."""
import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
RUN = BENCH / "run.py"


def _resolve(name: str):
    """needlab.<name>, one dotted attribute at a time; None if one is gone."""
    module_name, attr = name.split(".", 1)
    owner = importlib.import_module(f"needlab.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _module_read(node, aliases: dict):
    """The needlab module a node reads: nl["m"] or self.nl["m"], or a name
    bound to one of those; None for anything else."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
        return None
    base = node.value
    if (isinstance(base, ast.Name) and base.id == "nl") or (
        isinstance(base, ast.Attribute) and base.attr == "nl"
    ):
        return node.slice.value
    return None


def _run_reads() -> set:
    """Every dotted needlab name bench/run.py reads: the EVALUATORS table,
    attribute chains on a module it imported (directly or through a local
    name), and getattr on one with a constant name."""
    tree = ast.parse(RUN.read_text())
    reads = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EVALUATORS" for t in node.targets
        ):
            reads |= {f"{m}.{fn}" for m, fn in ast.literal_eval(node.value).values()}
    aliases = {}  # run.py binds no name to two different modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            module = _module_read(node.value, {})
            if module is not None:
                aliases[node.targets[0].id] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            module = _module_read(base, aliases)
            if module is not None:
                reads.add(".".join([module, *reversed(parts)]))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(node.args[1], ast.Constant)
            and _module_read(node.args[0], aliases) is not None
        ):
            reads.add(f"{_module_read(node.args[0], aliases)}.{node.args[1].value}")
    return reads


def test_every_traced_name_resolves_on_the_needlab_modules():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.NAMES) == sum(len(fns) for fns in tracer.TRACED.values()) > 40
    for name in tracer.NAMES:
        owner = _resolve(name)
        assert owner is not None, f"needlab.{name} is gone"
        assert callable(owner), name


def test_every_name_the_benchmark_reads_resolves_on_the_needlab_modules():
    reads = _run_reads()
    # the names the reader must find, among them gen._enum_db, which run.py
    # reads through getattr with a default: losing it would stop the audits'
    # fresh enumeration without an error
    assert {
        "need.eval_sr",
        "prelude.expand_prelude",
        "harness.check_unique_decomposition",
        "harness.check_confluence",
        "harness.answer_value",
        "lstep.is_labeled_value",
        "terms.NameSupply.for_term",
        "gen._enum_db",
    } <= reads
    for name in sorted(reads):
        assert _resolve(name) is not None, f"needlab.{name} is gone"
