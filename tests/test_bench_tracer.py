"""The benchmark's tracer wraps needlab functions by name, so a function
renamed or deleted in the package breaks a traced benchmark run
(``bench/run.py --trace 1``).  Check every name here, where tier-1 sees it."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves_on_the_needlab_modules():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.NAMES) == sum(len(fns) for fns in tracer.TRACED.values()) > 40
    for name in tracer.NAMES:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"needlab.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"needlab.{name} is gone"
        assert callable(owner), name
