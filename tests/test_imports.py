import ast
import importlib
import re
from pathlib import Path

import needlab

SRC = Path(needlab.__file__).parent


def _annotations(tree):
    """The annotation nodes of a module: arguments, returns and annotated
    assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set:
    """Names a module reads: every name loaded, the names inside string
    annotations, and the names its __all__ lists."""
    nodes = list(ast.walk(tree))
    for note in _annotations(tree):
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                nodes += ast.walk(ast.parse(sub.value, mode="eval"))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in node.value.elts}
    return used


def _imported(tree):
    """(line, name bound) per import at any depth, __future__ ones aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports_in_the_package():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}" for line, name in _imported(tree) if name not in used]
    assert not unused, unused


def test_readme_names_resolve_on_the_package():
    # every backticked module.name in README.md, `needlab.terms` or
    # `ckh.ImageCache.labeled`, names a module of the package or an
    # attribute path on one
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    modules = {path.stem for path in SRC.glob("*.py")}
    checked, missing = [], []
    for text in re.findall(r"`(\w+(?:\.\w+)+)`", readme):
        module, *attrs = text.removeprefix("needlab.").split(".")
        if module not in modules and not text.startswith("needlab."):
            continue  # not a name in the package
        checked.append(text)
        try:
            target = importlib.import_module(f"needlab.{module}")
            for attr in attrs:
                target = getattr(target, attr)
        except (ImportError, AttributeError):
            missing.append(text)
    assert checked and not missing, missing
