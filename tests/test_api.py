"""The public names the package exports."""

import ast
import importlib
from pathlib import Path

import lgsteer
import lgsteer.errors


def test_every_exported_name_resolves():
    missing = [name for name in lgsteer.__all__ if not hasattr(lgsteer, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(lgsteer.__all__) == len(set(lgsteer.__all__))


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead API; scan the ``raise``
    # statements of the package source for each class by name
    raised = set()
    for path in Path(lgsteer.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {
        name
        for name, obj in vars(lgsteer.errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert sorted(classes - raised) == []


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _resolve(dotted: str):
    obj = lgsteer
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_uses_resolves():
    # the benchmark is pinned to names of the package: a deletion that
    # breaks a traced or timed run must fail here, not only in the run
    for path in Path(lgsteer.__file__).parent.glob("*.py"):
        importlib.import_module(f"lgsteer.{path.stem}")
    tree = ast.parse((BENCHMARKS / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    names = {f"lgsteer.{module}.{function}" for module, function, _ in targets}
    for path in BENCHMARKS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                dotted = ast.unparse(node)
                chain = dotted.replace(".", "_").isidentifier()
                if chain and dotted.startswith("lgsteer."):
                    names.add(dotted)
    assert len(names) > len(targets)
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []
