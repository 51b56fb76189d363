"""The public names the package exports."""

import ast
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
