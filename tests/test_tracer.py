"""The benchmark tracer is not run by the tests; the names it wraps are checked.

`perfbench/tracer.py` replaces functions at the attribute where pheat looks
them up, by `w(owner, "name", ...)` calls.  A refactor that moves one of
these names would break a traced benchmark run, so every owner and name is
resolved here from the source text alone.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _owner(node):
    """The dotted name of an owner expression: `assembly`, `fespace.FeSpace`."""
    if isinstance(node, ast.Name):
        return node.id
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return f"{_owner(node.value)}.{node.attr}"


def test_tracer_wrapped_names_exist():
    wrapped = []
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "w":
            owner, name = node.args[:2]
            wrapped.append((_owner(owner), name.value))
    assert len(wrapped) > 10
    for owner, name in wrapped:
        module, *attrs = owner.split(".")
        obj = importlib.import_module(f"pheat.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(getattr(obj, name, None)), f"{owner}.{name}"
