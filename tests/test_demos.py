"""The demos are not run by the tests; their imports from pheat are checked."""

import ast
import importlib
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demo_imports_from_pheat_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] != "pheat":
                    continue
                imported = importlib.import_module(module)
                for name in names:
                    assert hasattr(imported, name), f"{demo.name}: {module}.{name}"
