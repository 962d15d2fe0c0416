"""The demos and the README's examples are not run by the tests; their
imports from pheat are checked."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _check_pheat_imports(source, label):
    for node in ast.walk(ast.parse(source)):
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
                assert hasattr(imported, name), f"{label}: {module}.{name}"


def test_demo_imports_from_pheat_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        _check_pheat_imports(demo.read_text(), demo.name)


def test_readme_imports_from_pheat_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        _check_pheat_imports(block, f"README.md python block {i}")
