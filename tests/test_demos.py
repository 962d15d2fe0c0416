"""The demos are not run by the tests; their imports from pheat are checked.
The README's python blocks have their imports checked, and its library
example is run."""

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


def _readme_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_imports_from_pheat_exist():
    blocks = _readme_blocks((ROOT / "README.md").read_text())
    assert blocks
    for i, block in enumerate(blocks):
        _check_pheat_imports(block, f"README.md python block {i}")


def test_readme_library_example_runs():
    # catches keyword and API drift that an import check cannot see
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    example = _readme_blocks(section)[0]
    namespace = {}
    exec(compile(example, "README.md library example", "exec"), namespace)
    report = namespace["report"]
    assert 0.0 < report.sq_l2_v < float("inf") and 0.0 < report.sq_linfty_l2 < float("inf")
