"""The demos and the README's code blocks run against the current API.

Each demo is run to completion in a subprocess, and so are the README's
Python blocks, top to bottom in one interpreter, as a reader would paste
them; every name they import from simulheat is also checked to exist.
"""

import ast
import importlib
import re

import pytest

from common import ROOT, run_python

DEMOS = ROOT / "demos"
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


@pytest.mark.parametrize("demo", ["constant_sweep.py", "double_spectrum.py", "shared_signal_run.py"])
def test_quick_demo_runs(demo):
    assert run_python(str(DEMOS / demo))


def test_readme_blocks_run_in_order():
    assert len(README_BLOCKS) >= 3
    assert run_python("-c", "\n".join(README_BLOCKS))


def test_sweep_demo_imports_exist():
    """Every name a demo or a README code block imports from simulheat exists."""
    sources = {path.name: path.read_text() for path in sorted(DEMOS.glob("*.py"))}
    sources.update((f"README block {i}", block) for i, block in enumerate(README_BLOCKS))
    imported = {}
    for where, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simulheat":
                imported.setdefault(where, []).extend((node.module, alias.name) for alias in node.names)
    assert "constant_sweep.py" in imported and len(imported) >= 4
    missing = [
        f"{where}: {module}.{name}"
        for where, names in imported.items()
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
