"""The demos run against the current API.

The two quick demos are run to completion in a subprocess; the slow LP
sweep demo, like the README's code blocks, is only checked for the names it
imports from simulheat.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("demo", ["double_spectrum.py", "shared_signal_run.py"])
def test_quick_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_sweep_demo_imports_exist():
    """Every name a demo or a README code block imports from simulheat exists."""
    sources = {path.name: path.read_text() for path in sorted(DEMOS.glob("*.py"))}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources.update((f"README block {i}", block) for i, block in enumerate(blocks))
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
