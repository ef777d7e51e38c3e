"""The demos run against the current API.

The two quick demos are run to completion in a subprocess; the slow LP
sweep demo is only checked for the names it imports from simulheat.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simulheat

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
    tree = ast.parse((DEMOS / "constant_sweep.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "simulheat"
        for alias in node.names
    ]
    assert names
    missing = [name for name in names if not hasattr(simulheat, name)]
    assert not missing
