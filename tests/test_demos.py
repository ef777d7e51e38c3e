"""The demos and the README run against the current API.

Each demo is run to completion in a subprocess, and so are the README's
Python blocks, top to bottom in one interpreter, as a reader would paste
them; every name they import from simulheat is also checked to exist, and so
is every function the README's prose writes a call to.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re

import pytest

import simulheat
from common import ROOT, run_python

DEMOS = ROOT / "demos"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


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


def test_readme_prose_calls_only_functions_that_exist():
    """Every call `name(...)` or `owner.name(...)` in the README outside its
    code blocks names a function, class or method of a simulheat module, or a
    builtin, and every keyword `key=` it writes is a parameter of a callable
    of that name."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    calls = [(name.rsplit(".", 1)[-1], args) for name, args in re.findall(r"`([\w.]+)\(([^`]*)`", prose)]
    defined = {name: [getattr(builtins, name)] for name in dir(builtins)}
    for info in pkgutil.iter_modules(simulheat.__path__, "simulheat."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if callable(obj) and getattr(obj, "__module__", "") == info.name:
                defined.setdefault(name, []).append(obj)
                if inspect.isclass(obj):
                    for attr, value in vars(obj).items():
                        if callable(value):
                            defined.setdefault(attr, []).append(value)
    called = {name for name, _ in calls}
    assert len(called) >= 20
    assert sorted(called - set(defined)) == []

    def parameters(obj):
        try:
            return inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            return {}

    keywords = [(name, key) for name, args in calls for key in re.findall(r"(\w+)=(?!=)", args)]
    assert len(keywords) >= 5
    stale = [f"{name}({key}=)" for name, key in keywords if not any(key in parameters(f) for f in defined[name])]
    assert stale == []
