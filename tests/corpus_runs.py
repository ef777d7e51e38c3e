"""The reference runs under tests/corpus: what each one runs, how it is rerun,
and how a rerun is compared with the committed outputs.

Each case is one CLI verb on one config. Its committed outputs are
tests/corpus/<case>/run.json (exit code, stdout and stderr) and the artifacts
under tests/corpus/<case>/out. A rerun runs cli.main in this process from a
scratch directory with relative paths, so no absolute path reaches an output.
test_corpus.py asserts that a rerun matches; regen_corpus.py reports what
moved and rewrites the corpus.
"""

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path

from common import VARIABLE, problem
from simulheat import cli

CORPUS = Path(__file__).resolve().parent / "corpus"


def _variable(n):
    """The VARIABLE profile sampled as a config's coefficients: kappa at the cell centers, a at the faces."""
    grid = problem(n, **VARIABLE)
    return {"kappa": grid.kappa.tolist(), "a": grid.a.tolist()}


# case name -> (verb, config); every case is small, so the set reruns in a few seconds
CASES = {
    "control-hum": ("control", {"n": 32, "region": "0.2,0.3", "method": "hum", "seed": 0}),
    "control-lr": ("control", {"n": 32, "region": "0.2,0.3", "method": "lr", "seed": 0}),
    "control-hum-variable": ("control", {"n": 64, "region": "0.2,0.4", "method": "hum", "coefficients": _variable(64)}),
    "fatcantor": ("fatcantor", {"n": 64, "cantor_measure": 0.3, "cantor_depth": 4, "seed": 0}),
    "specineq-sweep": ("specineq", {"n": 160, "region": "0.45,0.55", "lambda_sweep": [4.0, 7.0]}),
    "specineq-horizon": ("specineq", {"n": 128, "region": "0.45,0.55", "lambda_sweep": [4.0, 13.0]}),
    "double-check": ("double-check", {"n": 32}),
    "simulate-dirichlet": ("simulate", {"n": 32, "bc": "dirichlet"}),
    "simulate-neumann": ("simulate", {"n": 32, "bc": "neumann"}),
    "malformed-T": ("simulate", {"n": 8, "T": 0.0}),
}

# (rtol, atol) of each artifact's floats: a value may move from the committed x
# by atol + rtol |x|. Every other token (exit codes, streams, headers, integers,
# INF, masks) must match exactly. Control and simulate outputs are in units of
# the unit-norm initial pair; one against two BLAS threads moves control-hum-
# variable's signal by up to 9.5e-10 (on an entry of 0.026), its norms by 1.6e-12
# and its control_cost by 2.3e-12. The doubling residuals are rounding noise, so
# they may move below the tightest pass bar, 1e-12.
TOLERANCE = {
    "control.csv": (1e-9, 1e-8),
    "norms.csv": (1e-9, 1e-10),
    "summary.json": (1e-9, 1e-10),
    "cost_ledger.json": (1e-9, 1e-10),
    "constants.csv": (1e-9, 0.0),
    "fit.json": (1e-9, 0.0),
    "spectrum_dirichlet.csv": (1e-12, 0.0),
    "spectrum_neumann.csv": (1e-12, 0.0),
    "spectrum_double.csv": (1e-12, 0.0),
    "double_check.json": (1e-12, 1e-12),
}

_INT = re.compile(r"-?\d+")


def run_case(name, workdir):
    """Run case name from workdir; return (exit code, stdout, stderr, {artifact name: text})."""
    verb, config = CASES[name]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "config.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([verb, "--config", "config.json", "--output-dir", "out"])
    finally:
        os.chdir(cwd)
    outdir = workdir / "out"
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())} if outdir.is_dir() else {}
    return code, out.getvalue(), err.getvalue(), files


def load_case(name):
    """The committed outputs of case name, as run_case returns them."""
    case = CORPUS / name
    run = json.loads((case / "run.json").read_text())
    outdir = case / "out"
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())} if outdir.is_dir() else {}
    return run["exit"], run["stdout"], run["stderr"], files


def save_case(name, result):
    """Write result, as run_case returns it, as the committed outputs of case name."""
    code, stdout, stderr, files = result
    case = CORPUS / name
    outdir = case / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in set(p.name for p in outdir.iterdir()) - set(files):
        (outdir / stale).unlink()
    for fname, text in files.items():
        (outdir / fname).write_text(text)
    run = {"verb": CASES[name][0], "config": CASES[name][1], "exit": code, "stdout": stdout, "stderr": stderr}
    (case / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")


def _token(where, a, b, moved):
    """Compare two CSV tokens: two differing numbers, neither an integer, are
    recorded with their values, any other difference without."""
    if a == b:
        return
    x = y = None
    if not (_INT.fullmatch(a) or _INT.fullmatch(b)):
        try:
            x, y = float(a), float(b)
        except ValueError:
            pass
    moved.append((where, a, b, x, y))


def _json(where, a, b, moved):
    """Compare two parsed JSON values: differing floats are recorded with their
    values, any other difference without."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b:
            moved.append((where, repr(a), repr(b), a, b))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _json(f"{where}.{k}", a[k], b[k], moved)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _json(f"{where}[{i}]", x, y, moved)
    elif type(a) is not type(b) or a != b:
        moved.append((where, json.dumps(a)[:80], json.dumps(b)[:80], None, None))


def _compare_file(fname, expected, actual, moved):
    if fname.endswith(".json"):
        _json(fname, json.loads(expected), json.loads(actual), moved)
    elif fname.endswith(".csv"):
        old, new = expected.splitlines(), actual.splitlines()
        if len(old) != len(new):
            moved.append((f"{fname} line count", str(len(old)), str(len(new)), None, None))
            return
        for i, (lo, ln) in enumerate(zip(old, new)):
            to, tn = lo.split(","), ln.split(",")
            if i == 0 or len(to) != len(tn):  # a header or a row of another width
                to, tn = [lo], [ln]
            for j, (a, b) in enumerate(zip(to, tn)):
                _token(f"{fname}:{i + 1}:{j + 1}", a, b, moved)
    elif expected != actual:
        moved.append((fname, expected[:80], actual[:80], None, None))


def compare(expected, actual):
    """Every difference between two results of run_case, as (file, where,
    expected, actual, x, y): x and y are the two floats, or None for a
    difference that no tolerance allows."""
    moved = []
    for where, a, b in zip(("exit", "stdout", "stderr"), expected[:3], actual[:3]):
        if a != b:
            moved.append((where, where, repr(a), repr(b), None, None))
    old, new = expected[3], actual[3]
    for fname in sorted(set(old) | set(new)):
        if fname not in old or fname not in new:
            moved.append((fname, fname, str(fname in old), str(fname in new), None, None))
            continue
        diffs = []
        _compare_file(fname, old[fname], new[fname], diffs)
        moved += [(fname, *d) for d in diffs]
    return moved


def relative_change(entry):
    """|y - x| / max(|x|, |y|) of an entry of compare, infinite for a difference of no floats."""
    x, y = entry[4:]
    if x is None or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0


def within_tolerance(entry):
    """Whether an entry of compare moved no more than its file's tolerance allows."""
    x, y = entry[4:]
    rtol, atol = TOLERANCE.get(entry[0], (0.0, 0.0))
    return x is not None and abs(y - x) <= atol + rtol * abs(x)


def beyond_tolerance(moved):
    """The entries of compare that their file's tolerance does not allow."""
    return [m for m in moved if not within_tolerance(m)]
