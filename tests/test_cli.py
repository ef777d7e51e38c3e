"""Command-line front end: exit codes, artifact layout, and determinism.

Every test drives cli.main in process and reads the artifacts back from a
temporary directory.
"""

import importlib
import inspect
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import simulheat
import simulheat.control
import simulheat.doubling
import simulheat.operators
import simulheat.sim
import simulheat.specineq
from common import mirror_flipped
from simulheat import cli
from simulheat.spectral import l2_norm


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def run(tmp_path, verb, extra=(), **fields):
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "out"
    code = cli.main([verb, "--config", cfg, "--output-dir", str(out), *extra])
    return code, out


def test_missing_config_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["double-check"])


def test_unknown_verb_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, n=8)
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", cfg])


@pytest.mark.parametrize(
    "fields",
    [
        {},  # n missing
        {"n": 1},
        {"n": 2.5},
        {"n": 8, "mystery_knob": 1},
        {"n": 8, "method": "shooting"},
        {"n": 8, "bc": "periodic"},
        {"n": 8, "T": 0.0},
        {"n": 8, "length": -1.0},
        {"n": 8, "lambda_sweep": [4.0, -2.0]},
        # mistyped fields are config errors too, not tracebacks
        {"n": 8, "T": "a"},
        {"n": 8, "region": 5},
        {"n": 8, "tolerances": [1]},
        {"n": 8, "lambda_sweep": [2, "x"]},
        {"n": 8, "steps": "x"},
        {"n": 8, "lambda0": "x"},
        # JSON's NaN and Infinity parse as floats, but no field takes them
        {"n": 8, "lambda_sweep": [float("nan"), 4]},
        {"n": 8, "method": "lr", "lambda0": float("nan")},
        {"n": 8, "T": float("nan")},
        {"n": 8, "T": float("inf")},
        {"n": 8, "coefficients": {"kappa": [1.0] * 7 + [None], "a": [1.0] * 9}},
        # finite lengths whose 1/h^2 overflows or underflows
        {"n": 8, "length": 1e200},
        {"n": 8, "length": 1e-200},
    ],
)
def test_config_validation_failures_exit_2(tmp_path, capsys, fields):
    code, _ = run(tmp_path, "simulate", **fields)
    assert code == 2
    if fields:  # the message names the offending field
        assert list(fields)[-1] in capsys.readouterr().err


def test_readme_config_table_lists_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("| key | meaning | default |") + 2  # past the header and its rule
    keys = set()
    for line in itertools.takewhile(lambda l: l.startswith("|"), readme[start:]):
        keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == set(cli.ExperimentConfig.__dataclass_fields__)


def test_unreadable_and_malformed_configs_exit_2(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert cli.main(["simulate", "--config", str(lst)]) == 2


def test_missing_mask_file_exits_2(tmp_path):
    code, _ = run(
        tmp_path, "control", n=16, region=str(tmp_path / "no_such.mask"), T=0.5
    )
    assert code == 2


def test_double_check_frozen_two_cell_spectra(tmp_path):
    code, out = run(tmp_path, "double-check", n=2)
    assert code == 0
    assert (out / "spectrum_dirichlet.csv").read_text() == "k,eigenvalue\n0,8.0\n1,16.0\n"
    assert (out / "spectrum_neumann.csv").read_text() == "k,eigenvalue\n0,0.0\n1,8.0\n"
    double = (out / "spectrum_double.csv").read_text().splitlines()
    assert double[0] == "k,eigenvalue"
    np.testing.assert_allclose(
        [float(line.split(",")[1]) for line in double[1:]],
        [0.0, 8.0, 8.0, 16.0], rtol=1e-12, atol=1e-12,
    )
    report = json.loads((out / "double_check.json").read_text())
    assert report["all_pass"]
    assert set(report["checks"]) == {
        "spectrum_union", "extension_eigenvectors", "link_identity", "split_roundtrip",
    }
    assert all(c["pass"] for c in report["checks"].values())


def test_double_check_with_sampled_coefficients(tmp_path):
    n = 64
    h = 1.0 / n
    kappa = [1.0 + 0.5 * (i + 0.5) * h for i in range(n)]
    code, out = run(
        tmp_path, "double-check", n=n, coefficients={"kappa": kappa, "a": [1.0] * (n + 1)}
    )
    assert code == 0
    report = json.loads((out / "double_check.json").read_text())
    assert report["all_pass"]
    assert report["checks"]["spectrum_union"]["max_residual"] <= 1e-9


def test_double_check_exits_4_on_a_broken_doubling(tmp_path, monkeypatch):
    build = cli.build_double
    monkeypatch.setattr(cli, "build_double", lambda grid, coeffs: mirror_flipped(build(grid, coeffs), 1))
    code, out = run(tmp_path, "double-check", n=16)
    assert code == 4
    report = json.loads((out / "double_check.json").read_text())
    assert not report["all_pass"]
    assert not report["checks"]["extension_eigenvectors"]["pass"]
    assert report["checks"]["spectrum_union"]["pass"]


def test_double_check_rejects_misshapen_coefficients(tmp_path):
    code, _ = run(
        tmp_path, "double-check", n=8, coefficients={"kappa": [1.0] * 7, "a": [1.0] * 9}
    )
    assert code == 2


def test_specineq_whole_domain_constants(tmp_path):
    code, out = run(
        tmp_path, "specineq", n=16, region="0,1", lambda_sweep=[4.0, 7.0, 10.0]
    )
    assert code == 0
    lines = (out / "constants.csv").read_text().splitlines()
    assert lines[0] == "family,lambda,mode_count,region_measure,method,constant"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"dirichlet", "neumann", "simultaneous"}
    # observing a wall family through the whole domain makes the L2 surrogate
    # exactly trivial; the circle family still sees only the lifted half
    for r in rows:
        if r[4] == "sigma-min-l2" and r[0] != "simultaneous":
            assert abs(float(r[5]) - 1.0) <= 1e-10
        else:
            assert r[4] in ("exact-lp", "sigma-min-l2")
            assert np.isfinite(float(r[5]))
            assert float(r[5]) >= 1.0 - 1e-12
    fits = json.loads((out / "fit.json").read_text())["fits"]
    assert set(fits) == {"dirichlet", "neumann", "simultaneous"}
    for fit in fits.values():
        assert fit is not None and np.isfinite(fit["slope"])


def test_specineq_rank_deficient_sweep_exits_3(tmp_path):
    code, out = run(tmp_path, "specineq", n=8, region="0.05,0.1", lambda_sweep=[8.0])
    assert code == 3
    body = (out / "constants.csv").read_text()
    assert ",INF" in body  # the LP reports the deficiency rather than a number
    fits = json.loads((out / "fit.json").read_text())["fits"]
    assert all(fit is None for fit in fits.values())


def test_specineq_at_float64_horizon_is_silent_and_ignores_threads(tmp_path, capfd):
    # lambda=13 puts the circle at K=9 with sigma_min/sigma_max ~ 1.4e-12
    code, out = run(
        tmp_path, "specineq", ("--threads", "2"), n=128, region="0.45,0.55", lambda_sweep=[4.0, 13.0]
    )
    assert code == 0
    assert capfd.readouterr() == ("", "")
    assert len((out / "constants.csv").read_text().splitlines()) == 13


def test_specineq_wide_exact_lp_bracket_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(simulheat.specineq, "_BRACKET_TOL", 0.0)
    code, _ = run(tmp_path, "specineq", n=32, region="0.3,0.6", lambda_sweep=[10.0])
    assert code == 3


def test_specineq_requires_region_and_sweep(tmp_path):
    code, _ = run(tmp_path, "specineq", n=16, lambda_sweep=[4.0])
    assert code == 2
    code, _ = run(tmp_path, "specineq", n=16, region="0,1")
    assert code == 2


def test_control_one_shot_artifacts(tmp_path):
    code, out = run(tmp_path, "control", n=32, region="0.2,0.3", T=1.0, method="hum")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    scale = max(summary["initial_u_l2"], summary["initial_v_l2"])
    assert summary["final_u_l2"] <= summary["tolerance"] * scale
    assert summary["final_v_l2"] <= summary["tolerance"] * scale
    assert summary["control_cost"] > 0.0
    assert summary["config"]["n"] == 32
    assert summary["config"]["region"] == "0.2,0.3"

    control_lines = (out / "control.csv").read_text().splitlines()
    assert control_lines[0] == "t,cell_6,cell_7,cell_8,cell_9"
    assert all(len(line.split(",")) == 5 for line in control_lines[1:])
    final_row = control_lines[-1].split(",")
    assert all(x == "0.0" for x in final_row[1:])  # signal closes at rest

    norm_lines = (out / "norms.csv").read_text().splitlines()
    assert norm_lines[0] == "trajectory,t,l2,sup"
    families = {line.split(",")[0] for line in norm_lines[1:]}
    assert families == {"dirichlet", "neumann", "double"}
    assert not (out / "cost_ledger.json").exists()  # one-shot runs have no slices


def test_csv_rows_write_each_value_as_fmt_does():
    table = np.array([[np.inf, -np.inf, np.nan, -0.0, 5e-324], [1.0 / 3.0, -2.5e-310, 0.0, 1e300, -7.0]])
    assert cli._csv_rows(table) == [",".join(cli._fmt(x) for x in row) for row in table]
    assert cli._csv_rows(table)[0] == "INF,INF,nan,-0.0,5e-324"


def count_calls(monkeypatch, home, name):
    """Record the results of home.name called through any simulheat module."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("simulheat") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_control_builds_the_doubled_problem_once(tmp_path, monkeypatch):
    builds = count_calls(monkeypatch, simulheat.doubling, "build_double")
    solves = count_calls(monkeypatch, simulheat.operators, "eigendecompose")
    code, _ = run(tmp_path, "control", n=16, region="0.2,0.5", T=1.0, method="hum")
    assert code == 0
    assert len(builds) == 1
    assert len(solves) == 2  # one per wall; the circle basis is built from them


def test_simulate_propagates_once(tmp_path, monkeypatch):
    propagations = count_calls(monkeypatch, simulheat.sim, "propagate")
    code, _ = run(tmp_path, "simulate", n=16, T=0.5)
    assert code == 0
    assert len(propagations) == 1


def test_control_marches_once_per_trajectory(tmp_path, monkeypatch):
    marches = count_calls(monkeypatch, simulheat.control, "march")
    code, _ = run(tmp_path, "control", n=16, region="0.2,0.5", T=1.0, method="hum")
    assert code == 0
    assert len(marches) == 3  # the Dirichlet, Neumann and circle runs


def test_specineq_builds_the_circle_basis_once(tmp_path, monkeypatch):
    bases = count_calls(monkeypatch, simulheat.operators, "EigenBasis")
    code, out = run(tmp_path, "specineq", n=16, region="0.2,0.8", lambda_sweep=[4.0, 7.0])
    assert code == 0
    rows = (out / "constants.csv").read_text().splitlines()[1:]
    assert {r.split(",")[1] for r in rows if r.startswith("simultaneous,")} == {"4.0", "7.0"}
    circles = [b for b in bases if b.bc is simulheat.operators.BoundaryCondition.PERIODIC]
    assert len(circles) == 1
    assert len(bases) == 3  # the two wall bases and the circle basis


def test_specineq_takes_two_svds_per_family(tmp_path, monkeypatch):
    # one for the rank decision, whose sigma_min gives the sigma-min-l2 row,
    # and one for the LP rows
    svd = scipy.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counted)
    code, out = run(tmp_path, "specineq", n=16, region="0.2,0.8", lambda_sweep=[7.0])
    assert code == 0
    assert len((out / "constants.csv").read_text().splitlines()) == 1 + 3 * 2
    assert len(calls) == 6


def test_control_cascade_writes_the_cost_ledger(tmp_path):
    code, out = run(tmp_path, "control", n=32, region="0.2,0.3", T=1.0, method="lr")
    assert code == 0
    ledger = json.loads((out / "cost_ledger.json").read_text())["slices"]
    assert len(ledger) >= 1
    for row in ledger:
        assert set(row) == {"j", "lambda", "active_cost", "pre_norm", "post_norm"}
        assert row["post_norm"] <= row["pre_norm"] * (1.0 + 1e-12)


def test_control_tolerance_miss_exits_4_with_summary(tmp_path):
    code, out = run(
        tmp_path, "control",
        n=32, region="0.2,0.3", T=1.0, method="hum", tolerances={"hum": 1e-30},
    )
    assert code == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["tolerance"] == 1e-30


def test_control_unobservable_region_exits_3(tmp_path):
    # the second Dirichlet mode on nine cells vanishes at the center cell, so
    # a center-cell control cannot reach the target and the run must say so
    code, out = run(tmp_path, "control", n=9, region="0.45,0.55", T=0.1, method="hum")
    assert code == 3
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("method", ["hum", "lr"])
@pytest.mark.parametrize("T", [1e-300, 1e-320])
def test_control_whose_steering_underflows_exits_3(tmp_path, capsys, method, T):
    # a well-formed config: the miss lies in the arithmetic, not in a field
    code, out = run(tmp_path, "control", n=16, region="0.2,0.5", T=T, method=method)
    assert code == 3
    assert "numerical infeasibility: steering" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_an_exit_3_run_prints_one_stderr_line(tmp_path):
    # in a fresh interpreter that prints every warning, each of the four
    # underflowing runs above leaves its message and nothing else on stderr
    configs = [
        write_config(tmp_path, f"{method}_{T:g}.json", n=16, region="0.2,0.5", T=T, method=method)
        for method in ("hum", "lr") for T in (1e-300, 1e-320)
    ]
    script = (
        "import sys\nfrom simulheat import cli\n"
        "for c in sys.argv[1:]:\n    print(cli.main(['control', '--config', c, '--output-dir', c + '.out']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "always", "-c", script, *configs],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["3"] * 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 4, proc.stderr
    assert all(line.startswith("numerical infeasibility: steering") for line in lines)


def test_one_hum_run_makes_one_steering_call(tmp_path, monkeypatch):
    steers = count_calls(monkeypatch, simulheat.control, "hum_low_mode_control")
    code, _ = run(tmp_path, "control", n=16, region="0.2,0.5", T=1.0, method="hum")
    assert code == 0
    assert len(steers) == 1


def test_every_program_error_exits_2_or_3():
    # main maps ValueError to exit 2 and NumericalError to exit 3; any other
    # exception class would escape as a traceback with exit 1
    for info in pkgutil.iter_modules(simulheat.__path__):
        module = importlib.import_module(f"simulheat.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                assert issubclass(obj, (ValueError, simulheat.operators.NumericalError)), name


def test_control_requires_region(tmp_path):
    code, _ = run(tmp_path, "control", n=16, T=1.0)
    assert code == 2


def test_fatcantor_writes_mask(tmp_path):
    code, out = run(tmp_path, "fatcantor", n=256, cantor_measure=0.25, cantor_depth=4)
    assert code == 0
    line = (out / "cantor_mask.txt").read_text().strip()
    assert len(line) == 256 and set(line) <= {"0", "1"}
    assert line.count("1") == 64  # 0.25 of 256 cells


def test_fatcantor_unrepresentable_target_exits_2(tmp_path):
    code, _ = run(tmp_path, "fatcantor", n=8, cantor_measure=0.01, cantor_depth=3)
    assert code == 2


def test_fatcantor_requires_parameters(tmp_path):
    code, _ = run(tmp_path, "fatcantor", n=64, cantor_depth=3)
    assert code == 2
    code, _ = run(tmp_path, "fatcantor", n=64, cantor_measure=0.25)
    assert code == 2


def test_fatcantor_depth_above_n_exits_2_naming_the_field(tmp_path, capsys):
    code, _ = run(tmp_path, "fatcantor", n=64, cantor_measure=0.3, cantor_depth=10**12)
    assert code == 2
    assert "cantor_depth" in capsys.readouterr().err
    code, _ = run(tmp_path, "fatcantor", n=64, cantor_measure=0.3, cantor_depth=64)
    assert code == 0


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, outdir):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "cmd_control", exhausted)
    code, _ = run(tmp_path, "control", n=32, region="0.2,0.3", steps=10**11)
    assert code == 3
    assert "out of memory" in capsys.readouterr().err


def test_simulate_reports_dissipation(tmp_path):
    code, out = run(tmp_path, "simulate", n=24, bc="neumann", T=0.5)
    assert code == 0
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "trajectory,t,l2,sup"
    assert len(lines) == 66  # 65 time nodes
    assert all(line.startswith("neumann,") for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dissipative"] is True
    assert summary["final_l2"] <= summary["initial_l2"]
    # the first row is the seeded u0 itself, not u0 rebuilt from its modes
    grid, _ = cli.build_problem(cli.ExperimentConfig(n=24))
    assert summary["initial_l2"] == l2_norm(grid, cli._seeded_unit_pair(grid, 0)[0])


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, n=32, region="0.2,0.3", T=1.0, method="hum", seed=5)
    out = tmp_path / "out"
    names = ("control.csv", "norms.csv", "summary.json")

    assert cli.main(["control", "--config", cfg, "--output-dir", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert cli.main(["control", "--config", cfg, "--output-dir", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]


def test_seed_override_changes_the_run(tmp_path):
    cfg = write_config(tmp_path, n=32, region="0.2,0.3", T=1.0, method="hum")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["control", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert cli.main(["control", "--config", cfg, "--output-dir", str(out_b), "--seed", "1"]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa["config"]["seed"] == 0 and sb["config"]["seed"] == 1
    # initial norms are both 1 by construction; the drawn pair is not
    assert sa["control_cost"] != sb["control_cost"]


def test_output_dir_is_created_deep(tmp_path):
    cfg = write_config(tmp_path, n=8)
    nested = tmp_path / "a" / "b" / "c"
    assert cli.main(["double-check", "--config", cfg, "--output-dir", str(nested)]) == 0
    assert (nested / "double_check.json").exists()
