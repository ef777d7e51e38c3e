"""Tests of the benchmark itself: python -m pytest bench -q

The checks must reject doctored artifacts, the closed-form bases must be
eigenvectors of the benchmark's own stencil, every workload must run one op
in quick mode, and BENCHMARK.json must name exactly the metrics printed.
"""

import json
import os
import shutil
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _stencil(cells: int, h: float, wall: str) -> np.ndarray:
    """3-point Laplacian with ghost cells: ghost = -first cell, +first cell, or wrap."""
    A = (2.0 * np.eye(cells) - np.eye(cells, k=1) - np.eye(cells, k=-1)) / h**2
    if wall == "periodic":
        A[0, -1] = A[-1, 0] = -1.0 / h**2
    else:
        sign = 1.0 if wall == "dirichlet" else -1.0
        A[0, 0] += sign / h**2
        A[-1, -1] += sign / h**2
    return A


def test_closed_form_modes_are_stencil_eigenvectors():
    n, h = 16, 1.0 / 16
    walls = checks.wall_modes(n)
    for modes, A in (
        (walls["dirichlet"], _stencil(n, h, "dirichlet")),
        (walls["neumann"], _stencil(n, h, "neumann")),
        (checks.circle_modes(walls), _stencil(2 * n, h, "periodic")),
    ):
        E, lam = modes.vectors, modes.eigenvalues
        assert np.max(np.abs(A @ E - E * lam)) <= 1e-9 * lam.max()
        np.testing.assert_allclose(E.T @ (modes.weights[:, None] * E), np.eye(E.shape[1]), atol=1e-12)


@pytest.fixture(scope="module")
def headline_op(tmp_path_factory):
    wl = workloads.WORKLOADS["headline"]()
    wl.prepare(tmp_path_factory.mktemp("headline"))
    codes = wl.op(3, 1)
    return wl, codes


def test_control_check_passes_and_rejects_a_zeroed_column(headline_op, tmp_path):
    wl, codes = headline_op
    failures, costs = wl.check(3, codes, seed=0)
    assert failures == [] and all(c > 0 for c in costs)

    walls = checks.wall_modes(wl.n)
    pair = checks.unit_pair(wl.n, 3)
    doctored = tmp_path / "hum"
    shutil.copytree(wl.outdirs["hum"], doctored)
    lines = (doctored / "control.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[5] = "0.0"
    (doctored / "control.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    failures, _ = checks.check_control(str(doctored), 0, walls, pair, wl.mask, 1.0, 1e-6)
    assert any("final L2" in f for f in failures)
    assert any("control_cost" in f for f in failures)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    wl = workloads.SpecineqWorkload("small", 64, (0.4, 0.6), [4.0, 7.0])
    wl.prepare(tmp_path_factory.mktemp("small"))
    codes = wl.op(None, 1)
    assert wl.check(None, codes, seed=0) == ([], [])
    return wl


def _doctor(wl, tmp_path, edit) -> list[str]:
    src = wl.outdirs["specineq"]
    lines = (src / "constants.csv").read_text().splitlines()
    dst = tmp_path / "doctored"
    dst.mkdir(exist_ok=True)
    (dst / "constants.csv").write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")
    fams = checks.families(wl.n, checks.interval_mask(wl.n, *wl.window))
    return checks.check_constants(str(dst), 0, fams, wl.lambdas, seed=0)


def test_constants_check_rejects_each_halved_constant(small_sweep, tmp_path):
    rows = (small_sweep.outdirs["specineq"] / "constants.csv").read_text().splitlines()[1:]
    assert not any(row.endswith("INF") for row in rows)
    for i in range(len(rows)):

        def halve(body, i=i):
            cells = body[i].split(",")
            cells[-1] = repr(0.5 * float(cells[-1]))
            return body[:i] + [",".join(cells)] + body[i + 1 :]

        assert _doctor(small_sweep, tmp_path, halve), f"halving row {rows[i]!r} went unnoticed"


def test_constants_check_rejects_a_wrong_mode_count(small_sweep, tmp_path):
    def bump(body):
        cells = body[0].split(",")
        cells[2] = str(int(cells[2]) + 1)
        return [",".join(cells)] + body[1:]

    assert any("mode_count" in f for f in _doctor(small_sweep, tmp_path, bump))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_of_every_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    wl.prepare(tmp_path)
    result = run.run(wl, seed=5, seconds=0, threads=1, quick=True)
    assert result["attempted"] == 1 and result["correct"], result["failures"]
    if name == "horizon":
        # the known fault: the lambda=13 simultaneous exact-lp constant alone
        assert result["failed"] == 1
        assert [f.split(":")[0] for f in result["failures"]] == ["simultaneous,13,exact-lp"]
    else:
        assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}


def test_traced_run_accounts_for_op_time_and_restores_the_program(tmp_path):
    original = workloads.simulheat.cli.main
    wl = workloads.WORKLOADS["headline"]()
    wl.prepare(tmp_path)
    result = run.run(wl, seed=0, seconds=0, threads=1, trace=True, quick=True)
    assert workloads.simulheat.cli.main is original
    metrics = result["metrics"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(k, u) for k, (_, u) in metrics.items()]
    accounted = sum(metrics[f"{layer}.self_s"][0] for layer in run.LAYERS) + metrics["bench.self_s"][0]
    info = result["info"]
    assert accounted == pytest.approx(info["traced_op_cpu_s_mean"] * info["traced_scale"], rel=1e-9)
    assert metrics["control.decay_factors.calls"][0] > 0 and metrics["specineq.calls"][0] == 0
    assert metrics["cli.artifact_bytes"][0] > 0


def test_benchmark_json_is_in_its_fixed_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "op_s_p50", "peak_rss_mb", "control_cost"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (workloads.ROOT / path).is_dir() and Path(path).name == Path(__file__).parent.name


def test_setup_is_timed_against_interleaved_reference_interpreters(tmp_path):
    samples = run.measure_setup("headline", dict(os.environ), tmp_path)
    assert {k: len(v) for k, v in samples.items()} == {k: run.SETUP_REPEATS for k in ("cpu", "reference", "wall")}
    assert all(v > 0 for values in samples.values() for v in values)
    assert all((tmp_path / f"setup{i}" / "hum.json").is_file() for i in range(run.SETUP_REPEATS))
