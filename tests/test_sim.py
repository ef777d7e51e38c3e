"""Trajectory propagation, circle splitting, wall residuals, and the full
shared-control pipeline."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from common import (
    D,
    N,
    VARIABLE,
    dense_eigenbasis,
    dense_modes,
    double_setup,
    problem,
    run_python,
    unit_pair,
    wall_basis,
)
from simulheat import doubling, sim
from simulheat.control import ControlSignal, march
from simulheat.doubling import build_double, lift_region, split
from simulheat.grid import region_from_intervals
from simulheat.operators import CircleBasis, assemble_laplacian, eigendecompose
from simulheat.sim import DEFAULT_TOLERANCES, propagate, run_simultaneous


def zero_signal(region, t_end, steps):
    return ControlSignal(np.linspace(0.0, t_end, steps + 1), np.zeros((steps, int(region.mask.sum()))), region)


def test_free_eigenmode_decays_exactly():
    basis = wall_basis(16, D)
    mode = basis.vectors[:, 2]
    traj = propagate(basis, mode, np.array([0.0, 0.3]))
    assert_array_equal(traj.times, [0.0, 0.3])
    assert_allclose(traj.states[-1], np.exp(-basis.eigenvalues[2] * 0.3) * mode, rtol=1e-12, atol=1e-15)


def test_constant_field_is_stationary_under_insulation():
    basis = wall_basis(16, N)
    state0 = np.full(16, 2.5)
    traj = propagate(basis, state0, np.array([0.0, 2.0]))
    assert_allclose(traj.states[-1], state0, atol=1e-13)


def test_free_decay_norms_never_increase():
    grid = problem(24, kappa=lambda x: 1.0 + 0.5 * x, a=lambda x: 2.0 - x)
    basis = eigendecompose(assemble_laplacian(grid, D))
    region = region_from_intervals(grid, [(0.4, 0.6)])
    rng = np.random.default_rng(2)
    sig = zero_signal(region, 1.0, 8)
    traj = propagate(basis, rng.standard_normal(24), sig.timegrid, sig)
    assert len(traj.times) == 9
    assert np.all(np.diff(traj.l2_norms) <= 1e-12)
    assert np.all(np.diff(traj.sup_norms) <= 1e-12)


def test_propagate_validates_inputs():
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.4, 0.6)])
    sig = zero_signal(region, 1.0, 4)
    for times in ([0.0, 0.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError):
            propagate(basis, np.zeros(16), np.array(times))
    with pytest.raises(ValueError):
        propagate(basis, np.zeros(15), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        propagate(basis, np.zeros(16), np.array([0.0, 0.25, 0.5]), sig)  # signal runs past times[-1]
    with pytest.raises(ValueError):
        propagate(basis, np.zeros(16), np.array([0.0, 0.25, 0.75, 1.0]), sig)  # skips the node 0.5
    with pytest.raises(ValueError):
        propagate(basis, np.zeros(16), np.r_[sig.timegrid, 1.5], sig)  # a node past the signal's last
    other = wall_basis(8, D)
    with pytest.raises(ValueError):
        propagate(other, np.zeros(8), sig.timegrid, sig)  # region from another grid


def test_propagate_matches_expm_duhamel_oracle():
    grid = problem(12, kappa=lambda x: 1.0 + 0.4 * x, a=lambda x: 1.5 - 0.5 * x)
    op = assemble_laplacian(grid, D)
    basis = eigendecompose(op)
    region = region_from_intervals(grid, [(0.25, 0.75)])
    rng = np.random.default_rng(9)
    timegrid = np.linspace(0.0, 0.4, 6)
    values = rng.standard_normal((5, int(region.mask.sum())))
    sig = ControlSignal(timegrid, values, region)
    u0 = rng.standard_normal(12)
    traj = propagate(basis, u0, timegrid, sig)

    # independent route: u' = -A u + g stepped with the matrix exponential
    A = op.dense()
    u = u0.copy()
    for m in range(5):
        dt = timegrid[m + 1] - timegrid[m]
        g = np.zeros(12)
        g[region.mask] = values[m]
        E = scipy.linalg.expm(-A * dt)
        u = E @ u + np.linalg.solve(A, (np.eye(12) - E) @ g)
        i = int(np.argmin(np.abs(traj.times - timegrid[m + 1])))
        assert np.max(np.abs(traj.states[i] - u)) <= 1e-8


def test_propagate_states_match_the_per_node_reconstruction():
    grid, ext, basis_d, basis_n = double_setup(32, **VARIABLE)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.3)]))
    rng = np.random.default_rng(11)
    timegrid = np.linspace(0.0, 0.5, 9)
    values = rng.standard_normal((8, int(region.mask.sum())))
    sig = ControlSignal(timegrid, values, region)
    U0 = rng.standard_normal(64)
    traj = propagate(ext, U0, timegrid, sig)
    # the coast after the signal ends, a call of its own with no signal
    tail = propagate(ext, traj.states[-1], np.array([0.5, 0.7]))
    # the loop the wall products replaced: one product with the dense circle
    # basis per node
    coeffs_t = march(ext, ext.coefficients(U0), timegrid, sig)
    coeffs_t = np.vstack([coeffs_t, march(ext, coeffs_t[-1], tail.times)[1:]])
    X = dense_modes(ext)
    loop = np.array([U0] + [X @ y for y in coeffs_t[1:]])
    states = np.vstack([traj.states, tail.states[1:]])
    assert_array_equal(states[0], U0)
    for state, ref in zip(states, loop):
        assert np.max(np.abs(state - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_lr_costs_agree_with_a_dense_eigensolve(monkeypatch):
    # the mode counts at the tied circle eigenvalues of constant coefficients
    # must not depend on how either eigensolver rounds the tie
    grid = problem(128)
    region = region_from_intervals(grid, [(0.2, 0.3)])
    pairs = [unit_pair(grid, seed) for seed in range(8)]
    reports = [run_simultaneous(grid, u0, v0, region, 1.0, "lr") for u0, v0 in pairs]
    monkeypatch.setattr(doubling, "eigendecompose", dense_eigenbasis)
    oracle = [run_simultaneous(grid, u0, v0, region, 1.0, "lr") for u0, v0 in pairs]
    assert all(rep.passed for rep in reports + oracle)
    assert_allclose([r.control_cost for r in reports], [r.control_cost for r in oracle], rtol=1e-8)


def test_split_of_a_trajectory_stack_equals_per_state_splits():
    grid, ext, basis_d, basis_n = double_setup(8)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.5)]))
    rng = np.random.default_rng(4)
    sig = zero_signal(region, 0.5, 5)
    traj = propagate(ext, rng.standard_normal(16), sig.timegrid, sig)
    su, sv = split(ext, traj.states)
    assert su.shape == sv.shape == (6, 8)
    for U, u, v in zip(traj.states, su, sv):
        ru, rv = split(ext, U)
        assert_array_equal(u, ru)
        assert_array_equal(v, rv)
    with pytest.raises(ValueError):
        split(ext, su)  # a stack of wall states does not split


def test_control_run_allocates_no_dense_circle_basis():
    # a hum run at n = 512 in a fresh interpreter, apart from this suite's
    # checks on every eigenbasis, which allocate n x n arrays of their own.
    # A (2n)^2 float64 matrix is 8 MiB here and the two n x n wall bases 4 MiB
    # more; the two wall eigensolves alone peak near 7.2 MiB
    peak, passed = run_python("-c", """
import tracemalloc
import numpy as np
from simulheat import Grid1D, l2_norm, region_from_intervals, run_simultaneous
grid = Grid1D(512)
u0, v0 = np.random.default_rng(0).standard_normal((2, 512))
region = region_from_intervals(grid, [(0.2, 0.3)])
tracemalloc.start()
rep = run_simultaneous(grid, u0 / l2_norm(grid, u0), v0 / l2_norm(grid, v0), region, 1.0, "hum")
print(tracemalloc.get_traced_memory()[1], rep.passed)
""").split()
    assert passed == "True"
    assert int(peak) < 10 * 2**20, f"traced peak {int(peak) / 2**20:.2f} MiB"


def pipeline_problem():
    grid = problem(
        32, kappa=lambda x: 1.0 + 0.25 * np.sin(2 * np.pi * x), a=lambda x: 1.0 + 0.2 * x
    )
    region = region_from_intervals(grid, [(0.2, 0.3)])
    rng = np.random.default_rng(21)
    return grid, region, rng.standard_normal(32), rng.standard_normal(32)


def test_pipeline_zero_pair_costs_nothing():
    grid, region, _, _ = pipeline_problem()
    rep = run_simultaneous(grid, np.zeros(32), np.zeros(32), region, 1.0, "hum")
    assert rep.passed
    assert rep.control_cost == 0.0
    assert rep.final_u_l2 == 0.0 and rep.final_v_l2 == 0.0


def test_pipeline_steers_both_walls_with_one_signal():
    grid, region, u0, v0 = pipeline_problem()
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    scale = max(rep.initial_u_l2, rep.initial_v_l2)
    assert rep.passed
    assert rep.final_u_l2 <= DEFAULT_TOLERANCES["hum"] * scale
    assert rep.final_v_l2 <= DEFAULT_TOLERANCES["hum"] * scale
    assert rep.method == "hum"
    assert rep.control_cost > 0.0


@pytest.mark.parametrize("method", ["hum", "lr"])
@pytest.mark.parametrize(
    "n, u0, v0",
    [(128, 0.0, 1.0), (128, 1.0, 1.0), (128, 1.0, 0.0), (32, 0.0, 1.0)]
    # single wall modes: the first of each wall's non-constant ones and the top of each
    + [(n, u0, v0) for n in (32, 128) for u0, v0 in [("D0", 0.0), (0.0, "N1"), ("Dtop", 0.0), (0.0, "Ntop")]],
)
def test_pipeline_steers_constant_pairs(n, u0, v0, method):
    # v0 = 1 is the circle's kernel mode, which the Gramian barely reaches:
    # defect correction shrinks its residual by only about 0.69 a step
    grid = problem(n)
    walls = dict(zip("DN", build_double(grid).walls))

    def initial(spec):  # a constant, or wall mode k ("D0") or the top one ("Dtop")
        if isinstance(spec, float):
            return np.full(n, spec)
        return walls[spec[0]].vectors[:, -1 if spec[1:] == "top" else int(spec[1:])]

    region = region_from_intervals(grid, [(0.2, 0.3)])
    rep = run_simultaneous(grid, initial(u0), initial(v0), region, 1.0, method)
    assert rep.passed  # read from the propagated final states


def test_lr_cost_converges_at_second_order_in_h():
    # the window's ends are cell faces at every n >= 8, so the region does not
    # move with n; a second-order scheme shrinks successive cost differences
    # by 4 per doubling, and a first-order wall (Dirichlet factor 1) by about 2
    costs = []
    for n in (64, 128, 256, 512):
        grid = problem(n)
        x = grid.centers
        region = region_from_intervals(grid, [(0.25, 0.375)])
        rep = run_simultaneous(grid, np.sin(np.pi * x), np.cos(np.pi * x) + 1.0, region, 1.0, "lr")
        assert rep.passed
        costs.append(rep.control_cost)
    diffs = np.diff(costs)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios


def test_pipeline_split_route_equals_direct_wall_runs():
    grid, region, u0, v0 = pipeline_problem()
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    ext = build_double(grid)
    su, sv = split(ext, rep.trajectory_double.states)
    assert_array_equal(rep.trajectory_double.times, rep.trajectory_u.times)
    assert np.max(np.abs(su - rep.trajectory_u.states)) <= 1e-10
    assert np.max(np.abs(sv - rep.trajectory_v.states)) <= 1e-10


def test_pipeline_recovers_wall_conditions():
    grid, region, u0, v0 = pipeline_problem()
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    assert rep.dirichlet_trace_residual <= 1e-10
    assert rep.neumann_flux_residual <= 1e-10


@pytest.mark.parametrize("bc, broken, intact", [
    (D, "dirichlet_trace_residual", "neumann_flux_residual"),
    (N, "neumann_flux_residual", "dirichlet_trace_residual"),
], ids=["dirichlet", "neumann"])
def test_wall_residuals_flag_a_broken_direct_run(monkeypatch, bc, broken, intact):
    # a direct wall run that drifts at one wall cell must show in its residual
    clean = sim.propagate
    drift = 1e-6

    def propagate_broken(basis, *args):
        traj = clean(basis, *args)
        if basis.bc is not bc:
            return traj
        states = traj.states.copy()
        states[:, -1] += drift
        return dataclasses.replace(traj, states=states)

    monkeypatch.setattr(sim, "propagate", propagate_broken)
    grid, region, u0, v0 = pipeline_problem()
    rep = sim.run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    assert getattr(rep, broken) > 1e-10
    assert getattr(rep, intact) <= 1e-10
    # each residual's definition applied to the drift at the far wall cell
    sup = max(np.max(rep.trajectory_u.sup_norms), np.max(rep.trajectory_v.sup_norms))
    expected = {
        "dirichlet_trace_residual": 0.5 * drift / sup,
        "neumann_flux_residual": grid.a[-1] * grid.kappa[-1] * drift / grid.h / sup,
    }
    assert_allclose(getattr(rep, broken), expected[broken], rtol=1e-6)


def test_lr_reads_the_circle_rows_once_per_steered_step(monkeypatch):
    # each steered slice reads the window rows to solve and to march; a slice
    # that holds zero reads none, and the circle run reads them once
    grid = problem(128)
    region = region_from_intervals(grid, [(0.2, 0.3)])
    u0, v0 = unit_pair(grid, 0)
    reads = 0
    rows = CircleBasis.rows

    def counted(self, *args):
        nonlocal reads
        reads += 1
        return rows(self, *args)

    monkeypatch.setattr(CircleBasis, "rows", counted)
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "lr")
    steered = sum(s["active_cost"] > 0 for s in rep.signal.slice_ledger)
    assert reads == 2 * steered + 1 == 7


def test_pipeline_handles_the_neumann_kernel():
    # a pure constant never decays, so the cascade must spend on the zero
    # mode in its very first slice or the run cannot pass
    grid, region, u0, _ = pipeline_problem()
    v0 = np.full(32, 1.7)
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "lr")
    assert rep.passed
    assert rep.final_v_l2 <= DEFAULT_TOLERANCES["lr"] * max(rep.initial_u_l2, rep.initial_v_l2)


def test_pipeline_near_miss_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(DEFAULT_TOLERANCES, "hum", 1e-30)
    grid, region, u0, v0 = pipeline_problem()
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    assert not rep.passed
    assert rep.tolerance == 1e-30
    assert rep.final_u_l2 > 0.0


def test_pipeline_cascade_route():
    grid, region, u0, v0 = pipeline_problem()
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "lr")
    scale = max(rep.initial_u_l2, rep.initial_v_l2)
    assert rep.passed
    assert rep.final_u_l2 <= DEFAULT_TOLERANCES["lr"] * scale
    assert rep.final_v_l2 <= DEFAULT_TOLERANCES["lr"] * scale
    assert rep.signal.slice_ledger is not None


def test_pipeline_rejects_unknown_method():
    grid, region, u0, v0 = pipeline_problem()
    with pytest.raises(ValueError):
        run_simultaneous(grid, u0, v0, region, 1.0, "magic")
