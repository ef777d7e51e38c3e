"""Control synthesis: Gramians, low-mode steering, the dyadic cascade, and
the one-shot full-spectrum solve.

Steering claims are verified by an integrator written out in this file: for
piecewise-constant inputs the per-step Duhamel integral has a closed form, so
the check shares no code with the synthesis path.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from common import D, N, dense_steer, double_setup, gramian, mass_matrix_on_region, unit_pair, wall_basis
from simulheat import control
from simulheat.control import (
    ControlSignal,
    SingularGramianError,
    decay_factors,
    hum_full_control,
    hum_low_mode_control,
    lr_control,
    march,
)
from simulheat.doubling import build_double, extend_pair, lift_region
from simulheat.grid import ControlRegion, Grid1D, fat_cantor_region, region_from_intervals
from simulheat.sim import propagate
from simulheat.specineq import estimate_constant_lp
from simulheat.spectral import mode_count


def step_heat(basis, yhat, signal, mode_count=None):
    """March mode coefficients through a piecewise-constant signal exactly."""
    K = len(yhat) if mode_count is None else mode_count
    lam = basis.eigenvalues[:K]
    Phi = basis.rows(signal.region, K)
    w = basis.grid.weights[signal.region.mask]
    y = np.array(yhat[:K], dtype=float)
    for m in range(len(signal.timegrid) - 1):
        dt = signal.timegrid[m + 1] - signal.timegrid[m]
        b = (w * signal.values[m]) @ Phi
        src = np.where(lam > 0, -np.expm1(-lam * dt) / np.where(lam > 0, lam, 1.0), dt)
        y = np.exp(-lam * dt) * y + b * src
    return y


def full_steering_problem(n, region_of):
    """(circle basis, lifted region, y0, timegrid) of the hum
    solve for a seeded unit pair on n cells, over T = 1 on hum_full_control's
    default steps."""
    grid, ext, basis_d, basis_n = double_setup(n)
    region = lift_region(ext, region_of(grid))
    y0 = ext.coefficients(extend_pair(ext, *unit_pair(grid, 0)))
    K, nw = 2 * n, int(region.mask.sum())
    timegrid = np.linspace(0.0, 1.0, max(64, -(-2 * K // nw)) + 1)
    return ext, region, y0, timegrid


def last_step_only(basis, timegrid):
    """The modes F whose step integrals vanish before the last step."""
    I, _ = control._step_integrals(basis.eigenvalues, timegrid)
    return np.flatnonzero(~I[:, :-1].any(axis=1))


def center_cell_region(grid):
    mask = np.zeros(grid.n, dtype=bool)
    mask[grid.n // 2] = True
    return ControlRegion(grid, mask)


def test_decay_factors_handle_the_kernel_limit():
    decay, source = decay_factors(np.array([0.0, 2.0]), 0.5)
    assert_allclose(decay, [1.0, np.exp(-1.0)], rtol=1e-15)
    assert_allclose(source, [0.5, (1.0 - np.exp(-1.0)) / 2.0], rtol=1e-14)


def test_decay_factors_rows_match_per_step_calls():
    grid, ext, basis_d, basis_n = double_setup(64)
    steps = np.diff(np.r_[np.linspace(0.0, 0.5, 33), 0.5 + np.geomspace(1e-6, 0.5, 9)])
    lam = np.r_[-1e-15, ext.eigenvalues]  # a zero mode may land a hair below 0
    decay, source = decay_factors(lam, steps)
    assert decay.shape == source.shape == (len(steps), len(lam))
    for m, dt in enumerate(steps):
        d, s = decay_factors(lam, dt)
        assert_array_equal(decay[m], d)
        assert_array_equal(source[m], s)


def test_march_matches_the_step_integrator():
    grid, ext, basis_d, basis_n = double_setup(16)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.3)]))
    y0 = np.random.default_rng(2).standard_normal(ext.grid.n)
    sig = hum_full_control(ext, region, ext.synthesize(y0), 0.5)
    path = march(ext, y0, sig.timegrid, sig)
    assert path.shape == (len(sig.timegrid), ext.grid.n)
    assert_array_equal(path[0], y0)
    # march projects every step in one product and step_heat one step at a
    # time, so the two round apart, but only at the level of the state's scale
    eps = np.finfo(float).eps
    assert np.max(np.abs(path[-1] - step_heat(ext, y0, sig))) <= eps * np.max(np.abs(path))
    # nodes past the signal's window only decay
    tail = march(ext, path[-1], np.array([0.5, 0.7]), sig)[-1]
    assert_array_equal(tail, np.exp(-ext.eigenvalues * (0.7 - 0.5)) * path[-1] + 0.0)


def test_mass_matrix_whole_domain_is_identity():
    basis = wall_basis(24, D, kappa=lambda x: 1.0 + x, a=lambda x: 2.0 - x)
    whole = region_from_intervals(basis.grid, [(0.0, 1.0)])
    M = mass_matrix_on_region(basis, mode_count(basis, float(basis.frequencies[4])), whole)
    assert_allclose(M, np.eye(5), atol=1e-12)


def test_mass_matrix_against_direct_sum():
    basis = wall_basis(4, D)
    region = region_from_intervals(basis.grid, [(0.0, 0.5)])
    M = mass_matrix_on_region(basis, mode_count(basis, float(basis.frequencies[1])), region)
    w = basis.grid.weights
    E = basis.vectors
    for k in range(2):
        for l in range(2):
            direct = sum(w[j] * E[j, k] * E[j, l] for j in range(4) if region.mask[j])
            assert abs(M[k, l] - direct) <= 1e-14


def test_gramian_kernel_mode_grows_linearly():
    basis = wall_basis(8, N)
    region = region_from_intervals(basis.grid, [(0.25, 0.75)])
    K = mode_count(basis, 0.0)  # just the constant mode
    M = mass_matrix_on_region(basis, K, region)
    assert_allclose(gramian(basis, K, region, 2.0), 2.0 * M, rtol=1e-15)


def test_gramian_single_mode_closed_form():
    basis = wall_basis(2, D)  # one mode below the cutoff, eigenvalue 8
    region = region_from_intervals(basis.grid, [(0.0, 1.0)])
    K = mode_count(basis, float(basis.frequencies[0]))
    M = mass_matrix_on_region(basis, K, region)
    G = gramian(basis, K, region, 1.0)
    assert_allclose(G, M * (1.0 - np.exp(-16.0)) / 16.0, rtol=1e-14)


def test_gramian_matches_adaptive_quadrature():
    grid, ext, basis_d, basis_n = double_setup(16)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.4)]))
    K = mode_count(ext, float(ext.frequencies[2]))
    tau = 0.5
    M = mass_matrix_on_region(ext, K, region)
    lam = ext.eigenvalues[:K]

    def integrand(s):
        return np.exp(-(lam[:, None] + lam[None, :]) * (tau - s)) * M

    oracle, _ = scipy.integrate.quad_vec(integrand, 0.0, tau, epsabs=1e-12, epsrel=1e-12)
    assert np.max(np.abs(gramian(ext, K, region, tau) - oracle)) <= 1e-8


def test_gramian_is_positive_semidefinite():
    basis = wall_basis(32, D, kappa=lambda x: 1.0 + 0.5 * x)
    region = region_from_intervals(basis.grid, [(0.2, 0.3)])
    G = gramian(basis, mode_count(basis, float(basis.frequencies[5])), region, 0.3)
    evals = np.linalg.eigvalsh(G)
    assert evals[0] >= -1e-12 * evals[-1]


def test_gramian_rejects_bad_horizon():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.2, 0.8)])
    K = mode_count(basis, float(basis.frequencies[0]))
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError):
            gramian(basis, K, region, tau)


def test_hum_low_zero_target_is_silent():
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    sig = hum_low_mode_control(basis, region, np.zeros(4), 0.5)
    assert not sig.values.any()
    assert sig.l2_cost == 0.0


def test_hum_low_steers_the_constant_mode():
    basis = wall_basis(16, N)
    region = region_from_intervals(basis.grid, [(0.25, 0.75)])
    K = mode_count(basis, 0.0)
    sig = hum_low_mode_control(basis, region, np.array([3.0]), 0.8, steps=8)
    final = step_heat(basis, np.array([3.0]), sig)
    # one mode stops at the Tikhonov floor: the shifted solve leaves
    # y0 sigma / (h + sigma) of y0, with h the sampled Gramian and sigma = 1e-12 h
    I, avg = control._step_integrals(basis.eigenvalues[:1], sig.timegrid)
    h = float(((avg @ I.T) * mass_matrix_on_region(basis, K, region))[0, 0])
    sigma = 1e-12 * h
    assert abs(final[0] - 3.0 * sigma / (h + sigma)) <= 8 * np.finfo(float).eps * 3.0


def test_hum_low_steering_verified_by_propagation():
    grid, ext, basis_d, basis_n = double_setup(16)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.3)]))
    K = mode_count(ext, float(ext.frequencies[3]))
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal(K)
    sig = hum_low_mode_control(ext, region, y0, 0.5)
    final = step_heat(ext, y0, sig)
    assert np.linalg.norm(final) <= 1e-8 * np.linalg.norm(y0)


def test_hum_low_rejects_malformed_problems():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.2, 0.8)])
    with pytest.raises(ValueError):
        hum_low_mode_control(basis, region, np.zeros(0), 0.5)
    with pytest.raises(ValueError):
        hum_low_mode_control(basis, region, np.zeros(9), 0.5)  # the basis holds 8 modes
    with pytest.raises(ValueError):
        hum_low_mode_control(basis, region, np.zeros((2, 1)), 0.5)
    with pytest.raises(ValueError):
        hum_low_mode_control(basis, region, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        hum_low_mode_control(basis, region, np.zeros(2), 0.5, steps=0)
    # the factors do not screen their input, so a NaN target must not pass
    # for a steering miss
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="y0"):
            hum_low_mode_control(basis, region, np.array([1.0, bad]), 0.5)


def test_a_region_of_another_grid_is_refused():
    # a base-grid region must be lifted before it steers the circle, and a
    # lifted one steers no wall
    grid, ext, basis_d, _ = double_setup(8)
    region = region_from_intervals(grid, [(0.2, 0.5)])
    for basis, wrong in ((ext, region), (basis_d, lift_region(ext, region))):
        with pytest.raises(ValueError, match="another grid"):
            hum_low_mode_control(basis, wrong, np.ones(2), 0.5)
    # a region of a grid with the same n but another kappa would be weighed
    # with that grid's weights: refused on a wall and on the circle alike
    _, ext, basis_d, _ = double_setup(16)
    other = build_double(Grid1D(16, kappa=2.0))
    wrong = region_from_intervals(other.walls[0].grid, [(0.2, 0.5)])
    for basis, region in ((basis_d, wrong), (ext, lift_region(other, wrong))):
        sig = ControlSignal(np.linspace(0.0, 0.5, 5), np.zeros((4, len(region.cells))), region)
        calls = (
            lambda: hum_low_mode_control(basis, region, np.ones(2), 0.5),
            lambda: hum_low_mode_control(basis, region, np.zeros(2), 0.5),
            lambda: estimate_constant_lp(basis, 5.0, region),
            lambda: march(basis, np.zeros(len(basis.eigenvalues)), sig.timegrid, sig),
            lambda: propagate(basis, np.zeros(basis.grid.n), sig.timegrid, sig),
        )
        for call in calls:
            with pytest.raises(ValueError, match="another grid"):
                call()
    with pytest.raises(ValueError, match="another grid"):
        lift_region(ext, wrong)  # a base region lifts only to its own grid's circle


def test_a_signal_beyond_float64_is_a_miss():
    # on a horizon of 1.8e-308 the two-mode solve verifies, but the sampled
    # values, q times step averages of order 1/dt, overflow
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.2, 0.45)])
    with pytest.raises(SingularGramianError, match="residual inf"):
        hum_low_mode_control(basis, region, np.ones(2), 1.8e-308)


def test_hum_low_raises_on_unobservable_mode():
    # on 9 cells the second Dirichlet mode vanishes at the center cell, so a
    # center-cell control sees a structurally singular Gramian
    basis = wall_basis(9, D)
    assert abs(basis.vectors[4, 1]) <= 1e-14
    region = center_cell_region(basis.grid)
    with pytest.raises(SingularGramianError) as err:
        hum_low_mode_control(basis, region, np.array([0.3, -0.2, 1.0]), 0.2)
    # the top steered frequency is 9 = 3 pi / (pi / 3) up to rounding
    assert "3 modes up to frequency 9 from 1 cells (region measure 0.111111)" in str(err.value)


def test_signal_cost_cache_and_validation():
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    sig = hum_low_mode_control(basis, region, np.array([1.0, -2.0, 0.5]), 0.4)
    dt = np.diff(sig.timegrid)
    rw = basis.grid.weights[region.mask]
    recomputed = np.sqrt(np.sum(dt[:, None] * rw[None, :] * sig.values**2))
    assert sig.l2_cost == pytest.approx(recomputed, rel=1e-12)
    assert sig.l2_cost is sig.l2_cost  # computed once, then cached
    nw = int(region.mask.sum())
    # a signal built directly prices its own values
    direct = ControlSignal(np.array([0.0, 0.25, 1.0]), np.full((2, nw), 2.0), region)
    assert direct.l2_cost == pytest.approx(2.0 * np.sqrt(np.sum(rw)), rel=1e-12)
    with pytest.raises(ValueError):
        ControlSignal(np.array([0.0]), np.zeros((0, nw)), region)
    for nodes in ([0.0, 0.5, 0.5], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError):
            ControlSignal(np.array(nodes), np.zeros((2, nw)), region)
    with pytest.raises(ValueError):
        ControlSignal(np.array([0.0, 1.0]), np.zeros((1, nw + 1)), region)


def test_schedule_collapses_to_one_slice():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    lam0 = 2.0 * float(basis.frequencies[-1])
    sig = lr_control(basis, region, np.zeros(8), 1.0, lam0)
    # one slice [0, 0.5], its active half ending at 0.25, then the tail
    assert [(row["j"], row["lambda"]) for row in sig.slice_ledger] == [(0, lam0)]
    assert_array_equal(sig.timegrid, [0.0, 0.25, 0.5, 1.0])


def test_schedule_tiles_dyadically():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    numax = float(basis.frequencies[-1])
    sig = lr_control(basis, region, np.zeros(8), 2.0, numax / 4.0)
    ledger = sig.slice_ledger
    assert [row["j"] for row in ledger] == [0, 1, 2]
    assert_allclose([row["lambda"] for row in ledger], numax / 4.0 * np.array([1.0, 2.0, 4.0]))
    assert ledger[-1]["lambda"] >= numax * (1.0 - 1e-12)
    # a zero field leaves every slice passive: each slice start [0, 1, 1.5]
    # and the midpoint splitting it into its active and passive halves, then
    # the last slice's end 1.75 and T
    assert_array_equal(sig.timegrid, [0.0, 0.5, 1.0, 1.25, 1.5, 1.625, 1.75, 2.0])


def test_schedule_rejects_bad_parameters():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    with pytest.raises(ValueError):
        lr_control(basis, region, np.ones(8), 0.0, 1.0)
    for lambda0 in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda0"):
            lr_control(basis, region, np.ones(8), 1.0, lambda0)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_front_ends_refuse_a_non_finite_horizon(T):
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.2, 0.8)])
    with pytest.raises(ValueError, match="horizon"):
        hum_full_control(basis, region, np.ones(8), T)
    with pytest.raises(ValueError, match="horizon"):
        lr_control(basis, region, np.ones(8), T)
    with pytest.raises(ValueError, match="horizon"):
        hum_low_mode_control(basis, region, np.ones(2), T)


def test_lr_zero_field_is_silent():
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    sig = lr_control(basis, region, np.zeros(16), 1.0)
    assert not sig.values.any()
    assert all(row["active_cost"] == 0.0 == row["post_norm"] for row in sig.slice_ledger)


def test_lr_single_slice_reduces_to_hum_low():
    basis = wall_basis(16, D)
    region = region_from_intervals(basis.grid, [(0.3, 0.6)])
    rng = np.random.default_rng(5)
    field0 = rng.standard_normal(16)
    lam0 = 2.0 * float(basis.frequencies[-1])
    lr = lr_control(basis, region, field0, 1.0, lam0)
    hum = hum_low_mode_control(
        basis, region,
        basis.coefficients(field0), 0.25, steps=64, steer_tol=1e-6,
    )
    # one active window, identical inputs: the values must agree bit for bit
    assert_array_equal(lr.values[:64], hum.values)
    assert not lr.values[64:].any()
    assert lr.timegrid[-1] == 1.0


def test_terminal_slice_at_the_top_frequency_steers_every_mode():
    basis = wall_basis(16, D)
    numax = float(basis.frequencies[-1])
    whole = region_from_intervals(basis.grid, [(0.0, 1.0)])
    # only the top mode is excited: the earlier slices stay below it, so
    # the terminal slice alone can steer it
    top = basis.vectors[:, -1]
    sig = lr_control(basis, whole, top, 1e-3, numax / 4.0)
    assert sig.slice_ledger[-1]["lambda"] == numax
    costs = [row["active_cost"] for row in sig.slice_ledger]
    assert costs[:-1] == [0.0, 0.0]
    assert costs[-1] > 0.0
    assert np.linalg.norm(step_heat(basis, basis.coefficients(top), sig)) <= 1e-6


def test_lr_cascade_kills_the_field_and_coasts_when_done():
    grid, ext, basis_d, basis_n = double_setup(32)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.3)]))
    pos = ext.frequencies[ext.frequencies > 1e-9]
    lam0 = float(np.unique(np.round(pos, 12))[1])
    rng = np.random.default_rng(7)
    field0 = rng.standard_normal(ext.grid.n)
    field0 /= np.sqrt(np.sum(ext.grid.weights * field0**2))

    sig = lr_control(ext, region, field0, 1.0, lam0)
    ledger = sig.slice_ledger
    assert [row["j"] for row in ledger] == list(range(5))
    for row in ledger:
        assert row["post_norm"] <= row["pre_norm"] * (1.0 + 1e-12)
    # once the remaining energy drops below the precision floor the cascade
    # stops spending: skipped slices report exactly zero cost and stay skipped
    costs = [row["active_cost"] for row in ledger]
    assert costs[0] > 0.0
    assert 0.0 in costs
    first_skip = costs.index(0.0)
    assert all(c == 0.0 for c in costs[first_skip:])

    yhat0 = ext.coefficients(field0)
    final = step_heat(ext, yhat0, sig)
    assert np.linalg.norm(final) <= 1e-6 * np.linalg.norm(yhat0)


def test_hum_full_zero_field_is_silent():
    grid, ext, basis_d, basis_n = double_setup(8)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.8)]))
    sig = hum_full_control(ext, region, np.zeros(16), 1.0)
    assert not sig.values.any()


def test_hum_full_steers_every_mode():
    grid, ext, basis_d, basis_n = double_setup(4)
    region = lift_region(ext, region_from_intervals(grid, [(0.0, 1.0)]))
    rng = np.random.default_rng(3)
    field0 = rng.standard_normal(8)
    sig = hum_full_control(ext, region, field0, 0.7, steps=32)
    yhat0 = ext.coefficients(field0)
    final = step_heat(ext, yhat0, sig)
    assert np.linalg.norm(final) <= 1e-10 * np.linalg.norm(yhat0)


def test_hum_full_attains_the_least_squares_cost():
    grid, ext, basis_d, basis_n = double_setup(4)
    region = lift_region(ext, region_from_intervals(grid, [(0.0, 1.0)]))
    rng = np.random.default_rng(3)
    field0 = rng.standard_normal(8)
    T = 0.7
    sig = hum_full_control(ext, region, field0, T, steps=32)

    # minimum-norm benchmark over the same input class: unknowns are the
    # step values scaled so the Euclidean norm of x is the control cost
    lam = ext.eigenvalues
    tg = sig.timegrid
    dt = np.diff(tg)
    I = np.exp(-lam[:, None] * (T - tg[1:][None, :])) * np.where(
        lam[:, None] > 0,
        -np.expm1(-lam[:, None] * dt[None, :]) / np.where(lam[:, None] > 0, lam[:, None], 1.0),
        dt[None, :],
    )
    Phi = ext.rows(region)
    w = ext.grid.weights[region.mask]
    nw = len(w)
    A = np.zeros((len(lam), len(dt) * nw))
    for m in range(len(dt)):
        A[:, m * nw : (m + 1) * nw] = I[:, m : m + 1] * Phi.T * np.sqrt(w / dt[m])[None, :]
    target = -np.exp(-lam * T) * ext.coefficients(field0)
    x, *_ = np.linalg.lstsq(A, target, rcond=None)
    oracle_cost = float(np.linalg.norm(x))
    assert sig.l2_cost <= oracle_cost * (1.0 + 1e-2)
    assert sig.l2_cost >= oracle_cost * (1.0 - 1e-6)


def test_hum_full_is_hum_low_at_the_full_cutoff():
    grid, ext, basis_d, basis_n = double_setup(16)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.45)]))
    field0 = np.random.default_rng(3).standard_normal(ext.grid.n)
    full = hum_full_control(ext, region, field0, 0.7, steps=24)
    assert mode_count(ext, float(ext.frequencies[-1])) == ext.grid.n
    low = hum_low_mode_control(ext, region, ext.coefficients(field0), 0.7, steps=24, steer_tol=1e-8)
    # one steering solver behind both front ends: same inputs, same bits
    assert_array_equal(full.values, low.values)
    assert_array_equal(full.timegrid, low.timegrid)


def test_one_shot_beats_the_cascade_on_cost():
    grid, ext, basis_d, basis_n = double_setup(8)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.45)]))
    rng = np.random.default_rng(7)
    field0 = rng.standard_normal(ext.grid.n)
    field0 /= np.sqrt(np.sum(ext.grid.weights * field0**2))
    lam0 = float(ext.frequencies[ext.frequencies > 1e-9][0])
    cascade = lr_control(ext, region, field0, 1.0, lam0)
    one_shot = hum_full_control(ext, region, field0, 1.0)
    assert one_shot.l2_cost <= cascade.l2_cost
    final = step_heat(ext, ext.coefficients(field0), one_shot)
    assert np.linalg.norm(final) <= 1e-8


def test_hum_full_rejects_underdetermined_sampling():
    basis = wall_basis(8, D)
    region = center_cell_region(basis.grid)
    with pytest.raises(ValueError):
        hum_full_control(basis, region, np.ones(8), 1.0, steps=7)
    with pytest.raises(ValueError):
        hum_full_control(basis, region, np.ones(8), 0.0)


def test_hum_full_raises_on_unreachable_target():
    basis = wall_basis(9, D)
    region = center_cell_region(basis.grid)
    field0 = basis.vectors[:, 1] + 0.1 * basis.vectors[:, 0]
    with pytest.raises(SingularGramianError):
        hum_full_control(basis, region, field0, 0.1, steps=16)


@pytest.mark.parametrize(
    "n, region_of, f_size",
    [
        (16, lambda g: region_from_intervals(g, [(0.1, 0.45)]), lambda f, nw: f == 0),
        (128, lambda g: region_from_intervals(g, [(0.05, 0.95)]), lambda f, nw: 0 < f < nw),
        (256, lambda g: fat_cantor_region(g, 0.3, depth=6, seed=0), lambda f, nw: f >= nw),
    ],
    ids=["no-F", "F-below-nw", "F-above-nw"],
)
def test_block_steer_matches_the_dense_oracle(n, region_of, f_size):
    basis, region, y0, timegrid = full_steering_problem(n, region_of)
    assert f_size(len(last_step_only(basis, timegrid)), int(region.mask.sum()))
    steps = len(timegrid) - 1
    sig = hum_low_mode_control(basis, region, y0, timegrid[-1], steps=steps)
    values, _ = dense_steer(basis, region, y0, timegrid)
    assert np.linalg.norm(sig.values - values) <= 1e-8 * np.linalg.norm(values)
    # a zero tolerance forces a miss, which reports the residual the dense solve reaches
    with pytest.raises(SingularGramianError) as miss:
        hum_low_mode_control(basis, region, y0, timegrid[-1], steps=steps, steer_tol=0.0)
    _, dense_achieved = dense_steer(basis, region, y0, timegrid, steer_tol=0.0)
    achieved = float(str(miss.value).rsplit(" ", 1)[-1])
    assert achieved == pytest.approx(dense_achieved, rel=1e-3)


def test_last_step_modes_are_a_sparsity_pattern_not_a_cutoff(monkeypatch):
    basis, region, y0, timegrid = full_steering_problem(
        256, lambda g: fat_cantor_region(g, 0.3, depth=6, seed=0)
    )
    F = last_step_only(basis, timegrid)
    steps = len(timegrid) - 1
    sig = hum_low_mode_control(basis, region, y0, timegrid[-1], steps=steps)
    step_integrals = control._step_integrals

    def nudged(lam, tg):
        # the smallest subnormal where the step integral underflowed moves
        # the lowest and the highest F mode into S and leaves H as it was
        I, _ = step_integrals(lam, tg)
        I[F[[0, -1]], -2] = 5e-324
        return I, I / np.diff(tg)

    monkeypatch.setattr(control, "_step_integrals", nudged)
    assert len(last_step_only(basis, timegrid)) == len(F) - 2
    moved = hum_low_mode_control(basis, region, y0, timegrid[-1], steps=steps)
    assert np.linalg.norm(moved.values - sig.values) <= 1e-10 * np.linalg.norm(sig.values)


def test_hum_factors_no_matrix_wider_than_the_region_or_s(monkeypatch):
    sides = []
    for name in ("cho_factor", "lu_factor"):
        original = getattr(scipy.linalg, name)

        def recorded(a, *args, original=original, **kwargs):
            sides.append(max(np.shape(a)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(control.scipy.linalg, name, recorded)
    grid, ext, basis_d, basis_n = double_setup(512)
    region = lift_region(ext, region_from_intervals(grid, [(0.2, 0.3)]))
    sig = hum_full_control(ext, region, extend_pair(ext, *unit_pair(grid, 0)), 1.0)
    nw = int(region.mask.sum())
    s_size = ext.grid.n - len(last_step_only(ext, sig.timegrid))
    assert sides and max(sides) <= max(nw, s_size) < ext.grid.n // 4


def test_factor_falls_back_to_lu_on_an_indefinite_matrix():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cho_factor(A)
    assert_allclose(A @ control._factor(A)(np.array([3.0, -1.0])), [3.0, -1.0], rtol=1e-15)
