"""Spectral constant estimators: exact LP and the sigma-min it carries,
randomized lower bounds, the simultaneous (circle) constant, and the growth
fit."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsModelStatus

from common import (
    D,
    N,
    VARIABLE,
    analytic_eigenbasis,
    double_setup,
    lp_cell_values,
    lp_constant_oracle,
    randomized_lower_bound,
    wall_basis,
)
from simulheat import specineq
from simulheat.doubling import lift_region
from simulheat.grid import (
    ControlRegion,
    Grid1D,
    fat_cantor_region,
    region_from_intervals,
)
from simulheat.operators import NumericalError
from simulheat.specineq import (
    SpectralConstantEstimate,
    estimate_constant_lp,
    fit_exponential,
    simultaneous_constant,
)
from simulheat.spectral import l1_norm_on, mode_count, sup_norm


def one_cell_region(grid, i):
    mask = np.zeros(grid.n, dtype=bool)
    mask[i] = True
    return ControlRegion(grid, mask)


def test_lp_single_mode_matches_closed_form():
    basis = wall_basis(32, D)
    lam = float(basis.frequencies[0])
    e = basis.vectors[:, 0]
    for region in (
        region_from_intervals(basis.grid, [(0.2, 0.5)]),
        fat_cantor_region(basis.grid, 0.4, depth=2, seed=1),
    ):
        est = estimate_constant_lp(basis, lam, region)
        # the span is one-dimensional: the ratio does not depend on the coefficient
        assert_allclose(est.constant, sup_norm(e) / l1_norm_on(e, region), rtol=1e-12)
        assert est.mode_count == 1


def test_lp_first_mode_approaches_continuum_ratio():
    basis = wall_basis(64, D)
    whole = region_from_intervals(basis.grid, [(0.0, 1.0)])
    est = estimate_constant_lp(basis, float(basis.frequencies[0]), whole)
    assert abs(est.constant - np.pi / 2.0) <= 1e-3
    # the single-mode ratio at n=4096 pins the continuum value far inside the bar
    fine = analytic_eigenbasis(Grid1D(4096), D)
    e1 = fine.vectors[:, 0]
    whole_fine = region_from_intervals(fine.grid, [(0.0, 1.0)])
    assert abs(sup_norm(e1) / l1_norm_on(e1, whole_fine) - np.pi / 2.0) <= 1e-3


def test_lp_rank_deficiency_returns_infinity():
    basis = wall_basis(8, D)
    lam = float(basis.frequencies[1])  # two modes
    est = estimate_constant_lp(basis, lam, one_cell_region(basis.grid, 3))
    assert est.constant == np.inf
    assert est.certificate is not None  # the null direction witnesses deficiency
    assert est.lp_solves == est.lp_retries == 0


def test_lp_constant_nondecreasing_in_lambda():
    basis = wall_basis(64, D)
    region = region_from_intervals(basis.grid, [(0.45, 0.55)])
    values = [
        estimate_constant_lp(basis, float(basis.frequencies[k]), region).constant
        for k in range(5)
    ]
    assert all(np.isfinite(v) for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-10)


def test_lp_constant_antitone_under_region_growth():
    basis = wall_basis(64, D)
    small = region_from_intervals(basis.grid, [(0.45, 0.55)])
    big = region_from_intervals(basis.grid, [(0.4, 0.6)])
    for k in (2, 4):
        lam = float(basis.frequencies[k])
        c_small = estimate_constant_lp(basis, lam, small).constant
        c_big = estimate_constant_lp(basis, lam, big).constant
        assert c_big <= c_small * (1.0 + 1e-10)


@pytest.mark.parametrize("n, k", [(32, 4), (64, 3), (160, 2)])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_lp_matches_per_cell_linprog_oracle(n, k, variable):
    grid, ext, basis_d, basis_n = double_setup(n, **(VARIABLE if variable else {}))
    region = region_from_intervals(grid, [(0.3, 0.6)])
    lifted = lift_region(ext, region)
    for basis, reg in ((basis_d, region), (basis_n, region), (ext, lifted)):
        lam = float(basis.frequencies[k])
        assert 3 <= mode_count(basis, lam) <= 5
        est = estimate_constant_lp(basis, lam, reg)
        oracle = lp_constant_oracle(basis, lam, reg)
        assert np.isfinite(est.constant) and est.constant <= est.upper
        assert_allclose(est.constant, oracle, rtol=1e-7)
        assert oracle <= est.constant * (1.0 + 1e-9)


class _FlakyHighs(_core._Highs):
    """Reports every warm-started solve as failed; a solve from a cleared basis reports the truth."""

    warm = True

    def changeRowBounds(self, *args):
        self.warm = True
        return super().changeRowBounds(*args)

    def clearSolver(self):
        self.warm = False
        return super().clearSolver()

    def getModelStatus(self):
        return HighsModelStatus.kSolveError if self.warm else super().getModelStatus()


class _BrokenHighs(_core._Highs):
    def getModelStatus(self):
        return HighsModelStatus.kSolveError


def test_lp_retries_a_failed_cell_from_a_cleared_basis(monkeypatch):
    basis = wall_basis(64, N, **VARIABLE)
    region = region_from_intervals(basis.grid, [(0.3, 0.5)])
    lam = float(basis.frequencies[3])
    warm = estimate_constant_lp(basis, lam, region)
    monkeypatch.setattr(_core, "_Highs", _FlakyHighs)
    cold = estimate_constant_lp(basis, lam, region)
    assert_allclose(cold.constant, warm.constant, rtol=1e-10)
    assert_allclose(cold.upper, warm.upper, rtol=1e-10)
    assert cold.lp_solves > 0 and cold.lp_retries == cold.lp_solves
    monkeypatch.setattr(_core, "_Highs", _BrokenHighs)
    with pytest.raises(NumericalError, match="every candidate peak cell"):
        estimate_constant_lp(basis, lam, region)


class _SpyHighs(_core._Highs):
    """Logs every right-hand side value set: a solved cell sets its K in row order."""

    log: list = []

    def changeRowBounds(self, row, lower, upper):
        _SpyHighs.log.append(lower)
        return super().changeRowBounds(row, lower, upper)


def _solved_cells(basis, lam, region, monkeypatch):
    """The estimate plus the cells whose LP ran, matched through their right-hand sides."""
    monkeypatch.setattr(_core, "_Highs", _SpyHighs)
    _SpyHighs.log = []
    est = estimate_constant_lp(basis, lam, region)
    K = est.mode_count
    E = basis.columns(K)
    B = (basis.grid.weights[region.mask][:, None] * E[region.mask]).T
    U, S, _ = scipy.linalg.svd(B, full_matrices=False)
    rhs = E @ (U / S) * S[-1]
    logged = np.reshape(_SpyHighs.log, (-1, K))
    assert len(logged) == est.lp_solves
    dist = np.linalg.norm(logged[:, None, :] - rhs[None, :, :], axis=2)
    cells = np.argmin(dist, axis=1)
    assert np.all(dist[np.arange(len(cells)), cells] <= 1e-9 * np.linalg.norm(rhs[cells], axis=1))
    return est, set(cells.tolist())


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("family", ["dirichlet", "neumann", "circle"])
def test_lp_skipped_cells_cannot_hold_the_maximum(family, k, monkeypatch):
    grid, ext, basis_d, basis_n = double_setup(64, **VARIABLE)
    region = region_from_intervals(grid, [(0.3, 0.5)])
    basis, reg = {
        "dirichlet": (basis_d, region),
        "neumann": (basis_n, region),
        "circle": (ext, lift_region(ext, region)),
    }[family]
    lam = float(basis.frequencies[k])
    assert 3 <= mode_count(basis, lam) <= 5
    est, solved = _solved_cells(basis, lam, reg, monkeypatch)
    skipped = sorted(set(range(basis.grid.n)) - solved)
    assert skipped, "the prune skipped no cell"
    assert np.all(lp_cell_values(basis, lam, reg, skipped) <= est.constant * (1.0 + 1e-9))


def test_lp_circle_on_the_sweep_inputs_solves_under_half_its_cells(monkeypatch):
    grid, ext, _, _ = double_setup(160)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    est, solved = _solved_cells(ext, 7.0, lift_region(ext, region), monkeypatch)
    assert est.mode_count == 5
    assert len(solved) == est.lp_solves < ext.grid.n // 2
    # simultaneous_constant carries the circle estimate's counts through
    _, _, sim = simultaneous_constant(ext, 7.0, region)
    assert (sim.lp_solves, sim.lp_retries) == (est.lp_solves, est.lp_retries)


def test_lp_on_the_sweep_inputs_solves_half_the_cells_it_did():
    # lp_solves per estimate (dirichlet, neumann, circle) at lam 4 then 7,
    # under the minimum-norm prune alone
    grid, ext, _, _ = double_setup(160)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    solves = [est.lp_solves for lam in (4.0, 7.0) for est in simultaneous_constant(ext, lam, region)]
    assert all(now < before for now, before in zip(solves, (10, 86, 136, 88, 70, 74), strict=True))
    assert sum(solves) <= 464 // 2


def test_lp_prunes_with_each_solved_point_itself():
    # lp_solves per estimate (dirichlet, neumann, circle) at each cutoff, under
    # the triangle-inequality relaxation of the solved point's bound
    for n, lams, before, total in (
        (160, (4.0, 7.0), (3, 17, 20, 28, 18, 14), 60),
        (128, (4.0, 13.0), (3, 16, 19, 14, 9, 5), 40),
    ):
        grid, ext, _, _ = double_setup(n)
        region = region_from_intervals(grid, [(0.45, 0.55)])
        solves = [est.lp_solves for lam in lams for est in simultaneous_constant(ext, lam, region)]
        assert all(now < then for now, then in zip(solves, before, strict=True)), (n, solves)
        assert sum(solves) <= total, (n, solves)


def _final_bounds(monkeypatch):
    """Spy on _upper_ends. Its first call in an estimate is the pass over every
    cell, and the sweep tightens the bounds it returns in place, so after the
    estimate they hold, at each skipped cell, the bound that skipped it."""
    calls = []

    def spy(*args):
        calls.append(upper_ends(*args))
        return calls[-1]

    upper_ends = specineq._upper_ends
    monkeypatch.setattr(specineq, "_upper_ends", spy)
    return lambda: calls[0][2]


@pytest.mark.parametrize(
    "family, n, window, lam, K",
    [("dirichlet", 64, (0.3, 0.5), None, None), ("neumann", 64, (0.3, 0.5), None, None),
     ("circle", 64, (0.3, 0.5), None, None), ("circle", 160, (0.45, 0.55), 7.0, 5),
     ("circle", 128, (0.45, 0.55), 13.0, 9)],
    ids=["dirichlet", "neumann", "circle", "circle-sweep", "circle-horizon"],
)
def test_lp_skipping_bounds_hold_each_cell_optimum(family, n, window, lam, K, monkeypatch):
    # variable coefficients at the fifth frequency, else constant ones at lam
    # with K modes; the sweep case is the benchmark's circle at lam=7, where
    # nearly every cell is skipped, and the horizon case is that of
    # test_simultaneous_constant_certified_at_float64_horizon
    grid, ext, basis_d, basis_n = double_setup(n, **(VARIABLE if K is None else {}))
    region = region_from_intervals(grid, [window])
    basis, reg = {
        "dirichlet": (basis_d, region),
        "neumann": (basis_n, region),
        "circle": (ext, lift_region(ext, region)),
    }[family]
    lam = float(basis.frequencies[4]) if lam is None else lam
    bounds = _final_bounds(monkeypatch)
    est, solved = _solved_cells(basis, lam, reg, monkeypatch)
    assert 3 <= est.mode_count <= 5 if K is None else est.mode_count == K
    skipped = sorted(set(range(basis.grid.n)) - solved)
    assert skipped, "the prune skipped no cell"
    optima = lp_cell_values(basis, lam, reg, skipped, own_peak=True)
    assert np.count_nonzero(optima) >= len(skipped) // 2
    assert np.all(optima <= bounds()[skipped] * (1.0 + 1e-9))


def test_lp_bracket_wider_than_tolerance_raises(monkeypatch):
    basis = wall_basis(64, D)
    region = region_from_intervals(basis.grid, [(0.45, 0.55)])
    lam = float(basis.frequencies[4])
    est = estimate_constant_lp(basis, lam, region)
    assert 0.0 < est.upper - est.constant <= 1e-9 * est.constant
    monkeypatch.setattr(specineq, "_BRACKET_TOL", 0.0)
    with pytest.raises(NumericalError, match="bracket"):
        estimate_constant_lp(basis, lam, region)


def test_simultaneous_constant_certified_at_float64_horizon():
    # n=128, window (0.45, 0.55), lam=13: the circle has K=9 modes and the
    # restriction sigma_min/sigma_max ~ 1.4e-12
    grid, ext, _, _ = double_setup(128)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    lifted = lift_region(ext, region)
    _, _, est = simultaneous_constant(ext, 13.0, region)
    assert est.mode_count == 9
    E = ext.columns(9)
    R = np.sqrt(ext.grid.weights[lifted.mask])[:, None] * E[lifted.mask]
    p = E @ scipy.linalg.svd(R)[2][-1]
    witness = sup_norm(p) / l1_norm_on(p, lifted)
    assert witness > 6e12
    assert est.constant >= witness
    assert est.upper - est.constant <= 1e-3 * est.constant


def test_neumann_lp_sweep_nondecreasing_at_n512():
    grid, ext, basis_d, basis_n = double_setup(512)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    values = [
        estimate_constant_lp(basis_n, float(basis_d.frequencies[k]), region).constant
        for k in range(12)
    ]
    assert all(np.isfinite(v) for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-9)


def test_l2_surrogate_shares_the_lp_rank_rule_at_n512():
    # Neumann at the 12th Dirichlet frequency (K=13): sigma_min ~ 6e-14 sits
    # above the relative rank floor, so the estimate is finite and carries it
    grid, ext, basis_d, basis_n = double_setup(512)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    lam = float(basis_d.frequencies[11])
    assert mode_count(basis_n, lam) == 13
    est = estimate_constant_lp(basis_n, lam, region)
    assert np.isfinite(est.constant)
    assert 0.0 < est.sigma_min < 1e-12


def test_randomized_bound_stays_below_lp():
    basis = wall_basis(64, D)
    region = region_from_intervals(basis.grid, [(0.45, 0.55)])
    lam = float(basis.frequencies[2])
    lp = estimate_constant_lp(basis, lam, region)
    rnd, _ = randomized_lower_bound(basis, lam, region, trials=200, seed=7)
    assert rnd <= lp.constant * (1.0 + 1e-12)


def test_certificates_reproduce_reported_constants():
    basis = wall_basis(64, N, kappa=lambda x: 1.0 + 0.3 * x)
    region = region_from_intervals(basis.grid, [(0.3, 0.5)])
    lam = float(basis.frequencies[3])
    lp = estimate_constant_lp(basis, lam, region)
    assert len(lp.certificate) == lp.mode_count
    for constant, certificate in (
        (lp.constant, lp.certificate),
        randomized_lower_bound(basis, lam, region, trials=64, seed=0),
    ):
        p = basis.vectors[:, : len(certificate)] @ certificate
        ratio = sup_norm(p) / l1_norm_on(p, region)
        assert abs(ratio - constant) <= 1e-8 * constant


def test_l2_surrogate_frozen_cases():
    basis = wall_basis(16, D)
    whole = region_from_intervals(basis.grid, [(0.0, 1.0)])
    est = estimate_constant_lp(basis, float(basis.frequencies[4]), whole)
    assert_allclose(est.sigma_min, 1.0, atol=1e-12)  # orthonormal restriction
    # more modes than observation cells forces rank deficiency
    est = estimate_constant_lp(basis, float(basis.frequencies[2]), one_cell_region(basis.grid, 5))
    assert est.constant == np.inf
    assert est.sigma_min == 0.0


def test_l2_surrogate_against_svd_oracle():
    basis = wall_basis(64, D)
    region = region_from_intervals(basis.grid, [(0.4, 0.6)])
    lam = float(basis.frequencies[1])
    est = estimate_constant_lp(basis, lam, region)
    R = np.sqrt(basis.grid.weights[region.mask])[:, None] * basis.vectors[region.mask, :2]
    smin = scipy.linalg.svdvals(R)[-1]
    assert_allclose(est.sigma_min, smin, rtol=1e-10)


def test_simultaneous_kernel_only_cutoff_gives_inverse_measure():
    grid, ext, basis_d, basis_n = double_setup(64)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    # lam below every positive frequency: only the circle's constant mode
    _, _, est = simultaneous_constant(ext, 1.0, region)
    assert est.mode_count == 1
    assert_allclose(est.constant, 1.0 / region.measure, rtol=1e-10)


def test_simultaneous_needs_as_many_cells_as_modes():
    grid, ext, basis_d, basis_n = double_setup(64)
    narrow = region_from_intervals(grid, [(0.45, 0.55)])  # 6 cells
    lam = float(basis_d.frequencies[2])  # 3 odd + 4 even modes on the circle
    _, _, est = simultaneous_constant(ext, lam, narrow)
    assert est.mode_count == 7
    assert est.constant == np.inf


def test_an_unbounded_wall_hands_the_circle_a_circle_certificate():
    # one window cell under 3 Dirichlet and 4 Neumann modes: the Dirichlet wall
    # is unbounded, so the joint estimate is too, and its null direction, the
    # circle's own or the wall's embedded, is in circle coordinates
    grid, ext, _, _ = double_setup(16)
    region = region_from_intervals(grid, [(0.45, 0.5)])
    dirichlet, _, est = simultaneous_constant(ext, 10.0, region)
    assert dirichlet.constant == est.constant == np.inf
    assert est.certificate.shape == (est.mode_count,) == (7,)
    field = ext.rows(lift_region(ext, region), est.mode_count) @ est.certificate
    assert np.max(np.abs(field)) <= 1e-12 * np.max(np.abs(est.certificate))


def test_simultaneous_dominates_both_walls():
    grid, ext, basis_d, basis_n = double_setup(64)
    region = region_from_intervals(grid, [(0.4, 0.6)])
    lam = float(basis_d.frequencies[2])
    cd, cn, cs = simultaneous_constant(ext, lam, region)
    assert np.isfinite(cs.constant)
    assert cs.constant >= max(cd.constant, cn.constant) * (1.0 - 1e-12)
    # the circle LP alone dominates both walls up to its solver slack
    alone = estimate_constant_lp(ext, lam, lift_region(ext, region))
    assert alone.constant >= max(cd.constant, cn.constant) - 1e-8
    assert alone.constant <= cs.constant


@pytest.mark.parametrize("n, window, lam", [(64, (0.3, 0.5), 7.0), (160, (0.45, 0.55), 7.0)])
def test_lp_seeded_with_its_own_certificate_keeps_its_constant(n, window, lam):
    grid, ext, _, _ = double_setup(n)
    lifted = lift_region(ext, region_from_intervals(grid, [window]))
    est = estimate_constant_lp(ext, lam, lifted)
    seeded = estimate_constant_lp(ext, lam, lifted, [est.certificate])
    assert seeded.constant == est.constant
    assert seeded.lp_solves <= est.lp_solves


@pytest.mark.parametrize(
    "n, window, lam",
    [(16, (0.0, 1.0), 1.0), (160, (0.45, 0.55), 4.0), (160, (0.45, 0.55), 7.0)],
    ids=["kernel-only", "sweep-4", "sweep-7"],
)
def test_simultaneous_is_at_least_each_embedded_wall_certificate(n, window, lam):
    # no slack: at the kernel-only cutoff the circle LP alone reads
    # 1.0000000000000053 and the embedded Neumann certificate 1.0000000000000056
    grid, ext, _, _ = double_setup(n)
    region = region_from_intervals(grid, [window])
    lifted = lift_region(ext, region)
    *walls, joint = simultaneous_constant(ext, lam, region)
    E = ext.columns(joint.mode_count)
    for wall, offset in zip(walls, (0, n)):
        if wall is None:
            continue
        embedded = np.zeros(joint.mode_count)
        embedded[ext.circle_rows[offset : offset + wall.mode_count]] = wall.certificate
        p = E @ embedded
        assert joint.constant >= sup_norm(p) / l1_norm_on(p, lifted)


@pytest.mark.parametrize("lam, solves", [(1.0, 2), (7.0, 3)])
def test_simultaneous_constant_estimates_each_wall_once(lam, solves, monkeypatch):
    # lam=1.0 lies below every Dirichlet frequency: that wall has no mode and
    # gets None, and only the Neumann wall and the circle are solved
    grid, ext, _, _ = double_setup(64)
    region = region_from_intervals(grid, [(0.45, 0.55)])
    calls = []

    def counted(*args):
        calls.append(args)
        return estimate_constant_lp(*args)

    monkeypatch.setattr(specineq, "estimate_constant_lp", counted)
    *walls, joint = simultaneous_constant(ext, lam, region)
    assert len(calls) == solves
    assert (walls[0] is None) == (lam == 1.0)
    assert joint.mode_count == mode_count(ext, lam)
    for basis, est in zip(ext.walls, walls):
        if est is None:
            assert mode_count(basis, lam) == 0
            continue
        direct = estimate_constant_lp(basis, lam, region)
        assert (est.constant, est.upper, est.lp_solves) == (direct.constant, direct.upper, direct.lp_solves)
        assert_array_equal(est.certificate, direct.certificate)


def test_fit_recovers_exact_exponential():
    ests = [
        SpectralConstantEstimate(lam=float(k), mode_count=k, region_measure=0.1, constant=float(np.exp(k)))
        for k in (1, 2, 3)
    ]
    fit = fit_exponential(ests)
    assert_allclose(fit.slope, 1.0, atol=1e-12)
    assert_allclose(fit.logC, 0.0, atol=1e-12)
    assert fit.residual <= 1e-13


def test_fit_constant_data_has_zero_slope():
    ests = [
        SpectralConstantEstimate(lam=float(k), mode_count=k, region_measure=0.1, constant=5.0)
        for k in (1, 2, 4)
    ]
    assert abs(fit_exponential(ests).slope) <= 1e-14


def test_fit_rejects_bad_inputs():
    def est(lam, constant):
        return SpectralConstantEstimate(lam=lam, mode_count=1, region_measure=0.1, constant=constant)

    with pytest.raises(ValueError):
        fit_exponential([est(1.0, 2.0), est(2.0, np.inf), est(3.0, 4.0)])
    with pytest.raises(ValueError):
        fit_exponential([est(1.0, 2.0), est(2.0, 3.0)])
    with pytest.raises(ValueError):
        fit_exponential([est(1.0, 2.0), est(1.0, 3.0), est(2.0, 4.0)])


def test_fit_that_is_not_finite_raises():
    # subnormal cutoffs: the slope against lam overflows
    ests = [
        SpectralConstantEstimate(lam=k * 1e-320, mode_count=k, region_measure=0.1, constant=float(np.exp(k)))
        for k in (1, 2, 3)
    ]
    with pytest.raises(NumericalError, match="not finite"):
        fit_exponential(ests)


def test_empty_cutoff_rejected_everywhere():
    basis = wall_basis(8, D)
    region = region_from_intervals(basis.grid, [(0.2, 0.8)])
    empty = 0.0
    with pytest.raises(ValueError):
        estimate_constant_lp(basis, empty, region)
    with pytest.raises(ValueError):
        randomized_lower_bound(basis, empty, region)
