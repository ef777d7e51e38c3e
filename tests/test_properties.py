"""Property tests over drawn sizes and coefficient profiles: the stacked
paths against their per-field calls, the split round trip, the doubling
checks against their double-check bars, the wall residuals of the
shared-control pipeline, steering that meets its tolerance or raises, the
exact-lp bracket, and regions that weigh exactly their grid's cells."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from common import D, N, piecewise_linear, problem, profiles, randomized_lower_bound, unit_pair
from simulheat.cli import _DOUBLE_CHECK_TOL
from simulheat.control import _STEER_TOL, SingularGramianError, hum_low_mode_control, march
from simulheat.doubling import build_double, extend_pair, lift_region, split, verify
from simulheat.grid import (
    ControlRegion,
    EmptyRegionError,
    Grid1D,
    fat_cantor_region,
    read_mask_file,
    region_from_intervals,
    write_mask_file,
)
from simulheat.operators import assemble_laplacian, eigendecompose
from simulheat.sim import run_simultaneous
from simulheat.specineq import estimate_constant_lp
from simulheat.spectral import l2_norm, mode_count, sup_norm


@st.composite
def interval_problems(draw, min_n=2, max_n=48):
    n = draw(st.integers(min_n, max_n))
    return problem(n, kappa=draw(profiles()), a=draw(profiles()))


def fields(seed, shape):
    """Seeded standard normal fields, each row at its own scale."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape[:-1] + (1,))


@given(interval_problems(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_split_and_norms_equal_per_field_calls(grid, rows, seed):
    ext = build_double(grid)
    U = fields(seed, (rows, 2 * grid.n))
    su, sv = split(ext, U)
    for k in range(rows):
        ru, rv = split(ext, U[k])
        assert_array_equal(su[k], ru)
        assert_array_equal(sv[k], rv)
    for grid_, stack in ((grid, su), (ext.grid, U)):
        assert_array_equal(l2_norm(grid_, stack), [l2_norm(grid_, row) for row in stack])
        assert_array_equal(sup_norm(stack), [sup_norm(row) for row in stack])


@given(interval_problems(), st.integers(0, 2**32 - 1))
def test_split_inverts_extend_pair(grid, seed):
    ext = build_double(grid)
    u, v = fields(seed, (2, grid.n))
    ru, rv = split(ext, extend_pair(ext, u, v))
    bound = np.finfo(float).eps * (np.abs(u) + np.abs(v))
    assert np.all(np.abs(ru - u) <= bound)
    assert np.all(np.abs(rv - v) <= bound)


@given(interval_problems(max_n=64), st.integers(0, 2**32 - 1))
def test_doubling_checks_meet_their_bars(grid, seed):
    # spectrum union, extension, link identity and split round trip on drawn
    # sizes and profiles, each within the bar double-check passes it at
    res = verify(build_double(grid), seed)
    for name, tol in _DOUBLE_CHECK_TOL.items():
        assert getattr(res, name) <= tol, name


@given(
    interval_problems(min_n=8),
    st.floats(0.0, 0.7),
    st.floats(0.15, 0.3),
    st.sampled_from(["hum", "lr"]),
    st.integers(0, 2**32 - 1),
    st.floats(-5.0, 5.0),
)
# a pair 10^4.83 apart whose Neumann flux residual read 2.2e-10 when each
# residual was scaled by its own run's sup norm
@example(problem(8, kappa=piecewise_linear([4.864, 1.57]), a=piecewise_linear([3.791, 2.325])),
         0.146, 0.286, "hum", 493, -4.83)
def test_pipeline_wall_residuals_hold_or_exit_certified(grid, left, width, method, seed, log_ratio):
    # the window is wider than any cell, so it holds a cell center; the pair
    # is weighted-unit, as the CLI draws it, then one side is rescaled so the
    # amplitudes differ by up to 1e5 either way
    region = region_from_intervals(grid, [(left, left + width)])
    u0, v0 = unit_pair(grid, seed)
    v0 = v0 * 10.0**log_ratio
    try:
        rep = run_simultaneous(grid, u0, v0, region, 1.0, method)
    except SingularGramianError:
        return  # the CLI reports a steering miss as exit 3
    assert rep.dirichlet_trace_residual <= 1e-10
    assert rep.neumann_flux_residual <= 1e-10


@given(
    interval_problems(min_n=8, max_n=40),
    st.sampled_from([D, N]),
    st.floats(0.0, 0.7),
    st.floats(0.15, 0.3),
    st.integers(0, 11),
    st.integers(0, 2**32 - 1),
    st.floats(-320.0, 0.5),
)
def test_steering_meets_its_tolerance_or_raises(grid, bc, left, width, k, seed, log_tau):
    # horizons down to the subnormal range, where the step integrals under-
    # or overflow: a returned signal must still steer, checked by marching
    # the modes through it exactly
    basis = eigendecompose(assemble_laplacian(grid, bc))
    region = region_from_intervals(grid, [(left, left + width)])
    K = mode_count(basis, float(basis.frequencies[min(k, grid.n - 1)]))
    y0 = np.random.default_rng(seed).standard_normal(K)
    try:
        sig = hum_low_mode_control(basis, region, y0, 10.0**log_tau)
    except SingularGramianError:
        return
    start = np.concatenate([y0, np.zeros(grid.n - K)])
    final = march(basis, start, sig.timegrid, sig)[-1, :K]
    # the solver verifies against its Gramian formed in float64, whose
    # rounding the marched state sees amplified: over 10,000 uniform draws of
    # these inputs the worst returned signal left 7.9e-8 |y0|
    assert np.linalg.norm(final) <= 10 * _STEER_TOL * np.linalg.norm(y0)


@settings(max_examples=25)
@given(
    interval_problems(min_n=8, max_n=40),
    st.sampled_from([D, N]),
    st.floats(0.0, 0.7),
    st.floats(0.15, 0.3),
    st.integers(0, 4),
)
def test_exact_lp_bracket_holds_the_randomized_lower_bound(grid, bc, left, width, k):
    basis = eigendecompose(assemble_laplacian(grid, bc))
    region = region_from_intervals(grid, [(left, left + width)])
    lam = float(basis.frequencies[k])
    est = estimate_constant_lp(basis, lam, region)
    if not np.isfinite(est.constant):
        return  # a rank-deficient restriction: fewer window cells than modes
    assert est.constant <= est.upper
    assert est.constant >= randomized_lower_bound(basis, lam, region).constant * (1.0 - 1e-9)
    assert est.lp_solves <= grid.n


@given(
    st.integers(2, 64),
    st.floats(1e-3, 1e3),
    profiles(),
    st.data(),
)
def test_every_region_weighs_exactly_its_cells(n, length, kappa, data):
    grid = Grid1D(n, length, kappa)
    ext = build_double(grid)
    # an interval pair around a drawn cell center holds that cell
    center = grid.centers[data.draw(st.integers(0, n - 1))]
    left, right = (data.draw(st.floats(1e-6, 0.5)) * length for _ in range(2))
    keep = data.draw(st.integers(1, n))
    cantor = fat_cantor_region(grid, min(keep * grid.h, grid.length), data.draw(st.integers(1, 6)),
                               data.draw(st.integers(0, 2**32 - 1)))
    regions = [region_from_intervals(grid, [(center - left, center + right)]), cantor]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mask.txt")
        write_mask_file(path, cantor)
        regions.append(read_mask_file(path, grid))
    # a region made from a caller's array keeps its own copy of it
    mine = regions[0].mask.copy()
    copied = ControlRegion(grid, mine)
    kept = [copied.mask.copy(), copied.cells.copy(), copied.measure, copied.weights.copy()]
    np.logical_not(mine, out=mine)
    for now, then in zip((copied.mask, copied.cells, copied.measure, copied.weights), kept):
        assert_array_equal(now, then)
    regions.append(copied)
    for region in regions:
        assert region.grid is grid
        assert region.measure == grid.h * int(region.mask.sum())
        assert_array_equal(region.weights, grid.weights[region.mask])
        lifted = lift_region(ext, region)
        assert lifted.grid is ext.grid
        assert lifted.measure == region.measure
        assert_array_equal(lifted.weights, ext.grid.weights[lifted.mask])
        assert_array_equal(lifted.weights, region.weights)
        for r in (region, lifted):
            assert_array_equal(r.cells, np.flatnonzero(r.mask))
            for arr in (r.mask, r.cells, r.weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]
    mask = regions[0].mask
    for bad in (mask[:-1], np.concatenate([mask, mask]), mask.astype(int)):
        with pytest.raises(ValueError, match="boolean array of shape"):
            ControlRegion(grid, bad)
    with pytest.raises(EmptyRegionError):
        ControlRegion(grid, np.zeros(n, dtype=bool))
