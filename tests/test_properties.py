"""Property tests over drawn sizes and coefficient profiles: the stacked
paths against their per-field calls, the split round trip, the doubling
checks against their double-check bars, the wall residuals of the
shared-control pipeline, steering that meets its tolerance or raises, and
the exact-lp bracket."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from common import D, N, problem, randomized_lower_bound, unit_pair
from simulheat.cli import _DOUBLE_CHECK_TOL
from simulheat.control import _STEER_TOL, SingularGramianError, hum_low_mode_control, march
from simulheat.doubling import build_double, extend_pair, split, verify
from simulheat.grid import region_from_intervals
from simulheat.operators import assemble_laplacian, eigendecompose
from simulheat.sim import run_simultaneous
from simulheat.specineq import estimate_constant_lp
from simulheat.spectral import l2_norm, make_cutoff, sup_norm


def piecewise_linear(values):
    """The profile on [0, 1] through values at evenly spaced knots."""
    xs = np.linspace(0.0, 1.0, len(values))
    return lambda x: np.interp(x, xs, values)


@st.composite
def profiles(draw):
    """A positive profile on [0, 1]: piecewise linear through 2-5 even knots
    with values in [0.2, 5]."""
    knots = draw(st.integers(2, 5))
    return piecewise_linear(draw(st.lists(st.floats(0.2, 5.0), min_size=knots, max_size=knots)))


@st.composite
def interval_problems(draw, min_n=2, max_n=48):
    n = draw(st.integers(min_n, max_n))
    grid, coeffs = problem(n, kappa=draw(profiles()), a=draw(profiles()))
    return grid, coeffs


def fields(seed, shape):
    """Seeded standard normal fields, each row at its own scale."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape[:-1] + (1,))


@given(interval_problems(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_split_and_norms_equal_per_field_calls(problem_, rows, seed):
    grid, coeffs = problem_
    dd = build_double(grid, coeffs)
    U = fields(seed, (rows, 2 * grid.n))
    su, sv = split(dd, U)
    for k in range(rows):
        ru, rv = split(dd, U[k])
        assert_array_equal(su[k], ru)
        assert_array_equal(sv[k], rv)
    for grid_, stack in ((grid, su), (dd.doubled, U)):
        assert_array_equal(l2_norm(grid_, stack), [l2_norm(grid_, row) for row in stack])
        assert_array_equal(sup_norm(stack), [sup_norm(row) for row in stack])


@given(interval_problems(), st.integers(0, 2**32 - 1))
def test_split_inverts_extend_pair(problem_, seed):
    grid, coeffs = problem_
    dd = build_double(grid, coeffs)
    u, v = fields(seed, (2, grid.n))
    ru, rv = split(dd, extend_pair(dd, u, v))
    bound = np.finfo(float).eps * (np.abs(u) + np.abs(v))
    assert np.all(np.abs(ru - u) <= bound)
    assert np.all(np.abs(rv - v) <= bound)


@given(interval_problems(max_n=64), st.integers(0, 2**32 - 1))
def test_doubling_checks_meet_their_bars(problem_, seed):
    # spectrum union, extension, link identity and split round trip on drawn
    # sizes and profiles, each within the bar double-check passes it at
    grid, coeffs = problem_
    res = verify(build_double(grid, coeffs), seed)
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
def test_pipeline_wall_residuals_hold_or_exit_certified(problem_, left, width, method, seed, log_ratio):
    # the window is wider than any cell, so it holds a cell center; the pair
    # is weighted-unit, as the CLI draws it, then one side is rescaled so the
    # amplitudes differ by up to 1e5 either way
    grid, coeffs = problem_
    region = region_from_intervals(grid, [(left, left + width)])
    u0, v0 = unit_pair(grid, seed)
    v0 = v0 * 10.0**log_ratio
    try:
        rep = run_simultaneous(grid, coeffs, u0, v0, region, 1.0, method)
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
def test_steering_meets_its_tolerance_or_raises(problem_, bc, left, width, k, seed, log_tau):
    # horizons down to the subnormal range, where the step integrals under-
    # or overflow: a returned signal must still steer, checked by marching
    # the modes through it exactly
    grid, coeffs = problem_
    basis = eigendecompose(assemble_laplacian(grid, coeffs, bc))
    region = region_from_intervals(grid, [(left, left + width)])
    cut = make_cutoff(basis, float(basis.frequencies[min(k, grid.n - 1)]))
    y0 = np.random.default_rng(seed).standard_normal(cut.count)
    try:
        sig = hum_low_mode_control(basis, cut, region, y0, 10.0**log_tau)
    except SingularGramianError:
        return
    start = np.concatenate([y0, np.zeros(grid.n - cut.count)])
    final = march(basis, start, sig.timegrid, sig)[-1, : cut.count]
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
def test_exact_lp_bracket_holds_the_randomized_lower_bound(problem_, bc, left, width, k):
    grid, coeffs = problem_
    basis = eigendecompose(assemble_laplacian(grid, coeffs, bc))
    region = region_from_intervals(grid, [(left, left + width)])
    cut = make_cutoff(basis, float(basis.frequencies[k]))
    est = estimate_constant_lp(basis, cut, region)
    if not np.isfinite(est.constant):
        return  # a rank-deficient restriction: fewer window cells than modes
    assert est.constant <= est.upper
    assert est.constant >= randomized_lower_bound(basis, cut, region).constant * (1.0 - 1e-9)
    assert est.lp_solves <= grid.n
