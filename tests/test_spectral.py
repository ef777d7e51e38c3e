"""Mode counts, projections, and the three norms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from common import D, N, analytic_eigenbasis, double_setup, wall_basis
from simulheat.grid import Grid1D, region_from_intervals
from simulheat.spectral import (
    l1_norm_on,
    l2_norm,
    mode_count,
    project,
    sup_norm,
)


def test_cutoff_counts_include_equality():
    basis = wall_basis(8, D)
    assert mode_count(basis, 0.0) == 0
    assert mode_count(basis, float(basis.frequencies[2])) == 3
    assert mode_count(basis, float(basis.frequencies[2]) - 1e-9) == 2
    assert mode_count(basis, 1e9) == 8
    neumann = wall_basis(8, N)
    assert mode_count(neumann, 0.0) == 1  # kernel mode sits at frequency 0


def test_cutoff_counts_the_exact_ties_of_constant_coefficients():
    # Dirichlet mode k and Neumann mode k+1 share the wavenumber k+1, so the
    # two wall solves give the same eigenvalue up to rounding
    grid, ext, basis_d, basis_n = double_setup(512)
    for k in range(200):
        lam = float(basis_d.frequencies[k])
        assert mode_count(basis_n, lam) == k + 2
        assert mode_count(ext, lam) == 2 * k + 3


def test_cutoff_validation():
    for lam in (-1.0, np.nan):  # searchsorted would count every mode for a NaN
        with pytest.raises(ValueError):
            mode_count(wall_basis(8, D), lam)


def test_projection_is_identity_above_top_frequency():
    basis = wall_basis(16, D, kappa=lambda x: 1.0 + x)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(16)
    K = mode_count(basis, float(basis.frequencies[-1]))
    assert_allclose(project(basis, K, u), u, rtol=0, atol=1e-12)


def test_projection_at_zero_cutoff():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(16)
    bd = wall_basis(16, D)
    assert_allclose(project(bd, mode_count(bd, 0.0), u), 0.0, atol=0)
    bn = wall_basis(16, N)
    mean = np.sum(bn.grid.weights * u) / np.sum(bn.grid.weights)
    assert_allclose(project(bn, mode_count(bn, 0.0), u), mean, rtol=0, atol=1e-13)


def test_projection_idempotent_and_self_adjoint():
    basis = wall_basis(24, N, kappa=lambda x: 2.0 - x)
    K = mode_count(basis, float(basis.frequencies[9]))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(24)
    v = rng.standard_normal(24)
    pu = project(basis, K, u)
    assert_allclose(project(basis, K, pu), pu, rtol=0, atol=1e-12)
    w = basis.grid.weights
    assert abs(np.sum(w * pu * v) - np.sum(w * u * project(basis, K, v))) <= 1e-12


def test_projection_pythagoras():
    basis = wall_basis(32, D)
    K = mode_count(basis, float(basis.frequencies[10]))
    u = np.random.default_rng(1).standard_normal(32)
    pu = project(basis, K, u)
    total = l2_norm(basis.grid, u) ** 2
    parts = l2_norm(basis.grid, pu) ** 2 + l2_norm(basis.grid, u - pu) ** 2
    assert abs(total - parts) <= 1e-10 * total


def test_projection_ranges_are_nested():
    basis = wall_basis(32, D)
    lo = mode_count(basis, float(basis.frequencies[4]))
    hi = mode_count(basis, float(basis.frequencies[11]))
    u = np.random.default_rng(8).standard_normal(32)
    plo = project(basis, lo, u)
    assert_allclose(project(basis, hi, plo), plo, rtol=0, atol=1e-12)


def test_mode_coefficients_roundtrip():
    basis = wall_basis(20, D, kappa=lambda x: 1.0 + 0.5 * x)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(20)
    u = basis.vectors @ c
    assert_allclose(basis.coefficients(u), c, rtol=0, atol=1e-12)


def test_norms_on_single_cell_indicator():
    g = Grid1D(4)
    u = np.zeros(4)
    u[2] = 1.0
    region = region_from_intervals(g, [(0.5, 0.75)])
    assert sup_norm(u) == 1.0
    assert l1_norm_on(u, region) == 0.25
    assert l2_norm(g, u) == 0.5


def test_zero_field_norms():
    g = Grid1D(6)
    z = np.zeros(6)
    region = region_from_intervals(g, [(0.0, 1.0)])
    assert sup_norm(z) == 0.0
    assert l1_norm_on(z, region) == 0.0
    assert l2_norm(g, z) == 0.0


def test_norms_match_direct_formulas():
    g = Grid1D(33, kappa=lambda x: 1.0 + x)
    u = np.random.default_rng(9).standard_normal(33)
    region = region_from_intervals(g, [(0.2, 0.6)])
    assert sup_norm(u) == np.max(np.abs(u))
    m = region.mask
    assert_allclose(l1_norm_on(u, region), np.sum(g.weights[m] * np.abs(u[m])), rtol=1e-14)
    assert_allclose(l2_norm(g, u), np.sqrt(np.sum(g.weights * u**2)), rtol=1e-14)


def test_first_mode_sup_to_mass_ratio_approaches_half_pi():
    # continuum sin(pi x): sup 1, integral of |.| is 2/pi, ratio pi/2
    g = Grid1D(4096)
    basis = analytic_eigenbasis(g, D)
    whole = region_from_intervals(g, [(0.0, 1.0)])
    e1 = basis.vectors[:, 0]
    ratio = sup_norm(e1) / l1_norm_on(e1, whole)
    assert abs(ratio - np.pi / 2.0) <= 1e-3


def test_project_shape_guard():
    basis = wall_basis(8, D)
    with pytest.raises(ValueError):
        project(basis, mode_count(basis, 10.0), np.zeros(9))
