"""Stencil assembly and eigendecomposition against closed forms."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from common import D, N, P, VARIABLE, analytic_eigenbasis, dense_eigenbasis, problem, wall_basis
from simulheat.grid import Grid1D
from simulheat.operators import assemble_laplacian, eigendecompose


def aligned(basis, reference):
    """basis's vectors, each column negated where its weighted overlap with
    reference's column is negative: a mode is fixed only up to sign, and a
    simple spectrum fixes it up to nothing else."""
    overlaps = np.sum(basis.grid.weights[:, None] * basis.vectors * reference.vectors, axis=0)
    return basis.vectors * np.where(overlaps < 0, -1.0, 1.0)


def test_dirichlet_stencil_frozen_n2():
    # ghost u_{-1} = -u_0 doubles the wall flux: diag 8 + 4 = 12 at h = 1/2
    grid = problem(2)
    op = assemble_laplacian(grid, D)
    assert_array_equal(op.dense(), [[12.0, -4.0], [-4.0, 12.0]])


def test_neumann_stencil_frozen_n2():
    grid = problem(2)
    op = assemble_laplacian(grid, N)
    assert_array_equal(op.dense(), [[4.0, -4.0], [-4.0, 4.0]])


def test_periodic_stencil_is_circulant():
    grid = problem(4, length=2.0)
    op = assemble_laplacian(grid, P)
    first = np.array([8.0, -4.0, 0.0, -4.0])
    for i in range(4):
        assert_array_equal(op.dense()[i], np.roll(first, i))


def test_periodic_requires_matching_wrap_face():
    grid = problem(8, a=lambda x: 1.0 + x)
    assert grid.a[0] != grid.a[-1]
    with pytest.raises(ValueError):
        assemble_laplacian(grid, P)
    # the same profile is fine on the wall problems
    assemble_laplacian(grid, D)


def test_weighted_self_adjointness():
    grid = problem(24, kappa=lambda x: 1.0 + 0.5 * x, a=lambda x: 1.0 + 0.3 * np.sin(3 * x))
    rng = np.random.default_rng(0)
    for bc in (D, N):
        A = assemble_laplacian(grid, bc).dense()
        for _ in range(20):
            u = rng.standard_normal(24)
            v = rng.standard_normal(24)
            left = np.sum(grid.weights * (A @ u) * v)
            right = np.sum(grid.weights * u * (A @ v))
            scale = max(abs(left), abs(right), 1.0)
            assert abs(left - right) <= 1e-12 * scale


def test_rayleigh_quotients_nonnegative():
    grid = problem(16, kappa=lambda x: 1.0 + x)
    rng = np.random.default_rng(4)
    for bc in (D, N):
        A = assemble_laplacian(grid, bc).dense()
        for _ in range(10):
            u = rng.standard_normal(16)
            assert np.sum(grid.weights * u * (A @ u)) >= -1e-12


def test_frozen_small_spectra():
    grid = problem(2)
    bd = eigendecompose(assemble_laplacian(grid, D))
    assert_allclose(bd.eigenvalues, [8.0, 16.0], rtol=1e-14)
    bn = eigendecompose(assemble_laplacian(grid, N))
    assert_allclose(bn.eigenvalues, [0.0, 8.0], rtol=1e-14, atol=1e-14)
    # kernel vector is the weighted-normalized constant: both entries 1, up to sign
    assert_allclose(bn.vectors[:, 0] * np.sign(bn.vectors[0, 0]), [1.0, 1.0], rtol=1e-14)
    bp = dense_eigenbasis(assemble_laplacian(problem(4, length=2.0), P))
    assert_allclose(bp.eigenvalues, [0.0, 8.0, 8.0, 16.0], rtol=1e-12, atol=1e-12)


def test_spectrum_matches_closed_form():
    n = 64
    grid = problem(n)
    k = np.arange(1, n + 1)
    exact_d = (4.0 / grid.h**2) * np.sin(np.pi * k * grid.h / 2.0) ** 2
    bd = eigendecompose(assemble_laplacian(grid, D))
    assert_allclose(bd.eigenvalues, exact_d, rtol=1e-10)
    k = np.arange(n)
    exact_n = (4.0 / grid.h**2) * np.sin(np.pi * k * grid.h / 2.0) ** 2
    bn = eigendecompose(assemble_laplacian(grid, N))
    assert_allclose(bn.eigenvalues, exact_n, rtol=1e-10, atol=1e-9)


def test_weighted_orthonormality_variable_coeffs():
    basis = wall_basis(64, D, kappa=lambda x: 1.0 + 0.5 * x, a=lambda x: 2.0 - x)
    gram = basis.vectors.T @ (basis.grid.weights[:, None] * basis.vectors)
    assert np.max(np.abs(gram - np.eye(64))) <= 1e-10


def test_eigenvector_residuals():
    grid = problem(64, kappa=lambda x: 1.0 + 0.5 * x, a=lambda x: 1.5 - 0.4 * x)
    for bc in (D, N):
        op = assemble_laplacian(grid, bc)
        basis = eigendecompose(op)
        for k in range(0, 64, 7):
            r = op.dense() @ basis.vectors[:, k] - basis.eigenvalues[k] * basis.vectors[:, k]
            assert np.linalg.norm(r) <= 1e-9 * max(basis.eigenvalues[k], 1.0)


@pytest.mark.parametrize("n", [2, 3, 64, 512])
@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_eigendecompose_matches_dense_oracle(n, profile):
    grid = problem(n, **(VARIABLE if profile == "variable" else {}))
    for bc in (D, N):
        op = assemble_laplacian(grid, bc)
        basis = eigendecompose(op)
        oracle = dense_eigenbasis(op)
        scale = np.maximum(np.abs(oracle.eigenvalues), 1.0)
        assert np.max(np.abs(basis.eigenvalues - oracle.eigenvalues) / scale) <= 1e-10
        # wall spectra are simple, so each mode matches up to its sign
        assert np.max(np.abs(aligned(basis, oracle) - oracle.vectors)) <= 1e-9


def test_eigendecompose_leaves_the_circle_to_build_double():
    grid = problem(8, length=2.0)
    with pytest.raises(ValueError):
        eigendecompose(assemble_laplacian(grid, P))


def test_structural_kernel_snaps_to_exact_zero():
    bn = wall_basis(32, N, kappa=lambda x: 1.0 + x)
    assert bn.eigenvalues[0] == 0.0
    assert bn.frequencies[0] == 0.0
    grid = problem(32, length=2.0)
    bp = dense_eigenbasis(assemble_laplacian(grid, P))
    assert bp.eigenvalues[0] == 0.0
    assert wall_basis(32, D).eigenvalues[0] > 0.0


def test_a_stiff_neumann_wall_face_changes_nothing():
    # the Neumann ghost cancels the wall face's flux: the face's conductance is
    # scaled by 0, not added and then subtracted, which at 1e20 cancelled to
    # a spectrum of [-32, 3.66, 29.45, ...]
    def spectrum(a0):
        return wall_basis(8, N, a=[a0] + [1.0] * 8).eigenvalues

    reference = spectrum(1e10)
    for a0 in (1e20, 1e100):
        assert spectrum(a0)[0] == 0.0
        assert_allclose(spectrum(a0), reference, rtol=1e-12)


def test_only_the_structural_kernel_is_snapped():
    # a stiff wall face puts the top Dirichlet eigenvalue near 3e14: every
    # other mode lies below 1e-12 of it and must keep its own eigenvalue
    stiff = wall_basis(8, D, a=[1e13] + [1.0] * 8).eigenvalues
    assert np.all(stiff > 1.0)
    assert_allclose(stiff[:-1], wall_basis(8, D, a=[1e10] + [1.0] * 8).eigenvalues[:-1], rtol=1e-6)
    neumann = wall_basis(8, N, a=[1.0] * 8 + [1e13]).eigenvalues
    assert neumann[0] == 0.0 and np.all(neumann[1:] > 1.0)


def test_an_eigenvalue_below_the_kernel_is_refused():
    # the lowest eigenvalue is the Neumann kernel, set to 0; the next is not
    grid = problem(3)
    for bc in (D, N):
        op = dataclasses.replace(assemble_laplacian(grid, bc), diag=np.array([-8.0, -4.0, 10.0]), off=np.zeros(2))
        with pytest.raises(ValueError, match="beyond float64"):
            eigendecompose(op)


def test_the_stencil_is_the_symmetric_form_of_the_flux_laplacian():
    # faces conduct c = a * (mean kappa) = 1, 5, 19.5, 36; S[i, i+1] h^2 =
    # -c_{i+1} / sqrt(kappa_i kappa_{i+1}), and S[i, i] h^2 = (c_i + c_{i+1}) /
    # kappa_i with each wall face's c doubled (Dirichlet) or dropped (Neumann)
    grid = problem(3, kappa=[1.0, 4.0, 9.0], a=[1.0, 2.0, 3.0, 4.0])
    for bc, f in ((D, 2.0), (N, 0.0)):
        op = assemble_laplacian(grid, bc)
        assert_allclose(op.off * grid.h**2, [-5.0 / 2.0, -19.5 / 6.0], rtol=1e-15)
        assert_allclose(op.diag * grid.h**2, [f + 5.0, (5.0 + 19.5) / 4.0, (19.5 + f * 36.0) / 9.0], rtol=1e-15)
        assert op.corner == 0.0


def test_sign_convention_and_determinism():
    # each mode keeps the sign stevd gives it: the vectors are the solver's,
    # divided by sqrt(w), bit for bit, and a repeated solve repeats them
    grid = problem(31, kappa=lambda x: 1.0 + 0.2 * np.cos(x))
    op = assemble_laplacian(grid, D)
    a = eigendecompose(op)
    vecs = scipy.linalg.eigh_tridiagonal(op.diag, op.off, lapack_driver="stevd")[1]
    assert_array_equal(a.vectors, vecs / np.sqrt(grid.weights)[:, None])
    b = eigendecompose(op)
    assert_array_equal(a.vectors, b.vectors)
    assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_analytic_basis_frozen_n2():
    g = Grid1D(2)
    bd = analytic_eigenbasis(g, D)
    # sin(pi/4) = sin(3pi/4): first mode is the constant direction (1,1)
    assert_allclose(bd.vectors[:, 0] / bd.vectors[0, 0], [1.0, 1.0], rtol=1e-14)
    assert_allclose(bd.vectors[:, 1] / bd.vectors[0, 1], [1.0, -1.0], rtol=1e-14)
    assert_allclose(bd.eigenvalues, [8.0, 16.0], rtol=1e-14)
    bn = analytic_eigenbasis(g, N)
    assert bn.eigenvalues[0] == 0.0
    assert_allclose(bn.vectors[:, 0], [1.0, 1.0], rtol=1e-14)


def test_analytic_matches_numeric_wall_bases():
    n = 64
    grid = problem(n)
    for bc in (D, N):
        num = eigendecompose(assemble_laplacian(grid, bc))
        ana = analytic_eigenbasis(grid, bc)
        assert_allclose(num.eigenvalues, ana.eigenvalues, rtol=1e-10, atol=1e-9)
        # interval spectra are simple, so modes must match up to orientation
        overlaps = np.abs(np.sum(grid.weights[:, None] * num.vectors * ana.vectors, axis=0))
        assert np.min(overlaps) >= 1.0 - 1e-8


def test_analytic_matches_numeric_periodic_subspaces():
    # each nonzero periodic eigenvalue is double, compare projectors per group
    grid = problem(32, length=2.0)
    num = dense_eigenbasis(assemble_laplacian(grid, P))
    ana = analytic_eigenbasis(grid, P)
    assert_allclose(num.eigenvalues, ana.eigenvalues, rtol=1e-10, atol=1e-9)
    w = grid.weights
    start = 0
    while start < 32:
        stop = start + 1
        while stop < 32 and abs(num.eigenvalues[stop] - num.eigenvalues[start]) <= 1e-9 * max(num.eigenvalues[stop], 1.0):
            stop += 1
        En = num.vectors[:, start:stop]
        Ea = ana.vectors[:, start:stop]
        diff = En @ (En.T * w) - Ea @ (Ea.T * w)
        assert np.max(np.abs(diff)) <= 1e-8
        start = stop


def test_analytic_basis_guards():
    g = Grid1D(8, kappa=lambda x: 1.0 + x)
    with pytest.raises(ValueError):
        analytic_eigenbasis(g, D)
    with pytest.raises(ValueError):
        analytic_eigenbasis(Grid1D(5), P)
