"""Shared construction helpers for the test suite."""

import numpy as np

from simulheat.doubling import build_double, extend_pair
from simulheat.grid import make_coefficients, make_uniform_grid
from simulheat.operators import BoundaryCondition, EigenBasis, assemble_laplacian, eigendecompose
from simulheat.spectral import l2_norm

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
P = BoundaryCondition.PERIODIC

# the variable-coefficient profile of the acceptance criteria
VARIABLE = {
    "kappa": lambda x: 1.0 + 0.5 * x,
    "a": lambda x: 1.3 - 0.3 * x,
}


def problem(n, length=1.0, kappa=1.0, a=1.0):
    """Grid plus matching coefficients; keeps the shared-kappa contract honest."""
    grid = make_uniform_grid(n, length, kappa)
    return grid, make_coefficients(grid, kappa, a)


def wall_basis(n, bc, length=1.0, kappa=1.0, a=1.0):
    grid, coeffs = problem(n, length, kappa, a)
    return eigendecompose(assemble_laplacian(grid, coeffs, bc))


def double_setup(n, length=1.0, kappa=1.0, a=1.0):
    """(grid, coeffs, dd, basis_d, basis_n, extended circle basis)."""
    grid, coeffs = problem(n, length, kappa, a)
    dd = build_double(grid, coeffs)
    return grid, coeffs, dd, dd.basis_d, dd.basis_n, dd.basis_circle


def circle_operator(dd):
    """The dense periodic operator of the doubled problem, an oracle only."""
    return assemble_laplacian(dd.doubled, dd.doubled_coeffs, P)


def extend_eigenfunction(dd, e, bc):
    """Odd (Dirichlet) or even (Neumann) extension, unit-norm on the circle."""
    if bc is D:
        ext = extend_pair(dd, e, np.zeros_like(e))
    elif bc is N:
        ext = extend_pair(dd, np.zeros_like(e), e)
    else:
        raise ValueError("only wall problems extend; got periodic")
    return ext / l2_norm(dd.doubled, ext)


def extended_eigenbasis(dd, basis_d, basis_n):
    """Circle basis built one column at a time: the oracle for dd.basis_circle."""
    if basis_d.bc is not D or basis_n.bc is not N:
        raise ValueError("pass the Dirichlet basis first and the Neumann basis second")
    n = dd.base.n
    cols = np.empty((2 * n, 2 * n))
    for k in range(n):
        cols[:, k] = extend_eigenfunction(dd, basis_d.vectors[:, k], D)
        cols[:, n + k] = extend_eigenfunction(dd, basis_n.vectors[:, k], N)
    vals = np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    return EigenBasis(
        bc=P,
        eigenvalues=vals,
        frequencies=np.sqrt(np.maximum(vals, 0.0)),
        vectors=cols[:, order],
        grid=dd.doubled,
    )


def unit_pair(grid, seed):
    """Two weighted-unit random fields on grid."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    wu = float(np.sqrt(np.sum(grid.weights * u * u)))
    wv = float(np.sqrt(np.sum(grid.weights * v * v)))
    return u / wu, v / wv
