"""Conservative flux Laplacians with ghost-cell walls, and their eigenbases.

The operator is A = -(1/kappa) D^-(a kappa D^+) on cell averages, assembled
so that it is self-adjoint in the weighted inner product sum(w u v). The
ghost-cell closures are chosen to make the interval-to-circle doubling exact:
a Dirichlet wall copies the first interior cell with flipped sign, a Neumann
wall copies it unchanged, and Periodic wraps the stencil around.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import Coefficients, Grid1D


class NumericalError(RuntimeError):
    """A dense linear-algebra kernel failed to converge."""


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Operator:
    bc: BoundaryCondition
    matrix: np.ndarray
    grid: Grid1D
    coeffs: Coefficients


@dataclass(frozen=True)
class EigenBasis:
    """Weighted-orthonormal eigenvectors, ascending eigenvalues.

    vectors[:, k] is the k-th mode; frequencies = sqrt(eigenvalues) with the
    structural kernel snapped to exactly 0.
    """

    bc: BoundaryCondition
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray
    grid: Grid1D


def _face_conductivity(grid: Grid1D, coeffs: Coefficients, periodic: bool) -> np.ndarray:
    """a * kappa at faces; kappa is averaged from the two adjacent cells.

    At a wall the mirror cell carries the same kappa, so the one-sided value
    is already the even-reflected average.
    """
    n = grid.n
    kf = np.empty(n + 1)
    kf[1:n] = 0.5 * (coeffs.kappa[:-1] + coeffs.kappa[1:])
    if periodic:
        if coeffs.a[0] != coeffs.a[n]:
            raise ValueError("periodic coefficients must agree on the wrapped face")
        kf[0] = kf[n] = 0.5 * (coeffs.kappa[n - 1] + coeffs.kappa[0])
    else:
        kf[0] = coeffs.kappa[0]
        kf[n] = coeffs.kappa[n - 1]
    return coeffs.a * kf


def assemble_laplacian(grid: Grid1D, coeffs: Coefficients, bc: BoundaryCondition) -> Operator:
    """Dense stencil matrix for the weighted flux Laplacian under bc."""
    n = grid.n
    if coeffs.kappa.shape[0] != n:
        raise ValueError(f"coefficients sized for n={coeffs.kappa.shape[0]}, grid has n={n}")
    if not np.allclose(grid.weights, grid.h * coeffs.kappa, rtol=1e-12, atol=0):
        raise ValueError("grid weights disagree with h * kappa; rebuild grid and coefficients together")
    c = _face_conductivity(grid, coeffs, periodic=bc is BoundaryCondition.PERIODIC)
    inv = 1.0 / (coeffs.kappa * grid.h**2)
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = (c[:n] + c[1 : n + 1]) * inv
    A[idx[:-1], idx[:-1] + 1] = -c[1:n] * inv[:-1]
    A[idx[1:], idx[1:] - 1] = -c[1:n] * inv[1:]
    if bc is BoundaryCondition.DIRICHLET:
        # ghost = -first interior cell doubles the wall flux coefficient
        A[0, 0] += c[0] * inv[0]
        A[n - 1, n - 1] += c[n] * inv[n - 1]
    elif bc is BoundaryCondition.NEUMANN:
        # ghost = +first interior cell cancels the wall flux
        A[0, 0] -= c[0] * inv[0]
        A[n - 1, n - 1] -= c[n] * inv[n - 1]
    elif bc is BoundaryCondition.PERIODIC:
        A[0, n - 1] += -c[0] * inv[0]
        A[n - 1, 0] += -c[n] * inv[n - 1]
    else:  # pragma: no cover
        raise ValueError(f"unknown boundary condition {bc}")
    return Operator(bc=bc, matrix=A, grid=grid, coeffs=coeffs)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the entry of largest magnitude positive (first such entry on ties)."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(op: Operator) -> EigenBasis:
    """Full weighted-orthonormal eigenbasis of op, eigenvalues ascending.

    The similarity W^(1/2) A W^(-1/2) is symmetric, so a symmetric solver is
    used and the vectors are mapped back; eigenvalues below 1e-12 * max are
    snapped to exactly 0 (structural kernel of Neumann/Periodic walls).
    """
    w = op.grid.weights
    sqw = np.sqrt(w)
    S = op.matrix * (sqw[:, None] / sqw[None, :])
    S = 0.5 * (S + S.T)
    try:
        vals, vecs = scipy.linalg.eigh(S)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolve failed for {op.bc.value} operator (n={op.grid.n}): {exc}") from exc
    vals = vals.copy()
    vals[np.abs(vals) <= 1e-12 * max(vals[-1], 1.0)] = 0.0
    vectors = _fix_signs(vecs / sqw[:, None])
    return EigenBasis(
        bc=op.bc,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        vectors=vectors,
        grid=op.grid,
    )
