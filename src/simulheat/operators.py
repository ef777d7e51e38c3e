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
    """A linear-algebra kernel failed to converge."""


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Operator:
    """The stencil as its three diagonals: diag[i] = A[i, i], upper[i] =
    A[i, i+1] and lower[i] = A[i+1, i], plus the periodic corners A[0, n-1]
    and A[n-1, 0] (zero on the walls)."""

    bc: BoundaryCondition
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    corners: tuple[float, float]
    grid: Grid1D

    def dense(self) -> np.ndarray:
        """The n x n stencil matrix, for oracles and checks only."""
        A = np.diag(self.diag) + np.diag(self.upper, 1) + np.diag(self.lower, -1)
        A[0, -1] += self.corners[0]
        A[-1, 0] += self.corners[1]
        return A


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
    """Stencil diagonals of the weighted flux Laplacian under bc."""
    n = grid.n
    if coeffs.kappa.shape[0] != n:
        raise ValueError(f"coefficients sized for n={coeffs.kappa.shape[0]}, grid has n={n}")
    if not np.allclose(grid.weights, grid.h * coeffs.kappa, rtol=1e-12, atol=0):
        raise ValueError("grid weights disagree with h * kappa; rebuild grid and coefficients together")
    c = _face_conductivity(grid, coeffs, periodic=bc is BoundaryCondition.PERIODIC)
    inv = 1.0 / (coeffs.kappa * grid.h**2)
    diag = (c[:n] + c[1 : n + 1]) * inv
    corners = (0.0, 0.0)
    if bc is BoundaryCondition.DIRICHLET:
        # ghost = -first interior cell doubles the wall flux coefficient
        diag[0] += c[0] * inv[0]
        diag[n - 1] += c[n] * inv[n - 1]
    elif bc is BoundaryCondition.NEUMANN:
        # ghost = +first interior cell cancels the wall flux
        diag[0] -= c[0] * inv[0]
        diag[n - 1] -= c[n] * inv[n - 1]
    elif bc is BoundaryCondition.PERIODIC:
        corners = (-c[0] * inv[0], -c[n] * inv[n - 1])
    else:  # pragma: no cover
        raise ValueError(f"unknown boundary condition {bc}")
    return Operator(
        bc=bc, diag=diag, upper=-c[1:n] * inv[:-1], lower=-c[1:n] * inv[1:], corners=corners, grid=grid
    )


# entries this close to a column's largest magnitude, relative to it, tie with
# it: mirror-symmetric modes have their peak twice, and which copy rounds
# larger differs between eigensolvers
_SIGN_TIE = 1e-8


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first entry that ties with its largest magnitude
    positive, flipping in place the columns where it is negative."""
    mag = np.abs(vectors)
    lead = np.argmax(mag >= (1.0 - _SIGN_TIE) * mag.max(axis=0), axis=0)
    vectors[:, vectors[lead, np.arange(vectors.shape[1])] < 0] *= -1.0
    return vectors


def _snap_kernel(vals: np.ndarray) -> np.ndarray:
    """vals with the entries below 1e-12 * max set to exactly 0: the structural
    kernel of the Neumann and periodic operators."""
    vals = vals.copy()
    vals[np.abs(vals) <= 1e-12 * max(vals[-1], 1.0)] = 0.0
    return vals


def eigendecompose(op: Operator) -> EigenBasis:
    """Full weighted-orthonormal eigenbasis of a wall operator, eigenvalues ascending.

    The similarity W^(1/2) A W^(-1/2) is symmetric tridiagonal (its two
    off-diagonals are averaged against rounding), so scipy's tridiagonal
    divide-and-conquer solver applies and the vectors are mapped back; the
    structural kernel of the Neumann wall is snapped to exactly 0. The circle
    is not solved here: build_double assembles its basis from the two walls.
    """
    if op.bc is BoundaryCondition.PERIODIC:
        raise ValueError("eigendecompose solves the wall problems; build_double extends them to the circle")
    sqw = np.sqrt(op.grid.weights)
    off = 0.5 * (op.upper * (sqw[:-1] / sqw[1:]) + op.lower * (sqw[1:] / sqw[:-1]))
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(op.diag, off, lapack_driver="stevd")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolve failed for {op.bc.value} operator (n={op.grid.n}): {exc}") from exc
    vals = _snap_kernel(vals)
    vecs /= sqw[:, None]  # in place, as _fix_signs flips: no n x n copy
    return EigenBasis(
        bc=op.bc,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        vectors=_fix_signs(vecs),
        grid=op.grid,
    )
