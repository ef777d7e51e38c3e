"""Conservative flux Laplacians with ghost-cell walls, and their eigenbases.

The operator is A = -(1/kappa) D^-(a kappa D^+) on cell averages, assembled
from the coefficients the grid carries, so that it is self-adjoint in the
weighted inner product sum(w u v). The ghost-cell closures are chosen to make
the interval-to-circle doubling exact: a Dirichlet wall copies the first
interior cell with flipped sign, a Neumann wall copies it unchanged, and
Periodic wraps the stencil around.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grid import ControlRegion, Grid1D


class NumericalError(RuntimeError):
    """A linear-algebra kernel failed to converge."""


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True, eq=False)
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


def _cells(basis: Basis, region: ControlRegion) -> np.ndarray:
    """The cells of region, refused unless it lives on basis's own grid: the package's one grid check."""
    if region.grid is not basis.grid:
        raise ValueError(f"region lives on another grid than the {basis.bc.value} basis it is read through")
    return region.cells


@dataclass(frozen=True, eq=False)
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

    def columns(self, count: int) -> np.ndarray:
        """The leading count modes, one per column."""
        return self.vectors[:, :count]

    def rows(self, region: ControlRegion, count: int | None = None) -> np.ndarray:
        """The leading count modes (all of them if None) on the region's cells, one row per cell."""
        return self.vectors[_cells(self, region), :count]

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """All weighted mode coefficients <e_k, u>."""
        return self.vectors.T @ (self.grid.weights * u)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """The field of a full set of mode coefficients, or of each row of a stack of them."""
        return coeffs @ self.vectors.T


@dataclass(frozen=True, eq=False)
class CircleBasis:
    """The periodic eigenbasis of the doubled grid as a view of the two wall
    bases, answering as EigenBasis does without storing a 2n x 2n matrix:
    rows reads a region of the doubled grid, and columns reads all of it.

    Base cell i is circle cell i on the plus copy and 2n-1-i on the mirror
    copy. Circle mode circle_rows[k] is the odd extension of Dirichlet mode k
    of walls[0], and circle_rows[n + k] the even extension of Neumann mode k
    of walls[1]: the wall mode e over its circle norm sqrt(2 sum(w e^2))
    (norms[0] and norms[1], per wall) on the plus copy, and the same, negated
    if odd, on the mirror copy.
    """

    eigenvalues: np.ndarray
    frequencies: np.ndarray
    grid: Grid1D
    walls: tuple[EigenBasis, EigenBasis] = field(repr=False)
    circle_rows: np.ndarray = field(repr=False)
    norms: tuple[np.ndarray, np.ndarray] = field(repr=False)
    bc = BoundaryCondition.PERIODIC

    def _parts(self, count: int):
        """Per wall: the basis, its sign on the mirror copy, and the norms and
        circle modes of its modes among the leading count circle modes. Each
        wall's circle modes ascend, so those are the wall's leading modes."""
        n = self.walls[0].grid.n
        halves = (self.circle_rows[:n], self.circle_rows[n:])
        for wall, sign, norms, rows in zip(self.walls, (-1.0, 1.0), self.norms, halves):
            m = int(np.searchsorted(rows, count))
            yield wall, sign, norms[:m], rows[:m]

    def columns(self, count: int) -> np.ndarray:
        # modes contiguous in memory, as the columns of a wall basis are
        return np.asfortranarray(self.rows(ControlRegion(self.grid, np.ones(self.grid.n, dtype=bool)), count))

    def rows(self, region: ControlRegion, count: int | None = None) -> np.ndarray:
        count = len(self.eigenvalues) if count is None else count
        n = self.walls[0].grid.n
        cells = _cells(self, region)
        mirror = cells >= n
        base = np.minimum(cells, 2 * n - 1 - cells)  # the base cell of each
        both = np.empty((len(cells), count))  # wall by wall, then taken into circle order
        where = np.empty(count, dtype=np.intp)
        start = 0
        for wall, sign, norms, rows in self._parts(count):
            part = both[:, start : start + len(rows)]
            np.divide(wall.vectors[base, : len(rows)], norms, out=part)
            if sign < 0:  # odd modes change sign on the mirror copy
                part[mirror] *= sign
            where[rows] = np.arange(start, start + len(rows))
            start += len(rows)
        return both.take(where, axis=1)

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        n = self.walls[0].grid.n
        out = np.empty(2 * n)
        for wall, sign, norms, rows in self._parts(2 * n):
            out[rows] = wall.coefficients(u[:n] + sign * u[: n - 1 : -1]) / norms
        return out

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        n = self.walls[0].grid.n
        odd, even = (wall.synthesize(coeffs[..., rows] / norms) for wall, _, norms, rows in self._parts(2 * n))
        out = np.empty(odd.shape[:-1] + (2 * n,))  # extend_pair(odd, even), row by row
        np.add(even, odd, out=out[..., :n])
        np.subtract(even, odd, out=out[..., : n - 1 : -1])
        return out


Basis = EigenBasis | CircleBasis


def _face_conductivity(grid: Grid1D, periodic: bool) -> np.ndarray:
    """a * kappa at faces; kappa is averaged from the two adjacent cells.

    At a wall the mirror cell carries the same kappa, so the one-sided value
    is already the even-reflected average.
    """
    n, kappa = grid.n, grid.kappa
    kf = np.empty(n + 1)
    kf[1:n] = 0.5 * (kappa[:-1] + kappa[1:])
    if periodic:
        if grid.a[0] != grid.a[n]:
            raise ValueError("periodic coefficients must agree on the wrapped face")
        kf[0] = kf[n] = 0.5 * (kappa[n - 1] + kappa[0])
    else:
        kf[0] = kappa[0]
        kf[n] = kappa[n - 1]
    return grid.a * kf


def assemble_laplacian(grid: Grid1D, bc: BoundaryCondition) -> Operator:
    """Stencil diagonals of the weighted flux Laplacian of grid's coefficients under bc."""
    n = grid.n
    c = _face_conductivity(grid, periodic=bc is BoundaryCondition.PERIODIC)
    inv = 1.0 / (grid.kappa * grid.h**2)
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
    positive, flipping in place the columns where it is negative. Its only
    n x n temporaries are two boolean masks."""
    thr = (1.0 - _SIGN_TIE) * np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    tie = vectors >= thr
    tie |= vectors <= -thr
    lead = np.argmax(tie, axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
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
