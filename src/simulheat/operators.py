"""Conservative flux Laplacians with ghost-cell walls, and their eigenbases.

The operator is A = -(1/kappa) D^-(a kappa D^+) on cell averages, assembled
from the coefficients the grid carries, so that it is self-adjoint in the
weighted inner product sum(w u v), and stored as the symmetric S = W^(1/2) A
W^(-1/2) that is solved. The ghost-cell closures are chosen to make the
interval-to-circle doubling exact: a Dirichlet wall copies the first interior
cell with flipped sign, doubling the wall face's conductance, a Neumann wall
copies it unchanged, cancelling it, and Periodic wraps the stencil around.
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
    """The stencil as the symmetric matrix S = W^(1/2) A W^(-1/2) that
    eigendecompose solves: diag[i] = S[i, i], off[i] = S[i, i+1] = S[i+1, i],
    and the periodic corner S[0, n-1] = S[n-1, 0] (zero on the walls)."""

    bc: BoundaryCondition
    diag: np.ndarray
    off: np.ndarray
    corner: float
    grid: Grid1D

    def symmetric(self) -> np.ndarray:
        """S as an n x n matrix, for oracles and checks only."""
        S = np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)
        S[0, -1] += self.corner
        S[-1, 0] += self.corner
        return S

    def dense(self) -> np.ndarray:
        """The n x n stencil matrix A = W^(-1/2) S W^(1/2), for oracles and checks only."""
        sqw = np.sqrt(self.grid.weights)
        return self.symmetric() * (sqw / sqw[:, None])


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
        # gathered along each mode, which is contiguous in the Fortran-ordered vectors
        return self.vectors.T[:count].take(_cells(self, region), axis=1).T

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
            np.divide(wall.vectors.T[: len(rows)].take(base, axis=1).T, norms, out=part)
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


# the ghost cell's factor on its wall face's conductance: a Dirichlet ghost doubles
# the flux through the face, a Neumann ghost cancels it, and the circle has no wall
_WALL_FACTOR = {BoundaryCondition.DIRICHLET: 2.0, BoundaryCondition.NEUMANN: 0.0, BoundaryCondition.PERIODIC: 1.0}


def assemble_laplacian(grid: Grid1D, bc: BoundaryCondition) -> Operator:
    """The symmetric stencil of the weighted flux Laplacian of grid's coefficients under bc.

    Face j, between cells j-1 and j, conducts c_j = a_j times their mean kappa
    (a ghost cell carries its neighbour's kappa), times its ghost's factor at a
    wall. S[i, i] = (c_i + c_{i+1}) / (kappa_i h^2), S[i-1, i] = -c_i /
    (sqrt(kappa_{i-1} kappa_i) h^2), and the circle's face 0 is its face n."""
    n, kappa = grid.n, grid.kappa
    wrap = bc is BoundaryCondition.PERIODIC
    if wrap and grid.a[0] != grid.a[n]:
        raise ValueError("periodic coefficients must agree on the wrapped face")
    left = np.append(kappa[-1 if wrap else 0], kappa)  # kappa on either side of each face
    right = np.append(kappa, kappa[0 if wrap else -1])
    with np.errstate(all="ignore"):  # eigendecompose refuses a stencil beyond float64
        h2 = np.square(grid.h)
        c = grid.a * (0.5 * (left + right))
        c[[0, n]] *= _WALL_FACTOR[bc]
        face = -c * (1.0 / (np.sqrt(left) * np.sqrt(right) * h2))
        diag = (c[:n] + c[1:]) * (1.0 / (kappa * h2))
    return Operator(bc=bc, diag=diag, off=face[1:n], corner=face[0] if wrap else 0.0, grid=grid)


def _snap_kernel(vals: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """vals, ascending, with the structural kernel set to exactly 0: the lowest
    eigenvalue of the Neumann and periodic operators, whose rows sum to zero,
    and nothing of the Dirichlet one."""
    vals = vals.copy()
    if bc is not BoundaryCondition.DIRICHLET:
        vals[0] = 0.0
    return vals


def eigendecompose(op: Operator) -> EigenBasis:
    """Full weighted-orthonormal eigenbasis of a wall operator, eigenvalues ascending.

    S is symmetric tridiagonal, so scipy's divide-and-conquer solver applies
    and the vectors are mapped back by W^(-1/2), each with the sign the solver
    gave it, which no output reads; the Neumann wall's structural kernel is set
    to exactly 0. A stencil or spectrum beyond float64, or any other eigenvalue
    below 0, raises ValueError. The circle is not solved here: build_double
    assembles its basis from the two walls.
    """
    if op.bc is BoundaryCondition.PERIODIC:
        raise ValueError("eigendecompose solves the wall problems; build_double extends them to the circle")
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(op.diag, op.off, lapack_driver="stevd")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolve failed for {op.bc.value} operator (n={op.grid.n}): {exc}") from exc
    except ValueError:  # scipy refuses a stencil entry that is infinite or not a number
        vals = np.zeros(1)
    vals = _snap_kernel(vals, op.bc)
    # a stencil or spectrum beyond float64, 1/(kappa h^2) underflowed to 0, or a mode rounded below the kernel
    if not (vals.min() >= 0.0 and 0.0 < vals[-1] < np.inf):
        raise ValueError(f"coefficients kappa and a over length {op.grid.length!r} give a stencil beyond float64")
    vecs /= np.sqrt(op.grid.weights)[:, None]  # in place: no n x n copy
    return EigenBasis(
        bc=op.bc,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        vectors=vecs,
        grid=op.grid,
    )
