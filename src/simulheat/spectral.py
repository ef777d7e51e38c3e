"""Mode counts up to a frequency cutoff, spectral projectors, and the norms
they are measured in."""

from __future__ import annotations

import numpy as np

from .grid import ControlRegion, Grid1D
from .operators import Basis


def resolution(basis: Basis) -> float:
    """Eigenvalues of basis closer than this count as one eigenvalue.

    Each computed eigenvalue carries an absolute error of a few eps *
    lambda_max. Exact ties, such as the double circle eigenvalues of constant
    coefficients, come out up to 6.5 eps * lambda_max apart, and distinct
    eigenvalues at least 2.6e9 eps * lambda_max apart (both measured up to
    n = 2048); n eps lambda_max lies between, on a domain of any length.
    """
    return basis.grid.n * float(np.finfo(float).eps) * float(basis.eigenvalues[-1])


def mode_count(basis: Basis, lam: float) -> int:
    """The number of modes of basis at frequency lam or below: those with
    eigenvalue <= lam^2 + resolution(basis), so a frequency equal to lam up to
    rounding is included."""
    if not lam >= 0:  # NaN too, which searchsorted would place past every mode
        raise ValueError(f"cutoff must be nonnegative, got {lam}")
    with np.errstate(over="ignore"):
        top = np.square(float(lam)) + resolution(basis)
    return int(np.searchsorted(basis.eigenvalues, top, side="right"))


def project(basis: Basis, count: int, u: np.ndarray) -> np.ndarray:
    """Weighted-orthogonal projection of u onto the leading count modes."""
    if u.shape != (basis.grid.n,):
        raise ValueError(f"field has shape {u.shape}, expected ({basis.grid.n},)")
    E = basis.columns(count)
    coeffs = E.T @ (basis.grid.weights * u)
    return E @ coeffs


def sup_norm(u: np.ndarray) -> float | np.ndarray:
    """Largest |entry| of a field, or of each row of an (m, n) stack."""
    norms = np.max(np.abs(u), axis=-1, initial=0.0)
    return norms if u.ndim > 1 else float(norms)


def l2_norm(grid: Grid1D, u: np.ndarray) -> float | np.ndarray:
    """Weighted L2 norm of a field, or of each row of an (m, n) stack."""
    # in C order each row is summed pairwise, as a single field is; a stack in
    # Fortran order, as split returns, would be summed a column at a time and
    # differ from the per-row norms in the last bits
    u = np.ascontiguousarray(u)
    norms = np.sqrt(np.sum(grid.weights * u * u, axis=-1))
    return norms if u.ndim > 1 else float(norms)


def l1_norm_on(u: np.ndarray, region: ControlRegion) -> float:
    """Weighted L1 norm of u restricted to the region's cells."""
    return float(np.sum(region.weights * np.abs(u[region.cells])))
