"""Doubling the interval to a circle so both wall conditions become interior.

A field pair (u, v) on [0, L] is carried to the 2n-cell circle of
circumference 2L by U = u + v on the plus copy, cells 0..n-1, and U = v - u
on the mirror copy, cells n..2n-1 in reverse order. With evenly reflected
coefficients this intertwines exactly with the stencils: odd extensions of
Dirichlet modes and even extensions of Neumann modes are eigenvectors of the
periodic operator with the same eigenvalues, so the circle's spectrum is the
disjoint union of the two wall problems' spectra. verify checks this against
a dense eigensolve of the periodic operator.

The doubled problem is its circle basis: build_double returns the
operators.CircleBasis, which holds the two wall bases (walls), the circle
grid and circle_rows, and extend_pair, split, lift_region and verify take it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grid import ControlRegion, Grid1D
from .operators import BoundaryCondition, CircleBasis, _cells, _snap_kernel, assemble_laplacian, eigendecompose
from .spectral import l2_norm, mode_count, project, sup_norm

# random (u, v, lambda) triples the link identity and the split round trip are checked on
_LINK_TRIPLES = 100


def build_double(grid: Grid1D) -> CircleBasis:
    """Reflect grid and its coefficients across x = length, glue into a
    periodic grid, solve both wall problems once, and return the circle basis
    they extend to."""
    n = grid.n
    # kappa mirrors cell for cell, a face for face about the far wall; the
    # circle's h = 2L/2n is grid.h exactly
    doubled = Grid1D(
        2 * n, 2.0 * grid.length, np.concatenate([grid.kappa, grid.kappa[::-1]]),
        np.concatenate([grid.a, grid.a[-2::-1]]),
    )
    walls = (
        eigendecompose(assemble_laplacian(grid, BoundaryCondition.DIRICHLET)),
        eigendecompose(assemble_laplacian(grid, BoundaryCondition.NEUMANN)),
    )

    # the wall modes merged into ascending circle order, each to be divided by
    # its circle norm, sqrt(2 sum(w e^2)) for either parity
    vals = np.concatenate([b.eigenvalues for b in walls])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    rows = np.empty(2 * n, dtype=np.intp)
    rows[order] = np.arange(2 * n)
    return CircleBasis(
        eigenvalues=vals,
        frequencies=np.sqrt(np.maximum(vals, 0.0)),
        grid=doubled,
        walls=walls,
        circle_rows=rows,
        norms=tuple(np.sqrt(2.0 * (grid.weights @ b.vectors**2)) for b in walls),
    )


def extend_pair(ext: CircleBasis, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U with u + v on the plus copy and v - u on the mirror copy."""
    n = ext.grid.n // 2
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"fields must have shape ({n},)")
    return np.concatenate([u + v, (v - u)[::-1]], dtype=float)


def split(ext: CircleBasis, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd/even parts of a circle field, or of each row of a stack of them,
    pulled back to the interval.

    Inverse of extend_pair: u = (U+ - U-)/2 and v = (U+ + U-)/2, with U+ the
    plus copy and U- the mirror copy read back in base order.
    """
    if U.ndim < 1 or U.shape[-1] != ext.grid.n:
        raise ValueError(f"fields must have a last axis of width {ext.grid.n}")
    n = ext.grid.n // 2
    up, um = U[..., :n], U[..., : n - 1 : -1]
    return 0.5 * (up - um), 0.5 * (up + um)


def lift_region(ext: CircleBasis, region: ControlRegion) -> ControlRegion:
    """Carry a control region of the base grid to the plus copy only; the mirror stays silent."""
    return ControlRegion(ext.grid, np.isin(np.arange(ext.grid.n), _cells(ext.walls[0], region)))


@dataclass(frozen=True, eq=False)
class DoublingResiduals:
    """The four checks of the doubling, each as its largest residual, and the
    spectrum of the dense periodic eigensolve they are measured against."""

    spectrum_union: float
    extension_eigenvectors: float
    link_identity: float
    split_roundtrip: float
    circle_eigenvalues: np.ndarray = field(repr=False)


def verify(ext: CircleBasis, seed: int) -> DoublingResiduals:
    """Check the circle basis ext against an independent dense eigensolve of the periodic operator.

    spectrum_union: the sorted wall spectra against the circle's, relative on
    the max(|lambda|, 1) scale. extension_eigenvectors: ||A e - lambda e|| /
    max(lambda, 1) over every circle mode. link_identity: on seeded triples
    (u, v, lambda), splitting the circle projection of extend_pair(u, v)
    against the two wall projections, relative to their joint sup norm.
    split_roundtrip: split(extend_pair(u, v)) against (u, v) on the same draws.
    """
    basis_d, basis_n = ext.walls
    A = assemble_laplacian(ext.grid, BoundaryCondition.PERIODIC).dense()
    sqw = np.sqrt(ext.grid.weights)
    S = A * (sqw[:, None] / sqw[None, :])
    circle = _snap_kernel(scipy.linalg.eigvalsh(0.5 * (S + S.T)))

    union = np.sort(np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues]))
    denom = np.maximum(np.maximum(np.abs(union), np.abs(circle)), 1.0)
    spectrum = float(np.max(np.abs(union - circle) / denom))

    X = ext.columns(ext.grid.n)  # the dense circle basis, here alone
    R = A @ X - X * ext.eigenvalues
    extension = np.max(l2_norm(ext.grid, R.T) / np.maximum(ext.eigenvalues, 1.0))

    rng = np.random.default_rng(seed)
    link = roundtrip = 0.0
    n = ext.grid.n // 2
    for _ in range(_LINK_TRIPLES):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = float(rng.uniform(0.0, ext.frequencies[-1] * 1.05))
        U = extend_pair(ext, u, v)
        pu, pv = split(ext, project(ext, mode_count(ext, lam), U))
        pd = project(basis_d, mode_count(basis_d, lam), u)
        pn = project(basis_n, mode_count(basis_n, lam), v)
        scale = max(sup_norm(pd) + sup_norm(pn), 1.0)
        link = max(link, sup_norm(pu - pd) / scale, sup_norm(pv - pn) / scale)
        ru, rv = split(ext, U)
        roundtrip = max(roundtrip, sup_norm(ru - u), sup_norm(rv - v))
    # plain floats, so the pass flags a caller derives are plain bools
    return DoublingResiduals(
        spectrum_union=spectrum, extension_eigenvectors=float(extension), link_identity=link,
        split_roundtrip=roundtrip, circle_eigenvalues=circle,
    )
