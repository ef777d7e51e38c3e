"""Doubling the interval to a circle so both wall conditions become interior.

A field pair (u, v) on [0, L] is carried to the 2n-cell circle of
circumference 2L by U = u + v on the plus copy, cells 0..n-1, and U = v - u
on the mirror copy, cells n..2n-1 in reverse order. With evenly reflected
coefficients this intertwines exactly with the stencils: odd extensions of
Dirichlet modes and even extensions of Neumann modes are eigenvectors of the
periodic operator with the same eigenvalues, so the circle's spectrum is the
disjoint union of the two wall problems' spectra. verify checks this against
a dense eigensolve of the periodic operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grid import ControlRegion, Grid1D
from .operators import BoundaryCondition, CircleBasis, EigenBasis, _snap_kernel, assemble_laplacian, eigendecompose
from .spectral import l2_norm, make_cutoff, project, sup_norm

# random (u, v, lambda) triples the link identity and the split round trip are checked on
_LINK_TRIPLES = 100


@dataclass(frozen=True, eq=False)
class DoubleDomain:
    """The doubled problem: both wall eigenbases and the circle basis they extend to.

    doubled is the 2n-cell circle Grid1D with the evenly reflected coefficients.
    Base cell i is circle cell i on the plus copy and 2n-1-i on the mirror copy.
    basis_circle is a view of basis_d and basis_n: the odd Dirichlet and even
    Neumann extensions, unit-norm and ascending, read from the two walls on
    demand. circle_rows[k] is the circle mode of Dirichlet mode k, and
    circle_rows[n + k] that of Neumann mode k.
    """

    base: Grid1D
    doubled: Grid1D
    circle_rows: np.ndarray
    basis_d: EigenBasis = field(repr=False)
    basis_n: EigenBasis = field(repr=False)
    basis_circle: CircleBasis = field(repr=False)


def build_double(grid: Grid1D) -> DoubleDomain:
    """Reflect grid and its coefficients across x = length, glue into a
    periodic grid, and solve both wall problems once."""
    n = grid.n
    # kappa mirrors cell for cell, a face for face about the far wall; the
    # circle's h = 2L/2n is grid.h exactly
    doubled = Grid1D(
        2 * n, 2.0 * grid.length, np.concatenate([grid.kappa, grid.kappa[::-1]]),
        np.concatenate([grid.a, grid.a[-2::-1]]),
    )
    basis_d = eigendecompose(assemble_laplacian(grid, BoundaryCondition.DIRICHLET))
    basis_n = eigendecompose(assemble_laplacian(grid, BoundaryCondition.NEUMANN))

    # the wall modes merged into ascending circle order, each to be divided by
    # its circle norm, sqrt(2 sum(w e^2)) for either parity
    vals = np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    rows = np.empty(2 * n, dtype=np.intp)
    rows[order] = np.arange(2 * n)
    basis_circle = CircleBasis(
        eigenvalues=vals,
        frequencies=np.sqrt(np.maximum(vals, 0.0)),
        grid=doubled,
        walls=(basis_d, basis_n),
        circle_rows=rows,
        norms=tuple(np.sqrt(2.0 * (grid.weights @ b.vectors**2)) for b in (basis_d, basis_n)),
    )
    return DoubleDomain(
        base=grid, doubled=doubled, circle_rows=rows,
        basis_d=basis_d, basis_n=basis_n, basis_circle=basis_circle,
    )


def extend_pair(dd: DoubleDomain, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U with u + v on the plus copy and v - u on the mirror copy."""
    n = dd.base.n
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"fields must have shape ({n},)")
    return np.concatenate([u + v, (v - u)[::-1]], dtype=float)


def split(dd: DoubleDomain, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd/even parts of a circle field, or of each row of a stack of them,
    pulled back to the interval.

    Inverse of extend_pair: u = (U+ - U-)/2 and v = (U+ + U-)/2, with U+ the
    plus copy and U- the mirror copy read back in base order.
    """
    if U.ndim < 1 or U.shape[-1] != dd.doubled.n:
        raise ValueError(f"fields must have a last axis of width {dd.doubled.n}")
    n = dd.base.n
    up, um = U[..., :n], U[..., : n - 1 : -1]
    return 0.5 * (up - um), 0.5 * (up + um)


def lift_region(dd: DoubleDomain, region: ControlRegion) -> ControlRegion:
    """Carry a control region to the plus copy only; the mirror stays silent."""
    mask = np.concatenate([region.mask, np.zeros(dd.base.n, dtype=bool)])
    return ControlRegion(mask=mask, measure=dd.doubled.h * int(mask.sum()))


@dataclass(frozen=True, eq=False)
class DoublingResiduals:
    """The four checks of the doubling, each as its largest residual, and the
    spectrum of the dense periodic eigensolve they are measured against."""

    spectrum_union: float
    extension_eigenvectors: float
    link_identity: float
    split_roundtrip: float
    circle_eigenvalues: np.ndarray = field(repr=False)


def verify(dd: DoubleDomain, seed: int) -> DoublingResiduals:
    """Check dd against an independent dense eigensolve of the periodic operator.

    spectrum_union: the sorted wall spectra against the circle's, relative on
    the max(|lambda|, 1) scale. extension_eigenvectors: ||A e - lambda e|| /
    max(lambda, 1) over every circle mode. link_identity: on seeded triples
    (u, v, lambda), splitting the circle projection of extend_pair(u, v)
    against the two wall projections, relative to their joint sup norm.
    split_roundtrip: split(extend_pair(u, v)) against (u, v) on the same draws.
    """
    basis_d, basis_n, ext = dd.basis_d, dd.basis_n, dd.basis_circle
    A = assemble_laplacian(dd.doubled, BoundaryCondition.PERIODIC).dense()
    sqw = np.sqrt(dd.doubled.weights)
    S = A * (sqw[:, None] / sqw[None, :])
    circle = _snap_kernel(scipy.linalg.eigvalsh(0.5 * (S + S.T)))

    union = np.sort(np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues]))
    denom = np.maximum(np.maximum(np.abs(union), np.abs(circle)), 1.0)
    spectrum = float(np.max(np.abs(union - circle) / denom))

    X = ext.columns(dd.doubled.n)  # the dense circle basis, here alone
    R = A @ X - X * ext.eigenvalues
    extension = np.max(l2_norm(dd.doubled, R.T) / np.maximum(ext.eigenvalues, 1.0))

    rng = np.random.default_rng(seed)
    link = roundtrip = 0.0
    n = dd.base.n
    for _ in range(_LINK_TRIPLES):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lam = float(rng.uniform(0.0, ext.frequencies[-1] * 1.05))
        U = extend_pair(dd, u, v)
        pu, pv = split(dd, project(ext, make_cutoff(ext, lam), U))
        pd = project(basis_d, make_cutoff(basis_d, lam), u)
        pn = project(basis_n, make_cutoff(basis_n, lam), v)
        scale = max(sup_norm(pd) + sup_norm(pn), 1.0)
        link = max(link, sup_norm(pu - pd) / scale, sup_norm(pv - pn) / scale)
        ru, rv = split(dd, U)
        roundtrip = max(roundtrip, sup_norm(ru - u), sup_norm(rv - v))
    # plain floats, so the pass flags a caller derives are plain bools
    return DoublingResiduals(
        spectrum_union=spectrum, extension_eigenvectors=float(extension), link_identity=link,
        split_roundtrip=roundtrip, circle_eigenvalues=circle,
    )
