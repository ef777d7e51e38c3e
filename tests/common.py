"""Shared construction helpers for the test suite."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
from hypothesis import strategies as st
from scipy.optimize import linprog

from simulheat.control import _REFINE_STEPS, _step_integrals
from simulheat.doubling import build_double, extend_pair
from simulheat.grid import Grid1D
from simulheat.operators import (
    BoundaryCondition,
    EigenBasis,
    _snap_kernel,
    assemble_laplacian,
    eigendecompose,
)
from simulheat.spectral import l1_norm_on, l2_norm, mode_count, sup_norm

ROOT = Path(__file__).resolve().parent.parent

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
P = BoundaryCondition.PERIODIC

# the variable-coefficient profile of the acceptance criteria
VARIABLE = {
    "kappa": lambda x: 1.0 + 0.5 * x,
    "a": lambda x: 1.3 - 0.3 * x,
}


def piecewise_linear(values):
    """The profile on [0, 1] through values at evenly spaced knots."""
    xs = np.linspace(0.0, 1.0, len(values))
    return lambda x: np.interp(x, xs, values)


@st.composite
def profiles(draw):
    """A positive profile on [0, 1]: piecewise linear through 2-5 even knots
    with values in [0.2, 5]."""
    knots = draw(st.integers(2, 5))
    return piecewise_linear(draw(st.lists(st.floats(0.2, 5.0), min_size=knots, max_size=knots)))


def run_python(*args):
    """stdout of a fresh interpreter run with args, on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def problem(n, length=1.0, kappa=1.0, a=1.0):
    return Grid1D(n, length, kappa, a)


def wall_basis(n, bc, length=1.0, kappa=1.0, a=1.0):
    return eigendecompose(assemble_laplacian(problem(n, length, kappa, a), bc))


def double_setup(n, length=1.0, kappa=1.0, a=1.0):
    """(grid, circle basis, basis_d, basis_n)."""
    grid = problem(n, length, kappa, a)
    ext = build_double(grid)
    return (grid, ext, *ext.walls)


def circle_operator(ext):
    """The periodic operator of the doubled problem, an oracle only."""
    return assemble_laplacian(ext.grid, P)


def dense_eigenbasis(op):
    """Eigenbasis from a dense eigh of the symmetric stencil, for any
    boundary condition: the oracle for eigendecompose, and the tests'
    eigensolver of the periodic operator."""
    vals, vecs = scipy.linalg.eigh(op.symmetric())
    vals = _snap_kernel(vals, op.bc)
    return EigenBasis(
        bc=op.bc,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        vectors=vecs / np.sqrt(op.grid.weights)[:, None],
        grid=op.grid,
    )


def copies(ext, X):
    """The rows of X on the plus copy, circle cells 0..n-1, and on the mirror
    copy, cells 2n-1 down to n; both in base cell order, as views."""
    n = ext.grid.n // 2
    return X[:n], X[: n - 1 : -1]


def dense_modes(basis):
    """Every mode of a wall or circle basis as one column of a dense matrix."""
    return basis.columns(len(basis.eigenvalues))


@dataclasses.dataclass(frozen=True, eq=False)
class DenseCircle(EigenBasis):
    """A dense circle basis that still names its two wall bases, as the
    doubling's functions read them from the circle basis."""

    walls: tuple = dataclasses.field(repr=False)


def mirror_flipped(ext, k):
    """The circle basis ext with mode k negated on the mirror copy: odd becomes
    even and even odd, so that column is no eigenvector of the circle any more.
    It becomes a dense basis, which answers as the view does."""
    vectors = dense_modes(ext)
    copies(ext, vectors)[1][:, k] *= -1.0
    return DenseCircle(bc=P, eigenvalues=ext.eigenvalues, frequencies=ext.frequencies, vectors=vectors,
                       grid=ext.grid, walls=ext.walls)


def extend_eigenfunction(ext, e, bc):
    """Odd (Dirichlet) or even (Neumann) extension, unit-norm on the circle."""
    if bc is D:
        U = extend_pair(ext, e, np.zeros_like(e))
    elif bc is N:
        U = extend_pair(ext, np.zeros_like(e), e)
    else:
        raise ValueError("only wall problems extend; got periodic")
    return U / l2_norm(ext.grid, U)


def extended_eigenbasis(ext, basis_d, basis_n):
    """Circle basis built one column at a time: the oracle for the view that
    build_double returns."""
    if basis_d.bc is not D or basis_n.bc is not N:
        raise ValueError("pass the Dirichlet basis first and the Neumann basis second")
    n = ext.grid.n // 2
    cols = np.empty((2 * n, 2 * n))
    for k in range(n):
        cols[:, k] = extend_eigenfunction(ext, basis_d.vectors[:, k], D)
        cols[:, n + k] = extend_eigenfunction(ext, basis_n.vectors[:, k], N)
    vals = np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    return EigenBasis(
        bc=P,
        eigenvalues=vals,
        frequencies=np.sqrt(np.maximum(vals, 0.0)),
        vectors=cols[:, order],
        grid=ext.grid,
    )


def unit_pair(grid, seed):
    """Two weighted-unit random fields on grid."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    wu = float(np.sqrt(np.sum(grid.weights * u * u)))
    wv = float(np.sqrt(np.sum(grid.weights * v * v)))
    return u / wu, v / wv


def mass_matrix_on_region(basis, count, region):
    """M_kl = <e_k, 1_region e_l> in the weighted inner product, over the
    leading count modes."""
    Ew = basis.rows(region, count)
    return Ew.T @ (basis.grid.weights[region.mask][:, None] * Ew)


def gramian(basis, count, region, tau):
    """Continuous-time control Gramian over [0, tau] for the leading count
    modes: the limit of the sampled Gramian of control.hum_low_mode_control.

    G_kl = M_kl (1 - e^{-(nu_k^2 + nu_l^2) tau}) / (nu_k^2 + nu_l^2), with the
    diagonal-zero limit M_kl tau.
    """
    if tau <= 0:
        raise ValueError(f"horizon must be positive, got {tau}")
    M = mass_matrix_on_region(basis, count, region)
    s = basis.eigenvalues[:count]
    denom = s[:, None] + s[None, :]
    factor = np.full_like(denom, tau)
    nz = denom > 0
    factor[nz] = -np.expm1(-denom[nz] * tau) / denom[nz]
    return M * factor


def dense_steer(basis, region, y0, timegrid, steer_tol=1e-8):
    """(values, verified residual) of the dense steering solve that the block
    elimination in control.hum_low_mode_control replaced, kept as its oracle.

    Steers the leading K = len(y0) modes. Forms H = (avg I^T) o M whole, factors H + 1e-12 max(diag H) I by
    Cholesky (LU if indefinite), solves H q = -e^{-lam tau} y0 and refines
    against H, as the solver does, until the residual meets steer_tol or
    after _REFINE_STEPS defect-correction steps; values = avg^T (q o Phi^T)
    on the region.
    """
    K = len(y0)
    lam = basis.eigenvalues[:K]
    I, avg = _step_integrals(lam, timegrid)
    H = (avg @ I.T) * mass_matrix_on_region(basis, K, region)
    Hreg = H.copy()
    Hreg.flat[:: K + 1] += 1e-12 * float(np.max(np.diag(H)))
    try:
        cho = scipy.linalg.cho_factor(Hreg)
        solve = lambda b: scipy.linalg.cho_solve(cho, b)
    except scipy.linalg.LinAlgError:
        lu = scipy.linalg.lu_factor(Hreg)
        solve = lambda b: scipy.linalg.lu_solve(lu, b)
    rhs = -np.exp(-lam * timegrid[-1]) * y0
    scale = float(np.linalg.norm(y0))
    q = solve(rhs)
    achieved = float(np.linalg.norm(rhs - H @ q)) / scale
    for _ in range(_REFINE_STEPS):
        if not steer_tol < achieved < np.inf:
            break
        q = q + solve(rhs - H @ q)
        achieved = float(np.linalg.norm(rhs - H @ q)) / scale
    Phi = basis.rows(region, K)
    return avg.T @ (q[:, None] * Phi.T), achieved


def lp_cell_values(basis, lam, region, cells=None, own_peak=False):
    """One fresh linprog per peak cell i in cells (default: every cell), over
    the modes at frequency lam or below.

    The LP minimizes the weighted L1 mass on the region with (Ec)_i pinned at
    theta. Returns each cell's re-evaluated certificate ratio, at least C_i up
    to solver tolerance; 0 where the peak row is zero or every method fails.
    The certificate may peak at another cell, so its ratio can exceed C_i
    many times over; own_peak returns theta / (the optimal mass) instead,
    which is C_i itself up to solver tolerance.
    """
    K = mode_count(basis, lam)
    E = basis.columns(K)
    m = region.mask
    nw = int(m.sum())
    Ew = E[m, :]
    smin = np.linalg.svd(np.sqrt(basis.grid.weights[m])[:, None] * Ew, compute_uv=False)[-1]
    # theta ~ 1/sigma_min keeps the optimum theta/C_i and the slacks at O(1)
    theta = max(1.0, 1.0 / smin)
    A_ub = scipy.sparse.vstack(
        [
            scipy.sparse.hstack([scipy.sparse.csr_matrix(Ew), -scipy.sparse.eye(nw, format="csr")]),
            scipy.sparse.hstack([scipy.sparse.csr_matrix(-Ew), -scipy.sparse.eye(nw, format="csr")]),
        ],
        format="csr",
    )
    b_ub = np.zeros(2 * nw)
    obj = np.concatenate([np.zeros(K), basis.grid.weights[m]])
    bounds = [(None, None)] * K + [(0.0, None)] * nw
    values = []
    for i in range(basis.grid.n) if cells is None else cells:
        values.append(0.0)
        A_eq = np.concatenate([E[i, :], np.zeros(nw)])[None, :]
        # presolve, then no presolve, then interior point
        for method, options in (("highs", None), ("highs", {"presolve": False}), ("highs-ipm", None)):
            res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[theta],
                          bounds=bounds, method=method, options=options)
            if res.status == 0 and res.fun > 0.0:
                p = E @ res.x[:K]
                values[-1] = theta / res.fun if own_peak else sup_norm(p) / l1_norm_on(p, region)
                break
            if res.status == 2:  # the peak row is identically zero
                break
    return np.array(values)


def lp_constant_oracle(basis, lam, region):
    """Exact-LP constant as the best ratio over every cell's fresh linprog:
    the full sweep estimate_constant_lp replaced, kept as its oracle on
    well-conditioned instances."""
    return float(np.max(lp_cell_values(basis, lam, region), initial=0.0))


def analytic_eigenbasis(grid, bc):
    """Closed-form trigonometric eigenbasis for constant unit coefficients.

    Dirichlet: sin(k pi x / L) for k = 1..n; Neumann: cos(k pi x / L) for
    k = 0..n-1; Periodic (length = circumference): the wavenumber-k pair,
    with the alternating mode at the top. All share the eigenvalue form
    (4/h^2) sin^2(k pi h / (2 L_family)).
    """
    if not np.allclose(grid.weights, grid.h, rtol=1e-12, atol=0):
        raise ValueError("analytic basis requires unit kappa (weights == h)")
    n, L, h, x = grid.n, grid.length, grid.h, grid.centers
    if bc is D:
        k = np.arange(1, n + 1)
        vecs = np.sin(np.pi * np.outer(x, k) / L)
        vals = (4.0 / h**2) * np.sin(np.pi * k * h / (2.0 * L)) ** 2
    elif bc is N:
        k = np.arange(n)
        vecs = np.cos(np.pi * np.outer(x, k) / L)
        vals = (4.0 / h**2) * np.sin(np.pi * k * h / (2.0 * L)) ** 2
    else:
        if n % 2 != 0:
            raise ValueError("periodic grids have an even cell count here")
        cols = [np.ones(n)]
        ks = [0]
        for k in range(1, n // 2):
            theta = 2.0 * np.pi * k * x / L
            cols.extend([np.cos(theta), np.sin(theta)])
            ks.extend([k, k])
        cols.append(np.sin(np.pi * n * x / L))  # alternating +-1 mode at the centers
        ks.append(n // 2)
        vecs = np.stack(cols, axis=1)
        vals = (4.0 / h**2) * np.sin(np.pi * np.asarray(ks) / n) ** 2
    vals = vals.astype(float)
    norms = np.sqrt((grid.weights[:, None] * vecs**2).sum(axis=0))
    return EigenBasis(
        bc=bc,
        eigenvalues=vals,
        frequencies=np.sqrt(np.maximum(vals, 0.0)),
        vectors=vecs / norms,
        grid=grid,
    )


def randomized_lower_bound(basis, lam, region, *, trials=256, seed=0):
    """(ratio, coefficients): the best sup/L1 ratio over random draws of the
    coefficients of the modes at frequency lam or below, never above the LP
    value, and the draw that attains it."""
    K = mode_count(basis, lam)
    if K < 1:
        raise ValueError("cutoff admits no modes")
    E = basis.columns(K)
    rng = np.random.default_rng(seed)
    best, best_c = -np.inf, None
    for _ in range(trials):
        c = rng.standard_normal(K)
        p = E @ c
        mass = l1_norm_on(p, region)
        val = np.inf if mass == 0.0 else sup_norm(p) / mass
        if val > best:
            best, best_c = val, c
    return float(best), best_c
