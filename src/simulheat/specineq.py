"""Empirical spectral inequality constants: sup norm against L1 mass on a region.

For the K-dimensional space spanned by the modes below a cutoff, the discrete
constant is sup ||p||_inf / ||p||_{L1(region)} over the span. It is finite
exactly when the restriction-to-region map has full rank on the span, and the
sup is attained, so one small LP per candidate peak cell computes it exactly.
A cheaper sigma-min surrogate and a randomized lower bound are also provided,
plus the exponential fit log(constant) ~ slope * lam used to compare against
the e^{C lam} growth that observability predicts.
"""

from __future__ import annotations

import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.optimize import linprog

from .doubling import DoubleDomain, lift_region
from .grid import ControlRegion
from .operators import EigenBasis, NumericalError
from .spectral import SpectralCutoff, l1_norm_on, make_cutoff, sup_norm

_RANK_TOL = 1e-13


@contextlib.contextmanager
def _muted_console():
    """Drop fd-level stdout/stderr chatter for the duration.

    HiGHS prints bound-shift diagnostics straight to the process streams on
    nearly degenerate instances, bypassing the wrapper's quiet default; this
    keeps hundreds of kilobytes of solver noise out of pipelines and logs.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        yield
    finally:
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        for fd in (devnull, *saved):
            os.close(fd)


@dataclass(frozen=True)
class SpectralConstantEstimate:
    """One measured constant. certificate holds the extremal mode coefficients."""

    lam: float
    mode_count: int
    region_measure: float
    method: str  # exact-lp | sigma-min-l2 | randomized-lower
    constant: float
    certificate: np.ndarray | None = None


class FitResult(NamedTuple):
    logC: float
    slope: float
    residual: float


def _ratio(basis: EigenBasis, E: np.ndarray, region: ControlRegion, c: np.ndarray) -> float:
    p = E @ c
    denom = l1_norm_on(basis.grid, p, region)
    if denom == 0.0:
        return np.inf
    return sup_norm(p) / denom


def _restriction_sigma_min(basis: EigenBasis, E: np.ndarray, region: ControlRegion):
    """Extreme singular values of the weighted restriction, plus the bottom direction."""
    m = region.mask
    R = np.sqrt(basis.grid.weights[m])[:, None] * E[m, :]
    K = E.shape[1]
    if R.shape[0] < K:
        # fewer observation cells than modes: null directions exist for sure
        _, s, Vh = scipy.linalg.svd(R, full_matrices=True)
        return 0.0, float(s[0]), Vh[-1]
    _, s, Vh = scipy.linalg.svd(R, full_matrices=False)
    return float(s[-1]), float(s[0]), Vh[-1]


def estimate_constant_lp(
    basis: EigenBasis,
    cutoff: SpectralCutoff,
    region: ControlRegion,
    *,
    max_workers: int = 1,
) -> SpectralConstantEstimate:
    """Exact discrete constant via one LP per candidate peak cell.

    For peak cell i the LP maximizes (Ec)_i subject to the weighted L1 mass
    on the region being at most 1; the constant is the max over i of the
    recomputed certificate ratios, so the reported value is self-verifying.
    Returns +inf (with a null-direction certificate) when the restriction is
    rank-deficient.
    """
    K = cutoff.count
    if K < 1:
        raise ValueError("cutoff admits no modes")
    E = basis.vectors[:, :K]
    smin, smax, null_dir = _restriction_sigma_min(basis, E, region)
    # rank decision at the SVD noise floor: anything below it cannot be told
    # apart from exact deficiency in double precision, anything above it is a
    # genuinely invertible restriction however small (the constants this
    # estimator chases grow like e^{c lam}, so smin ~ 1e-12 is signal)
    nw = int(region.mask.sum())
    if smin <= max(nw, K) * np.finfo(float).eps * smax:
        return SpectralConstantEstimate(
            lam=cutoff.lam,
            mode_count=K,
            region_measure=region.measure,
            method="exact-lp",
            constant=np.inf,
            certificate=null_dir,
        )

    m = region.mask
    Ew = E[m, :]
    wreg = basis.grid.weights[m]
    # Normalized form, one LP per candidate peak cell i:
    #   minimize  sum_j w_j s_j   over (c, s)
    #   s.t.      +-(Ec)_j - s_j <= 0 on the region,  (Ec)_i = theta.
    # The optimum is theta/C_i.  theta ~ 1/sigma_min puts both the optimum
    # and the slacks at O(1) however large C_i grows; with the peak pinned at
    # 1 the solver's absolute feasibility tolerance swallows the whole mass
    # once C_i passes ~1e7, and the maximize form stalls HiGHS even earlier.
    theta = max(1.0, 1.0 / smin)
    A_ub = scipy.sparse.vstack(
        [
            scipy.sparse.hstack([scipy.sparse.csr_matrix(Ew), -scipy.sparse.eye(nw, format="csr")]),
            scipy.sparse.hstack([scipy.sparse.csr_matrix(-Ew), -scipy.sparse.eye(nw, format="csr")]),
        ],
        format="csr",
    )
    b_ub = np.zeros(2 * nw)
    obj = np.concatenate([np.zeros(K), wreg])
    bounds = [(None, None)] * K + [(0.0, None)] * nw

    def solve_one(i: int) -> tuple[float, np.ndarray | None, bool]:
        A_eq = np.concatenate([E[i, :], np.zeros(nw)])[None, :]
        # presolve occasionally gives up on the heavily degenerate instances
        # near the float64 horizon; retry without it, then interior-point as
        # a last resort (its slight interiority only lowers the recomputed
        # ratio, never inflates it)
        for attempt in ("highs", "no-presolve", "highs-ipm"):
            if attempt == "no-presolve":
                res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[theta],
                              bounds=bounds, method="highs", options={"presolve": False})
            else:
                res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[theta],
                              bounds=bounds, method=attempt)
            if res.status == 0 and res.fun > 0.0:
                return theta / res.fun, res.x[:K], True
            if res.status == 2:
                # the peak row is identically zero: it never carries the sup
                return 0.0, None, True
        # either the optimum sits below solver resolution even after scaling
        # or every solver variant broke down: no witness from this cell
        return 0.0, None, res.status == 0

    indices = range(basis.grid.n)
    with _muted_console():
        if max_workers > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                results = list(pool.map(solve_one, indices))
        else:
            results = [solve_one(i) for i in indices]

    if not any(certified for _, _, certified in results):
        raise NumericalError("LP solver failed on every candidate peak cell")
    best_val = -np.inf
    best_cert: np.ndarray | None = None
    for val, cert, _ in results:
        if cert is not None:
            val = _ratio(basis, E, region, cert)  # re-evaluated, trims solver slack
        if val > best_val:
            best_val, best_cert = val, cert
    return SpectralConstantEstimate(
        lam=cutoff.lam,
        mode_count=K,
        region_measure=region.measure,
        method="exact-lp",
        constant=float(best_val),
        certificate=best_cert,
    )


def estimate_constant_l2(
    basis: EigenBasis, cutoff: SpectralCutoff, region: ControlRegion
) -> SpectralConstantEstimate:
    """L2 surrogate 1/sigma_min of the weighted restriction; inf below 1e-13."""
    K = cutoff.count
    if K < 1:
        raise ValueError("cutoff admits no modes")
    E = basis.vectors[:, :K]
    smin, _, direction = _restriction_sigma_min(basis, E, region)
    constant = np.inf if smin <= _RANK_TOL else 1.0 / smin
    return SpectralConstantEstimate(
        lam=cutoff.lam,
        mode_count=K,
        region_measure=region.measure,
        method="sigma-min-l2",
        constant=float(constant),
        certificate=direction,
    )


def randomized_lower_bound(
    basis: EigenBasis,
    cutoff: SpectralCutoff,
    region: ControlRegion,
    *,
    trials: int = 256,
    seed: int = 0,
) -> SpectralConstantEstimate:
    """Best ratio over random coefficient draws; never exceeds the LP value."""
    K = cutoff.count
    if K < 1:
        raise ValueError("cutoff admits no modes")
    E = basis.vectors[:, :K]
    rng = np.random.default_rng(seed)
    best = -np.inf
    best_c = None
    for _ in range(trials):
        c = rng.standard_normal(K)
        val = _ratio(basis, E, region, c)
        if val > best:
            best, best_c = val, c
    return SpectralConstantEstimate(
        lam=cutoff.lam,
        mode_count=K,
        region_measure=region.measure,
        method="randomized-lower",
        constant=float(best),
        certificate=best_c,
    )


def simultaneous_constant(
    dd: DoubleDomain,
    cutoff_lam: float,
    region: ControlRegion,
    *,
    max_workers: int = 1,
    wall_estimates: tuple[SpectralConstantEstimate | None, SpectralConstantEstimate | None]
    | None = None,
) -> SpectralConstantEstimate:
    """Joint constant for both wall families observed through one region.

    Runs the exact LP on the circle with the extended odd+even basis and the
    region lifted to the plus copy. By the trace identity the objective equals
    max(||P_D u + P_N v||_inf, ||P_D u - P_N v||_inf) over the pair span, so
    this dominates each single-family constant.

    wall_estimates may carry already computed exact-lp estimates for the
    Dirichlet and Neumann families at the same cutoff, sparing their re-solve.
    """
    basis_d, basis_n, ext = dd.basis_d, dd.basis_n, dd.basis_circle
    cut = make_cutoff(ext, cutoff_lam)
    lifted = lift_region(dd, region)
    est = estimate_constant_lp(ext, cut, lifted, max_workers=max_workers)
    best = est.constant
    best_cert = est.certificate

    # Each wall certificate extends to the circle with peak and region mass
    # both scaled by 1/sqrt(2), so its ratio carries over unchanged. Folding
    # the single-family optima in keeps the domination over each family exact
    # even where a large circle instance returns a slightly interior point.
    n = dd.base.n
    merged = np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues])
    pos = np.empty(2 * n, dtype=int)
    pos[np.argsort(merged, kind="stable")] = np.arange(2 * n)
    Eext = ext.vectors[:, : cut.count]
    for slot, (wall_basis, offset) in enumerate(((basis_d, 0), (basis_n, n))):
        wall_cut = make_cutoff(wall_basis, cutoff_lam)
        if wall_cut.count < 1:
            continue
        wall_est = wall_estimates[slot] if wall_estimates is not None else None
        if wall_est is None:
            wall_est = estimate_constant_lp(wall_basis, wall_cut, region, max_workers=max_workers)
        if not np.isfinite(wall_est.constant):
            best, best_cert = np.inf, wall_est.certificate
            break
        if wall_est.certificate is None:
            continue
        embedded = np.zeros(cut.count)
        embedded[pos[offset : offset + wall_cut.count]] = wall_est.certificate
        val = _ratio(ext, Eext, lifted, embedded)
        if val > best:
            best, best_cert = val, embedded

    return SpectralConstantEstimate(
        lam=est.lam,
        mode_count=est.mode_count,
        region_measure=region.measure,
        method=est.method,
        constant=float(best),
        certificate=best_cert,
    )


def fit_exponential(estimates: Sequence[SpectralConstantEstimate]) -> FitResult:
    """Least-squares fit of log(constant) against lam.

    Needs at least three finite estimates at distinct cutoffs; an infinite
    estimate in the input is an error rather than silently dropped.
    """
    if any(not np.isfinite(e.constant) for e in estimates):
        raise ValueError("cannot fit through an infinite constant")
    lams = np.array([e.lam for e in estimates])
    if len(estimates) < 3 or np.unique(lams).size != lams.size:
        raise ValueError("need at least 3 finite estimates at distinct cutoffs")
    logs = np.log(np.array([e.constant for e in estimates]))
    slope, logc = np.polyfit(lams, logs, 1)
    resid = logs - (logc + slope * lams)
    return FitResult(logC=float(logc), slope=float(slope), residual=float(np.sqrt(np.mean(resid**2))))
