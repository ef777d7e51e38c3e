"""Empirical spectral inequality constants: sup norm against L1 mass on a region.

For the K-dimensional space spanned by the modes below a cutoff, the discrete
constant is sup ||p||_inf / ||p||_{L1(region)} over the span. It is finite
exactly when the restriction-to-region map has full rank on the span, and the
sup is attained at a grid cell i, so it is the max over i of the dual LP
C_i = min ||y||_inf subject to B y = E_i, with B = (w * basis.rows(region))^T
and w the region's weights, which _ratio's l1_norm_on reads too. Only the K
right-hand sides change from cell to cell, so one HiGHS model with rows
orthonormalized through the SVD of B serves the sweep, each dual-simplex solve
warm-started from the last. Each estimate is a bracket: the best re-evaluated
primal certificate below, max_i ||y_i||_inf + ||E_i - B y_i||_2 / sigma_min(B)
above; one wider than _BRACKET_TOL relative raises NumericalError. The same
upper end taken at the minimum-norm point bounds every C_i before any LP runs,
so a cell whose bound is already below the best certificate is skipped.

The estimate also carries sigma_min of the sqrt(w)-weighted restriction, from
the SVD that makes the rank decision, so the sigma-min surrogate 1/sigma_min
costs no second SVD. simultaneous_constant folds the two wall estimates it is
handed into the circle's; fit_exponential fits log(constant) ~ slope * lam to
compare against the e^{C lam} growth that observability predicts.

scipy's HiGHS binding and scipy.sparse, which lays out the model's rows, are
imported where the model is built, at the first estimate: of all scipy.optimize
only the exact LP needs them, so a run that solves none never loads them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .doubling import lift_region
from .grid import ControlRegion
from .operators import Basis, CircleBasis, NumericalError
from .spectral import l1_norm_on, mode_count, sup_norm

# widest relative gap (upper - constant) / constant an exact-lp estimate may report
_BRACKET_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class SpectralConstantEstimate:
    """One measured constant. certificate holds the extremal mode coefficients;
    upper closes the exact-lp bracket [constant, upper] (None for other methods).
    lp_solves counts the exact-lp cells whose LP ran and lp_retries their
    re-runs from a cleared basis (0 for other methods and rank-deficient ones).
    sigma_min is the smallest singular value of the sqrt(w)-weighted
    restriction, 0.0 where it is rank-deficient or not computed."""

    lam: float
    mode_count: int
    region_measure: float
    method: str
    constant: float
    certificate: np.ndarray | None = None
    upper: float | None = None
    lp_solves: int = 0
    lp_retries: int = 0
    sigma_min: float = 0.0


class FitResult(NamedTuple):
    logC: float
    slope: float
    residual: float


def _ratio(E: np.ndarray, region: ControlRegion, c: np.ndarray) -> float:
    p = E @ c
    denom = l1_norm_on(p, region)
    if denom == 0.0:
        return np.inf
    return sup_norm(p) / denom


def _dual_model(rows: np.ndarray):
    """Quiet dual-simplex model of min t subject to rows @ z = rhs and |z_j| <= t.

    The equality rows come first; their bounds, the rhs, are set per cell."""
    import scipy.sparse
    from scipy.optimize._highspy._core import _Highs, kHighsInf

    K, nw = rows.shape
    h = _Highs()
    options = {"output_flag": False, "presolve": "off", "solver": "simplex", "simplex_strategy": 1}
    for option, value in options.items():  # simplex_strategy 1 is the dual simplex
        h.setOptionValue(option, value)
    h.addVars(nw + 1, np.r_[np.full(nw, -kHighsInf), 0.0], np.full(nw + 1, kHighsInf))
    h.changeColCost(nw, 1.0)
    eye, ones = np.eye(nw), np.ones((nw, 1))
    A = scipy.sparse.csr_matrix(np.block([[rows, np.zeros((K, 1))], [eye, -ones], [eye, ones]]))
    lower = np.r_[np.zeros(K), np.full(nw, -kHighsInf), np.zeros(nw)]  # z_j - t <= 0
    upper = np.r_[np.zeros(K), np.zeros(nw), np.full(nw, kHighsInf)]  # z_j + t >= 0
    h.addRows(A.shape[0], lower, upper, A.nnz, A.indptr[:-1].astype(np.int32),
              A.indices.astype(np.int32), A.data)
    return h


def estimate_constant_lp(basis: Basis, lam: float, region: ControlRegion) -> SpectralConstantEstimate:
    """Exact discrete constant of the modes at frequency lam or below, from
    warm-started LPs over the candidate peak cells.

    Every cell is first bounded through its minimum-norm point. The cell with
    the largest bound is solved first, then the others in grid order, and a
    cell whose bound lies below the best re-evaluated certificate so far is
    skipped: it cannot hold the maximum. A skipped or failed cell enters upper
    through its minimum-norm point. The constant is the best re-evaluated
    certificate ratio, so it is self-verifying, and upper bounds it; sigma_min
    is that of the rank decision. Returns +inf (with a null-direction
    certificate and sigma_min 0.0) when the restriction is rank-deficient;
    raises NumericalError when every cell's LP fails or the bracket is wider
    than _BRACKET_TOL.
    """
    K = mode_count(basis, lam)
    if K < 1:
        raise ValueError(f"cutoff lam={lam:g} admits no modes")
    E, Er = basis.columns(K), basis.rows(region, K)
    nw = len(region.cells)
    _, s, Vh = scipy.linalg.svd(np.sqrt(region.weights)[:, None] * Er, full_matrices=nw < K)
    est = SpectralConstantEstimate(lam=float(lam), mode_count=K, region_measure=region.measure,
                                   method="exact-lp", constant=np.inf, upper=np.inf)
    # rank decision at the SVD noise floor: fewer observation cells than
    # modes leave null directions for sure; below the floor cannot be told
    # apart from exact deficiency in double precision, anything above it is a
    # genuinely invertible restriction however small (the constants chased
    # here grow like e^{c lam}, so smin ~ 1e-12 is signal)
    if nw < K or s[-1] <= max(nw, K) * np.finfo(float).eps * s[0]:
        return replace(est, certificate=Vh[-1])

    # With T = S^-1 U^T the rows T B = V^T are orthonormal, and z = s_min y
    # keeps the optimum t = s_min C_i at O(1). T B and T E_i are formed in
    # extended precision: a certificate c = T^T lam then carries the L1 mass
    # ||(T B)^T lam||_1 the solver saw, where the float64 V^T would leave it
    # off by eps * s_max / s_min relative, 1e-3 near the float64 horizon.
    ld = np.longdouble
    B = (region.weights[:, None] * Er).T
    U, S, Vt = scipy.linalg.svd(B, full_matrices=False)
    s_min = S[-1]
    T = (U / S).T
    Bl, El = B.astype(ld), E.astype(ld)
    rows = (T.astype(ld) @ Bl).astype(float)
    rhs = (El @ T.T.astype(ld) * s_min).astype(float)

    def upper_ends(Z: np.ndarray) -> np.ndarray:
        """Per cell ||y_i||_inf + ||E_i - B y_i||_2 / s_min at y = Z / s_min.

        (Ec)_i = y.B^T c + r.c <= ||y||_inf + ||r||_2 / s_min whenever
        ||B^T c||_1 <= 1, so this bounds C_i. Two refinement steps with
        residuals in extended precision shrink r, which the solver leaves at
        its feasibility tolerance."""
        Y = Z.astype(ld) / s_min
        for _ in range(2):
            Y += (((El - Y @ Bl.T).astype(float) @ T.T) @ Vt).astype(ld)
        R = El - Y @ Bl.T
        return (np.max(np.abs(Y), axis=1) + np.sqrt(np.sum(R * R, axis=1)) / s_min).astype(float)

    Z = rhs @ Vt  # the minimum-norm feasible point, kept where a cell is skipped or fails
    bounds = upper_ends(Z)
    # the cell with the largest bound first, cold; the rest in grid order,
    # each warm-started from the last
    first = int(np.argmax(bounds))
    order = np.r_[first, np.delete(np.arange(basis.grid.n), first)]
    from scipy.optimize._highspy._core import HighsModelStatus

    model = _dual_model(rows)
    best_val = 0.0
    best_cert: np.ndarray | None = None
    solved = solves = retries = 0
    for i in order:
        # best_val is a re-evaluated certificate, so a skipped cell has
        # C_i <= bounds[i] < constant; a NaN bound is never skipped
        if bounds[i] < best_val:
            continue
        for k in range(K):
            model.changeRowBounds(k, rhs[i, k], rhs[i, k])
        model.run()
        solves += 1
        if model.getModelStatus() != HighsModelStatus.kOptimal:
            model.clearSolver()  # once more from scratch, without the warm basis
            model.run()
            retries += 1
        if model.getModelStatus() == HighsModelStatus.kOptimal:
            sol = model.getSolution()
            Z[i] = sol.col_value[: Z.shape[1]]
            solved += 1
            c = T.T @ sol.row_dual[:K]  # c = T^T lam from the row duals lam
            if c.any():
                val = _ratio(E, region, c)  # re-evaluated, trims solver slack
                if val > best_val:
                    best_val, best_cert = val, c
    if not solved:
        raise NumericalError("LP solver failed on every candidate peak cell")
    upper = float(np.max(upper_ends(Z)))

    if not upper - best_val <= _BRACKET_TOL * best_val:
        raise NumericalError(
            f"exact-lp bracket [{best_val:.6e}, {upper:.6e}] at lam={lam:g} is wider "
            f"than {_BRACKET_TOL:g} relative"
        )
    return replace(
        est,
        constant=float(best_val),
        certificate=best_cert,
        # the ratio's own rounding may put it a hair above a tight upper end
        upper=max(upper, float(best_val)),
        lp_solves=solves,
        lp_retries=retries,
        sigma_min=float(s[-1]),
    )


def simultaneous_constant(
    ext: CircleBasis,
    lam: float,
    region: ControlRegion,
    wall_estimates: tuple[SpectralConstantEstimate | None, SpectralConstantEstimate | None],
) -> SpectralConstantEstimate:
    """Joint constant for both wall families observed through one region.

    Runs the exact LP on the circle with the extended odd+even basis and the
    region lifted to the plus copy. By the trace identity the objective equals
    max(||P_D u + P_N v||_inf, ||P_D u - P_N v||_inf) over the pair span, so
    this dominates each single-family constant.

    wall_estimates holds the exact-lp estimates of the Dirichlet and the
    Neumann family at the same cutoff and region, None for a family with no
    mode below it; they are folded in, not solved again.
    """
    lifted = lift_region(ext, region)
    est = estimate_constant_lp(ext, lam, lifted)
    best, best_cert = est.constant, est.certificate

    # Each wall certificate extends to the circle with peak and region mass
    # both scaled by 1/sqrt(2), so its ratio carries over unchanged. Folding
    # the single-family optima in keeps the domination over each family exact
    # even where a large circle instance returns a slightly interior point.
    Eext = ext.columns(est.mode_count)
    for wall_est, offset in zip(wall_estimates, (0, ext.grid.n // 2)):
        if wall_est is None:
            continue
        if not np.isfinite(wall_est.constant):
            best, best_cert = np.inf, wall_est.certificate
            break
        embedded = np.zeros(est.mode_count)
        embedded[ext.circle_rows[offset : offset + wall_est.mode_count]] = wall_est.certificate
        val = _ratio(Eext, lifted, embedded)
        if val > best:
            best, best_cert = val, embedded

    # a folded wall ratio lies below the circle's constant, up to rounding
    return replace(est, constant=float(best), certificate=best_cert, upper=max(est.upper, float(best)))


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
