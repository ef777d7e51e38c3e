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
upper end taken at the minimum-norm point m_i bounds every C_i before any LP
runs, and each solved cell i, with refined point y_i and residual r_i^sol,
tightens the bound of every cell j still in play to the norm of its feasible
point y_i + m_j - m_i: ||y_i + (m_j - m_i)||_inf + (||r_i^sol||_2 + ||r_j||_2
+ ||r_i||_2) / sigma_min(B), with r the minimum-norm residuals; a cell whose
bound is below the best certificate is skipped.

The estimate also carries sigma_min of the sqrt(w)-weighted restriction, from
the SVD that makes the rank decision, so the sigma-min surrogate 1/sigma_min
costs no second SVD. simultaneous_constant estimates both walls and the circle
at one cutoff and region, seeding the circle's sweep with the wall certificates;
fit_exponential fits log(constant) ~ slope * lam to compare against the
e^{C lam} growth that observability predicts.

scipy's HiGHS binding is imported where the model is built, at the first
estimate: of all scipy.optimize only the exact LP needs it, so a run that
solves none never loads it. The model's rows are laid out with numpy alone.
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
    """One exact-lp constant. certificate holds the extremal mode coefficients;
    upper closes the bracket [constant, upper]. lp_solves counts the cells
    whose LP ran and lp_retries their re-runs from a cleared basis (0 where
    the restriction is rank-deficient). sigma_min is the smallest singular
    value of the sqrt(w)-weighted restriction, 0.0 where it is rank-deficient."""

    lam: float
    mode_count: int
    region_measure: float
    constant: float
    certificate: np.ndarray | None = None
    upper: float = np.inf
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

    The equality rows come first; their bounds, the rhs, are set per cell. The
    rows go in as compressed sparse rows: K dense ones over z, then z_j - t
    and z_j + t, two nonzeros each."""
    from scipy.optimize._highspy._core import _Highs, kHighsInf

    K, nw = rows.shape
    h = _Highs()
    options = {"output_flag": False, "presolve": "off", "solver": "simplex", "simplex_strategy": 1}
    for option, value in options.items():  # simplex_strategy 1 is the dual simplex
        h.setOptionValue(option, value)
    h.addVars(nw + 1, np.r_[np.full(nw, -kHighsInf), 0.0], np.full(nw + 1, kHighsInf))
    h.changeColCost(nw, 1.0)
    j, ones = np.arange(nw), np.ones(nw)
    pair = np.c_[j, np.full(nw, nw)].ravel()  # columns z_j and t
    starts = np.r_[np.arange(K) * nw, K * nw + 2 * np.arange(2 * nw)].astype(np.int32)
    index = np.r_[np.tile(j, K), pair, pair].astype(np.int32)
    coef = np.r_[rows.ravel(), np.c_[ones, -ones].ravel(), np.c_[ones, ones].ravel()]
    lower = np.r_[np.zeros(K), np.full(nw, -kHighsInf), np.zeros(nw)]  # z_j - t <= 0
    upper = np.r_[np.zeros(K), np.zeros(nw), np.full(nw, kHighsInf)]  # z_j + t >= 0
    h.addRows(K + 2 * nw, lower, upper, len(coef), starts, index, coef)
    return h


def _upper_ends(Z: np.ndarray, El: np.ndarray, Bl: np.ndarray, T: np.ndarray, Vt: np.ndarray,
                s_min: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of El, in extended precision as Bl is, the refined point y from
    y = Z / s_min, ||r||_2 with r = E_i - B y, and ||y||_inf + ||r||_2 / s_min.

    (Ec)_i = y.B^T c + r.c <= ||y||_inf + ||r||_2 / s_min whenever
    ||B^T c||_1 <= 1, so the last bounds C_i. Two refinement steps with
    residuals in extended precision shrink r, which the solver leaves at its
    feasibility tolerance."""
    Y = Z.astype(El.dtype) / s_min
    for _ in range(2):
        Y += (((El - Y @ Bl.T).astype(float) @ T.T) @ Vt).astype(El.dtype)
    R = El - Y @ Bl.T
    rnorm = np.sqrt(np.sum(R * R, axis=1))
    return Y.astype(float), rnorm.astype(float), (np.max(np.abs(Y), axis=1) + rnorm / s_min).astype(float)


def estimate_constant_lp(basis: Basis, lam: float, region: ControlRegion,
                         seeds: Sequence[np.ndarray] = ()) -> SpectralConstantEstimate:
    """Exact discrete constant of the modes at frequency lam or below, from
    warm-started LPs over the candidate peak cells, starting from the seeds:
    certificates the caller holds, as coefficients of the leading modes.

    Every cell j is first bounded through the upper end of m_j, its refined
    minimum-norm solution of B y = E_j, with residual r_j = E_j - B m_j. The
    cell with the largest bound is solved first, then the others in grid
    order, each warm-started, and a cell whose bound lies below the best
    re-evaluated certificate so far, the seeds' included, is skipped: it
    cannot hold the maximum.
    A solved cell i, with refined solution y_i and residual r_i^sol, tightens
    the bounds still in play: y_i + m_j - m_i solves B y = E_j up to the
    residual r_i^sol + r_j - r_i, so

        C_j <= ||y_i + (m_j - m_i)||_inf + (||r_i^sol||_2 + ||r_j||_2 + ||r_i||_2) / s_min,

    which the triangle inequality would only loosen to U_i + ||m_j - m_i||_inf
    + (||r_j||_2 + ||r_i||_2) / s_min, U_i the upper end of y_i. The points
    are refined in extended precision and the norm is taken in float64 on
    their casts. With u = eps/2 and A = max|m|, the casts of y_i, m_j and m_i
    are each off by at most u|.|, the difference m_j - m_i rounds by at most
    2uA and the added y_i by at most u(||y_i||_inf + 2A), so each entry of
    the point is off by at most 2u||y_i||_inf + 6uA to first order. The bound
    adds slack = 2 eps (||y_i||_inf + 3A), twice that, which covers the
    second-order terms too. The remaining float64 sums and the division by
    s_min round the bound by an ulp or so relative, as the cast of U_i does,
    and are not counted. Only cells not yet solved whose bound is still at
    least the best certificate are updated. upper is the max over cells of
    their final bound, U_i at a solved cell; a failed cell keeps its bound
    and gives no certificate. The constant is the best re-evaluated ratio
    over solved cells and seeds, so it is self-verifying, and upper bounds
    it; sigma_min is that of the rank decision. Returns +inf (with a
    null-direction certificate and sigma_min 0.0) when the restriction is
    rank-deficient; raises NumericalError when neither a seed nor a cell's
    LP gives a certificate, or the bracket is wider than _BRACKET_TOL.
    """
    K = mode_count(basis, lam)
    if K < 1:
        raise ValueError(f"cutoff lam={lam:g} admits no modes")
    E, Er = basis.columns(K), basis.rows(region, K)
    nw = len(region.cells)
    _, s, Vh = scipy.linalg.svd(np.sqrt(region.weights)[:, None] * Er, full_matrices=nw < K)
    est = SpectralConstantEstimate(lam=float(lam), mode_count=K, region_measure=region.measure, constant=np.inf)
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

    # M holds the refined minimum-norm points m_i, bounds their upper ends
    M, rnorm, bounds = _upper_ends(rhs @ Vt, El, Bl, T, Vt, s_min)
    m_max = np.max(np.abs(M))  # A of the docstring's slack
    # the cell with the largest bound first, cold; the rest in grid order,
    # each warm-started from the last
    first = int(np.argmax(bounds))
    order = np.r_[first, np.delete(np.arange(basis.grid.n), first)]
    from scipy.optimize._highspy._core import HighsModelStatus

    model = _dual_model(rows)
    best_val, best_cert = max(((_ratio(E, region, c), c) for c in seeds), key=lambda vc: vc[0],
                              default=(0.0, None))
    solved = np.zeros(basis.grid.n, dtype=bool)
    solves = retries = 0
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
        if model.getModelStatus() != HighsModelStatus.kOptimal:
            continue  # a failed cell keeps its bound and gives no certificate
        sol = model.getSolution()
        c = T.T @ sol.row_dual[:K]  # c = T^T lam from the row duals lam
        val = _ratio(E, region, c)  # re-evaluated, trims solver slack
        if val > best_val:
            best_val, best_cert = val, c
        solved[i] = True
        z = np.asarray(sol.col_value[:nw])[None]
        (y,), (r_sol,), (bounds[i],) = _upper_ends(z, El[i : i + 1], Bl, T, Vt, s_min)
        # the docstring's bound through cell i's point, for the cells it can still matter to
        live = np.flatnonzero(~solved & (bounds >= best_val))
        slack = 2 * np.finfo(float).eps * (np.max(np.abs(y)) + 3 * m_max)
        reach = np.max(np.abs(y + (M[live] - M[i])), axis=1) + (r_sol + rnorm[live] + rnorm[i]) / s_min + slack
        bounds[live] = np.fmin(bounds[live], reach)  # a NaN reach leaves the bound as it was
    if best_cert is None:
        raise NumericalError("LP solver failed on every candidate peak cell")
    upper = float(np.max(bounds))

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


def simultaneous_constant(ext: CircleBasis, lam: float, region: ControlRegion) -> tuple[
    SpectralConstantEstimate | None, SpectralConstantEstimate | None, SpectralConstantEstimate
]:
    """Exact-lp constants (dirichlet, neumann, simultaneous) at cutoff lam,
    each family observed through the same region of the base grid; a wall
    family with no mode at or below lam gets None.

    The simultaneous constant runs the exact LP on the circle with the
    extended odd+even basis and the region lifted to the plus copy. By the
    trace identity the objective equals max(||P_D u + P_N v||_inf,
    ||P_D u - P_N v||_inf) over the pair span, so it dominates each wall's
    constant. Each wall certificate keeps its ratio on the circle, so the
    circle's sweep starts from them and the domination is exact.
    """
    walls = [estimate_constant_lp(b, lam, region) if mode_count(b, lam) else None for b in ext.walls]
    seeds = []
    for wall_est, offset in zip(walls, (0, ext.grid.n // 2)):
        if wall_est is not None:  # in circle coordinates, peak and region mass both scale by 1/sqrt(2)
            seeds.append(np.zeros(mode_count(ext, lam)))
            seeds[-1][ext.circle_rows[offset : offset + wall_est.mode_count]] = wall_est.certificate
    est = estimate_constant_lp(ext, lam, lift_region(ext, region), seeds)
    # a wall's null direction is one of the circle's, which the circle's rank decision finds up to rounding
    unbounded = any(wall_est is not None and wall_est.constant == np.inf for wall_est in walls)
    return (*walls, replace(est, constant=np.inf, upper=np.inf) if unbounded else est)


def fit_exponential(estimates: Sequence[SpectralConstantEstimate]) -> FitResult:
    """Least-squares fit of log(constant) against lam.

    Needs at least three finite estimates at distinct cutoffs; an infinite
    estimate in the input is an error rather than silently dropped. The fit
    is the closed-form centred line through lam / max|lam|, so no cutoff is
    too large or too small to scale; a fit that still comes out non-finite
    raises NumericalError.
    """
    if any(not np.isfinite(e.constant) for e in estimates):
        raise ValueError("cannot fit through an infinite constant")
    lams = np.array([e.lam for e in estimates])
    if len(estimates) < 3 or np.unique(lams).size != lams.size:
        raise ValueError("need at least 3 finite estimates at distinct cutoffs")
    logs = np.log(np.array([e.constant for e in estimates]))
    scale = np.max(np.abs(lams))
    x = lams / scale
    # centred on the first log, then on the mean, so equal constants give
    # exact zeros where the mean alone may be an ulp off
    shift = logs - logs[0]
    dx, dy = x - np.mean(x), shift - np.mean(shift)
    with np.errstate(all="ignore"):  # a non-finite fit is reported below
        unit_slope = np.sum(dx * dy) / np.sum(dx * dx)
        slope, logc = unit_slope / scale, logs[0] + np.mean(shift) - unit_slope * np.mean(x)
        resid = dy - unit_slope * dx
    if not np.all(np.isfinite([slope, logc, *resid])):
        raise NumericalError(f"growth fit of log(constant) against lam is not finite: slope {slope}, logC {logc}")
    return FitResult(logC=float(logc), slope=float(slope), residual=float(np.sqrt(np.mean(resid**2))))
