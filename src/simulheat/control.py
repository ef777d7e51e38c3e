"""Control synthesis: sampled Gramians, one-shot minimal-norm steering, the
dyadic low-frequency cascade, and the exact mode marcher they share.

A ControlSignal is piecewise constant in time on a region of the basis's own
grid (basis.rows refuses another), whose weights price it and project it onto
the modes; with the exact per-mode propagator the map from signal values to
the final state is exact, so steering residuals measure arithmetic alone.
The adjoint parametrization f = sum_l q_l avg_l(t) e_l restricted to the
region turns the minimal-weighted-norm problem into a K x K system with the
sampled Gramian H = (I I^T / dt) o M, the Hadamard product of the
step-integral outer product with the region mass matrix. Both syntheses solve
that system the same way: block elimination of H + 1e-12 max(diag H) I, with
an nw x nw Woodbury factor for the modes that only the last step reaches and a
Schur complement on the rest, then defect correction against the unregularized
H in factored form. A steering target is its mode coefficients:
hum_low_mode_control steers the leading len(y0) modes, hum_full_control hands
it all of them and each cascade slice those below its cutoff. The cascade lays
out its own dyadic slices from the horizon T and lambda0, and march projects
every step of a signal onto the modes in one product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import ControlRegion
from .operators import Basis, NumericalError
from .spectral import resolution


class SingularGramianError(NumericalError):
    """The steering solve missed its tolerance: the Gramian is singular or the
    target unreachable for these modes and region, or its arithmetic under-
    or overflowed."""

    def __init__(self, basis: Basis, count: int, region: ControlRegion, steps: int, achieved: float):
        super().__init__(
            f"steering {count} modes up to frequency {basis.frequencies[count - 1]:.6g} from "
            f"{len(region.cells)} cells (region measure {region.measure:.6g}) on {steps} steps: "
            f"verified residual {achieved:.3e}"
        )


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Piecewise-constant control: values[m] holds on [timegrid[m], timegrid[m+1]).

    The cost l2_cost = sqrt(sum_m dt_m sum_j w_j values[m,j]^2), with w the
    region's weights, is computed from the fields on first use.
    """

    timegrid: np.ndarray
    values: np.ndarray
    region: ControlRegion
    slice_ledger: tuple[dict, ...] | None = None

    def __post_init__(self) -> None:
        if self.timegrid.ndim != 1 or len(self.timegrid) < 2:
            raise ValueError("timegrid needs at least two nodes")
        if not (np.isfinite(self.timegrid).all() and (np.diff(self.timegrid) > 0).all()):
            raise ValueError("timegrid must be finite and strictly increasing")
        nw = len(self.region.cells)
        if self.values.shape != (len(self.timegrid) - 1, nw):
            raise ValueError(
                f"values shaped {self.values.shape}, expected ({len(self.timegrid) - 1}, {nw})"
            )

    @functools.cached_property
    def l2_cost(self) -> float:
        dt = np.diff(self.timegrid)
        with np.errstate(over="ignore"):  # a cost beyond float64 reads inf
            return float(np.sqrt(np.sum(dt * np.sum(self.region.weights * self.values**2, axis=1))))


def decay_factors(eigenvalues: np.ndarray, dt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-lam dt}, (1 - e^{-lam dt})/lam) with the lam -> 0 limit dt.

    A scalar step gives one factor per mode; an array of steps gives one row
    per step, each equal to the scalar call's.
    """
    lam = np.asarray(eigenvalues)
    dt = np.asarray(dt, dtype=float)[..., None]
    nz = lam > 0
    decay = np.exp(-lam * dt)
    source = np.where(nz, -np.expm1(-lam * dt) / np.where(nz, lam, 1.0), dt)
    return decay, source


def march(
    basis: Basis, yhat: np.ndarray, times: np.ndarray, signal: ControlSignal | None = None
) -> np.ndarray:
    """Exact mode coefficients at every node of times, from yhat at times[0].

    Each segment takes the closed-form update y <- e^{-lam dt} y + b (1 -
    e^{-lam dt})/lam, where b is the mode projection of the signal value
    holding at the segment's start (zero outside the signal's window, or
    without a signal); a signal node that is not one of the times goes unseen.
    """
    decay, forcing = decay_factors(basis.eigenvalues, np.diff(times))
    live = slice(0, 0)  # without a signal no step is forced
    if signal is not None:
        segs = np.searchsorted(signal.timegrid, times[:-1], side="right") - 1
        # segs ascends, so the steps inside the window are one run of them,
        # all projected by one product and scaled in place
        live = slice(*np.searchsorted(segs, [0, len(signal.values)]))
        forcing[live] *= (signal.region.weights * signal.values[segs[live]]) @ basis.rows(signal.region)
    forcing[: live.start] = 0.0
    forcing[live.stop :] = 0.0
    out = np.empty((len(times), len(yhat)))
    out[0] = yhat
    for i in range(len(times) - 1):
        out[i + 1] = decay[i] * out[i] + forcing[i]
    return out


def _step_integrals(lam: np.ndarray, timegrid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I, avg): I[k, m] is the integral of e^{-lam_k (tau - t)} over
    [t_m, t_{m+1}] and avg = I / dt its mean there.

    The sampled Gramian H = (avg I^T) o M tends to the continuous-time
    Gramian as the grid refines. At any resolution H is exactly the
    input-to-final-state map composed with the adjoint parametrization, so
    solving with H steers the sampled dynamics without discretization bias.
    """
    dt = np.diff(timegrid)
    _, source = decay_factors(lam, dt)
    I = np.exp(-lam[:, None] * (timegrid[-1] - timegrid[1:][None, :])) * source.T
    return I, I / dt[None, :]


def _factor(A: np.ndarray):
    """Solver for A x = b through the Cholesky factor of A; roundoff can push
    the smallest eigenvalue of a shifted Gramian a hair below zero, where the
    LU factorization still applies. Neither screens for NaN or infinity: an
    under- or overflowed system solves to a non-finite residual, a miss."""
    try:
        cho = scipy.linalg.cho_factor(A, check_finite=False)
        return lambda b: scipy.linalg.cho_solve(cho, b, check_finite=False)
    except scipy.linalg.LinAlgError:
        lu = scipy.linalg.lu_factor(A, check_finite=False)
        return lambda b: scipy.linalg.lu_solve(lu, b, check_finite=False)


_STEER_TOL = 1e-8
# Tikhonov shift of the Gramian, relative to its largest diagonal entry
_TIKHONOV = 1e-12


def hum_low_mode_control(
    basis: Basis,
    region: ControlRegion,
    y0: np.ndarray,
    tau: float,
    *,
    steps: int = 64,
    steer_tol: float = _STEER_TOL,
) -> ControlSignal:
    """Null control for the leading K = len(y0) modes, minimal weighted norm.

    Solves H q = -e^{-lam tau} y0 for the adjoint coefficients and samples
    f(t) = 1_region sum_l q_l avg_l(t) e_l on a uniform grid of `steps`
    intervals, where avg_l is the exact per-step average of e^{-lam_l(tau-t)}.
    Steering of the sampled dynamics is exact up to arithmetic; a verified
    residual above steer_tol or not a number, or values that overflow, raise
    SingularGramianError.

    The shifted system (H + sigma I) q = -e^{-lam tau} y0, sigma = 1e-12
    max(diag H), is solved by block elimination. H is the steps before the
    last, H', nonzero only on the block S of modes whose step integrals there
    do not underflow, plus the last step's V V^T, V = sqrt(dt) avg[:, -1] o
    (W^{1/2} Phi)^T of width nw. On the other modes F that is all of H, so the
    F block is inverted through the nw x nw matrix G = sigma I + V_F^T V_F
    (Woodbury), leaving the Schur complement sigma I + H'_SS + sigma V_S
    G^{-1} V_S^T on S; each is factored by Cholesky, or LU if roundoff makes
    it indefinite. F is a sparsity pattern, not a cutoff: moving a mode from F
    to S solves the same system. A defect-correction step is kept only if it
    lowers the residual against the unregularized H = H' + V V^T.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or not 1 <= len(y0) <= len(basis.eigenvalues):
        raise ValueError(f"y0 must hold 1 to {len(basis.eigenvalues)} mode coefficients, got shape {y0.shape}")
    K = len(y0)
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 holds a non-finite mode coefficient")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"horizon must be positive and finite, got {tau}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    timegrid = np.linspace(0.0, tau, steps + 1)
    Phi = basis.rows(region, K)  # refuses a region of another grid, even for a zero target
    nw = len(region.cells)
    weights = region.weights
    if not y0.any():
        return ControlSignal(timegrid, np.zeros((steps, nw)), region)
    lam = basis.eigenvalues[:K]
    I, avg = _step_integrals(lam, timegrid)
    rhs = -np.exp(-lam * timegrid[-1]) * y0

    reached = I[:, :-1].any(axis=1)
    S, F = np.flatnonzero(reached), np.flatnonzero(~reached)
    V = (np.sqrt(timegrid[-1] - timegrid[-2]) * avg[:, -1])[:, None] * (np.sqrt(weights)[:, None] * Phi).T
    VS, VF = V[S], V[F]
    PhiS = Phi[:, S]
    # the steps before the last, on S
    HS = (avg[S, :-1] @ I[S, :-1].T) * (PhiS.T @ (weights[:, None] * PhiS))
    diag = np.einsum("km,km->k", avg, I) * (weights @ Phi**2)
    sigma = _TIKHONOV * float(np.max(diag))
    if not sigma > 0:  # a Gramian whose diagonal underflowed steers nothing
        raise SingularGramianError(basis, K, region, steps, np.nan)

    G = VF.T @ VF
    G.flat[:: nw + 1] += sigma
    solve_G = _factor(G)
    schur = HS + sigma * (VS @ solve_G(VS.T))
    schur.flat[:: len(S) + 1] += sigma
    solve_schur = _factor(schur)

    def solve(r: np.ndarray) -> np.ndarray:
        q = np.empty(K)
        z = solve_G(VF.T @ r[F])
        q[S] = solve_schur(r[S] - VS @ z)
        q[F] = (r[F] - VF @ z) / sigma - VF @ solve_G(VS.T @ q[S])
        return q

    def gram(q: np.ndarray) -> np.ndarray:
        Hq = V @ (V.T @ q)
        Hq[S] += HS @ q[S]
        return Hq

    # a single solve floors at eps*cond relative; defect correction against
    # the unregularized Gramian recovers the rest
    scale = float(np.linalg.norm(y0))
    q = solve(rhs)
    r = rhs - gram(q)
    achieved = float(np.linalg.norm(r)) / scale
    for _ in range(4):
        if achieved <= 0.25 * steer_tol:
            break
        candidate = q + solve(r)
        r_candidate = rhs - gram(candidate)
        better = float(np.linalg.norm(r_candidate)) / scale
        if better >= achieved:
            break
        q, r, achieved = candidate, r_candidate, better
    if not achieved <= steer_tol:  # a NaN residual, from under- or overflow, is a miss too
        raise SingularGramianError(basis, K, region, steps, achieved)
    # avg[F, :-1] is exactly zero, so F only enters the last step's values
    values = np.empty((steps, nw))
    with np.errstate(over="ignore", invalid="ignore"):  # screened right below
        values[:-1] = avg[S, :-1].T @ (q[S, None] * PhiS.T)
        values[-1] = Phi @ (avg[:, -1] * q)
    if not np.isfinite(values).all():  # a signal beyond float64 steers nothing
        raise SingularGramianError(basis, K, region, steps, np.inf)
    return ControlSignal(timegrid, values, region)


# The per-slice verified steering bar. It is looser than the one-shot default
# on purpose: whatever a slice leaves behind sits below the next cutoff too and
# gets re-targeted, so the cascade tolerates partial kills, while a Gramian
# with condition e^{c lam_j} cannot beat the eps*cond cancellation floor of
# float64 no matter the solver.
_SLICE_TOL = 1e-6


def lr_control(
    basis: Basis,
    region: ControlRegion,
    field0: np.ndarray,
    T: float,
    lambda0: float | None = None,
) -> ControlSignal:
    """Cascade control over [0, T]: each dyadic slice kills its low modes,
    then coasts.

    Slice j spans [T(1 - 2^-j), T(1 - 2^-(j+1))] and targets the frequencies
    below lambda0 2^j; slices are added until that covers the top frequency
    of basis, and the last one, the terminal slice, steers every mode. The
    default lambda0 is the smallest positive frequency, so slice 0 steers the
    kernel mode alone. The active half of slice j runs hum_low_mode_control
    on the current state for the modes with lambda_k < lam_j^2 -
    resolution(basis), strictly below lam_j whatever the rounding of a tie at
    it, on its default 64 steps, to a relative residual of 1e-6; the passive
    half and the tail after the terminal slice are free decay. The state is
    marched exactly through every step, so the returned per-slice ledger
    records true norms.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if lambda0 is None:
        pos = basis.frequencies[basis.frequencies > 0]
        if len(pos) == 0:
            raise ValueError("basis has no positive frequencies")
        lambda0 = float(pos[0])
    if not (np.isfinite(lambda0) and lambda0 > 0):
        raise ValueError(f"lambda0 must be positive and finite, got {lambda0}")
    J = 0
    while lambda0 * 2**J < float(basis.frequencies[-1]) * (1.0 - 1e-12) and J < 60:
        J += 1

    yhat = basis.coefficients(field0)
    ledger: list[dict] = []
    times: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    nw = len(region.cells)
    # once the targeted modes dip below representable precision of the input,
    # an active solve would only pump rounding noise back in
    floor = 64.0 * np.finfo(float).eps * float(np.linalg.norm(yhat))
    r = resolution(basis)

    for j in range(J + 1):
        t_start = T * (1.0 - 2.0**-j)
        t_end = T * (1.0 - 2.0 ** -(j + 1))
        t_mid = 0.5 * (t_start + t_end)
        lam = lambda0 * 2**j
        pre = float(np.linalg.norm(yhat))
        count = len(yhat)
        if j < J:
            count = int(np.searchsorted(basis.eigenvalues, lam**2 - r, side="left"))
        tau = t_mid - t_start
        cost = 0.0
        if float(np.linalg.norm(yhat[:count])) > floor:
            sig = hum_low_mode_control(basis, region, yhat[:count], tau, steer_tol=_SLICE_TOL)
            cost = sig.l2_cost
            # exact propagation of the full state through the active half
            yhat = march(basis, yhat, sig.timegrid, sig)[-1]
            times.append(t_start + sig.timegrid[:-1])
            vals.append(sig.values)
        else:
            yhat = yhat * np.exp(-basis.eigenvalues * tau)
            times.append(np.array([t_start]))
            vals.append(np.zeros((1, nw)))
        yhat = yhat * np.exp(-basis.eigenvalues * (t_end - t_mid))
        post = float(np.linalg.norm(yhat))
        ledger.append({"j": j, "lambda": lam, "active_cost": cost, "pre_norm": pre, "post_norm": post})
        times.append(np.array([t_mid]))
        vals.append(np.zeros((1, nw)))

    # the tail [t_end, T] of length T 2^-(J+1) is free decay
    times.append(np.array([t_end, T]))
    vals.append(np.zeros((1, nw)))
    return ControlSignal(np.concatenate(times), np.vstack(vals), region, slice_ledger=tuple(ledger))


def hum_full_control(
    basis: Basis,
    region: ControlRegion,
    field0: np.ndarray,
    T: float,
    *,
    steps: int | None = None,
) -> ControlSignal:
    """One-shot minimal-norm steering of every mode over [0, T]:
    hum_low_mode_control on all of field0's mode coefficients, on at least
    enough steps to make the input map onto, to its default 1e-8 relative
    residual."""
    K = len(basis.eigenvalues)
    nw = len(region.cells)
    if steps is None:
        steps = max(64, -(-2 * K // nw))
    if steps * nw < K:
        raise ValueError(f"{steps} steps on {nw} cells cannot steer {K} modes")
    return hum_low_mode_control(basis, region, basis.coefficients(field0), T, steps=steps)
