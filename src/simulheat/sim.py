"""Exact per-mode heat propagation and the simultaneous control pipeline.

propagate integrates the mode ODEs in closed form across each constant
segment of the control, so trajectories carry no time-stepping error. The
pipeline doubles the interval, synthesizes one control on the lifted region,
and drives the Dirichlet and Neumann systems with that same signal. The wall
residuals then hold each direct run's wall cells against the odd and even
parts of the controlled circle run, which supply the cross-wall values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import ControlSignal, hum_full_control, lr_control, make_lr_schedule, march
from .doubling import build_double, extend_pair, lift_region, split
from .grid import Coefficients, ControlRegion, Grid1D
from .operators import EigenBasis
from .spectral import coefficients, l2_norm, sup_norm

DEFAULT_TOLERANCES = {"hum": 1e-6, "lr": 1e-4}


@dataclass(frozen=True)
class Trajectory:
    """States at time nodes, one row per node, with each row's weighted-L2
    and sup norm."""

    times: np.ndarray
    states: np.ndarray
    l2_norms: np.ndarray
    sup_norms: np.ndarray


@dataclass(frozen=True)
class SimultaneousReport:
    final_u_l2: float
    final_v_l2: float
    control_cost: float
    dirichlet_trace_residual: float
    neumann_flux_residual: float
    method: str
    initial_u_l2: float
    initial_v_l2: float
    tolerance: float
    passed: bool
    signal: ControlSignal = field(repr=False)
    trajectory_u: Trajectory = field(repr=False)
    trajectory_v: Trajectory = field(repr=False)
    trajectory_double: Trajectory = field(repr=False)


def propagate(
    basis: EigenBasis,
    state0: np.ndarray,
    signal: ControlSignal | None,
    t_end: float,
) -> Trajectory:
    """Drive state0 by the signal (zero control if None) up to t_end.

    States are reconstructed at 0, every signal node inside (0, t_end), and
    t_end itself; each segment uses the closed-form mode update, so a signal
    node falling inside a segment would silently change nothing but its own
    reporting grid.
    """
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    n = basis.grid.n
    if state0.shape != (n,):
        raise ValueError(f"state has shape {state0.shape}, expected ({n},)")
    nodes = [0.0]
    if signal is not None:
        if signal.timegrid[0] < 0 or signal.timegrid[-1] > t_end + 1e-12:
            raise ValueError("signal window must sit inside [0, t_end]")
        if signal.region.mask.shape != (n,):
            raise ValueError("signal region lives on a different grid")
        nodes.extend(float(t) for t in signal.timegrid if 0.0 < t < t_end)
    nodes.append(float(t_end))
    times = np.array(nodes)

    coeffs = march(basis, coefficients(basis, state0), times, signal)
    states = np.empty((len(times), n))
    states[0] = state0
    states[1:] = coeffs[1:] @ basis.vectors.T

    return Trajectory(
        times=times, states=states, l2_norms=l2_norm(basis.grid, states), sup_norms=sup_norm(states)
    )


def run_simultaneous(
    grid: Grid1D,
    coeffs: Coefficients,
    u0: np.ndarray,
    v0: np.ndarray,
    region: ControlRegion,
    T: float,
    method: str = "hum",
    *,
    lambda0: float | None = None,
    steps: int | None = None,
    tolerance: float | None = None,
) -> SimultaneousReport:
    """Null-control both wall problems over [0, T] with one shared signal.

    The pair is carried to the circle, a single control is synthesized there
    on the lifted region ('hum': one-shot minimal norm; 'lr': dyadic
    cascade), and the very same signal then drives the Dirichlet run from u0
    and the Neumann run from v0. Tolerance misses are reported as
    passed=False, not raised, so near-misses stay inspectable.
    """
    if method not in DEFAULT_TOLERANCES:
        raise ValueError(f"method must be one of {sorted(DEFAULT_TOLERANCES)}, got {method!r}")
    dd = build_double(grid, coeffs)
    basis_d, basis_n, ext = dd.basis_d, dd.basis_n, dd.basis_circle
    lifted = lift_region(dd, region)
    U0 = extend_pair(dd, u0, v0)

    if method == "hum":
        signal = hum_full_control(ext, lifted, U0, T, steps=steps)
    else:
        lam0 = lambda0 if lambda0 is not None else _default_lambda0(ext)
        schedule = make_lr_schedule(T, lam0, ext)
        signal = lr_control(ext, schedule, region=lifted, field0=U0)

    # Read the shared signal off the plus copy.  The halving is forced by the
    # split normalization: a source g supported on the embedded copy has odd
    # and even parts extend_pair(g/2, g/2), so each wall problem is driven by
    # g/2, and that halved trace is the single control both runs share.
    base_signal = ControlSignal(
        signal.timegrid, 0.5 * signal.values, region, grid.weights[region.mask],
        slice_ledger=signal.slice_ledger,
    )
    traj_u = propagate(basis_d, u0, base_signal, T)
    traj_v = propagate(basis_n, v0, base_signal, T)
    traj_double = propagate(ext, U0, signal, T)

    # Wall recovery: the circle cell across each wall reads -u_split (odd
    # part) and v_split (even part) of the wall cell, so the direct runs'
    # wall cells against the split ones give the Dirichlet trace and the
    # Neumann flux. The split run rounds at the scale of the whole circle
    # field u + v, so both are relative to the larger of the two direct
    # runs' sup norms, not each to its own.
    u_split, v_split = split(dd, traj_double.states)
    walls = [0, -1]
    trace = 0.5 * np.max(np.abs(traj_u.states[:, walls] - u_split[:, walls]))
    a_wall = coeffs.a[walls] * coeffs.kappa[walls]
    flux = np.max(a_wall * np.abs(traj_v.states[:, walls] - v_split[:, walls])) / grid.h
    sup = float(max(np.max(traj_u.sup_norms), np.max(traj_v.sup_norms))) or 1.0

    tol = tolerance if tolerance is not None else DEFAULT_TOLERANCES[method]
    scale = max(l2_norm(grid, u0), l2_norm(grid, v0), 1e-300)
    final_u = float(traj_u.l2_norms[-1])
    final_v = float(traj_v.l2_norms[-1])
    return SimultaneousReport(
        final_u_l2=final_u,
        final_v_l2=final_v,
        control_cost=signal.l2_cost,
        dirichlet_trace_residual=float(trace) / sup,
        neumann_flux_residual=float(flux) / sup,
        method=method,
        initial_u_l2=l2_norm(grid, u0),
        initial_v_l2=l2_norm(grid, v0),
        tolerance=tol,
        passed=bool(final_u <= tol * scale and final_v <= tol * scale),
        signal=signal,
        trajectory_u=traj_u,
        trajectory_v=traj_v,
        trajectory_double=traj_double,
    )


def _default_lambda0(basis: EigenBasis) -> float:
    """Smallest positive frequency: slice 0 then steers the kernel mode alone,
    and slice j the modes below 2^j times it."""
    pos = basis.frequencies[basis.frequencies > 0]
    if len(pos) == 0:
        raise ValueError("basis has no positive frequencies")
    return float(pos[0])
