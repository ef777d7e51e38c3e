"""Exact per-mode heat propagation and the simultaneous control pipeline.

propagate is the one way to advance a state in time: it reports exactly the
nodes it is given, which must hold every node of the control, and integrates
the mode ODEs in closed form between them, so trajectories carry no
time-stepping error. The pipeline doubles the interval, synthesizes one
control on the lifted region, and drives the Dirichlet and Neumann systems
with that same signal. The wall residuals then hold each direct run's wall
cells against the odd and even parts of the controlled circle run, which
supply the cross-wall values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import ControlSignal, hum_full_control, lr_control, march
from .doubling import build_double, extend_pair, lift_region, split
from .grid import ControlRegion, Grid1D
from .operators import Basis
from .spectral import l2_norm, sup_norm

DEFAULT_TOLERANCES = {"hum": 1e-6, "lr": 1e-4}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at time nodes, one row per node, with each row's weighted-L2
    and sup norm."""

    times: np.ndarray
    states: np.ndarray
    l2_norms: np.ndarray
    sup_norms: np.ndarray


@dataclass(frozen=True, eq=False)
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
    basis: Basis,
    state0: np.ndarray,
    times: np.ndarray,
    signal: ControlSignal | None = None,
) -> Trajectory:
    """Drive state0, given at times[0], by the signal (zero control if None)
    and report the state at every node of times.

    Each step between two nodes uses the closed-form mode update with the
    signal value holding at its start, so every signal node must be one of
    the times; a node inside a step would go unseen, and is refused.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times need at least two finite, strictly increasing nodes")
    n = basis.grid.n
    if state0.shape != (n,):
        raise ValueError(f"state has shape {state0.shape}, expected ({n},)")
    if signal is not None and not np.isin(signal.timegrid, times).all():
        raise ValueError("every signal node must be one of the times")

    coeffs = march(basis, basis.coefficients(state0), times, signal)
    states = np.empty((len(times), n))
    states[0] = state0
    states[1:] = basis.synthesize(coeffs[1:])

    return Trajectory(
        times=times, states=states, l2_norms=l2_norm(basis.grid, states), sup_norms=sup_norm(states)
    )


def run_simultaneous(
    grid: Grid1D,
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
    ext = build_double(grid)
    basis_d, basis_n = ext.walls
    lifted = lift_region(ext, region)
    U0 = extend_pair(ext, u0, v0)

    if method == "hum":
        signal = hum_full_control(ext, lifted, U0, T, steps=steps)
    else:
        signal = lr_control(ext, lifted, U0, T, lambda0)

    # Read the shared signal off the plus copy.  The halving is forced by the
    # split normalization: a source g supported on the embedded copy has odd
    # and even parts extend_pair(g/2, g/2), so each wall problem is driven by
    # g/2, and that halved trace is the single control both runs share.
    base_signal = ControlSignal(signal.timegrid, 0.5 * signal.values, region)
    traj_u = propagate(basis_d, u0, signal.timegrid, base_signal)
    traj_v = propagate(basis_n, v0, signal.timegrid, base_signal)
    traj_double = propagate(ext, U0, signal.timegrid, signal)

    # Wall recovery: the circle cell across each wall reads -u_split (odd
    # part) and v_split (even part) of the wall cell, so the direct runs'
    # wall cells against the split ones give the Dirichlet trace and the
    # Neumann flux. The split run rounds at the scale of the whole circle
    # field u + v, so both are relative to the larger of the two direct
    # runs' sup norms, not each to its own.
    u_split, v_split = split(ext, traj_double.states)
    walls = [0, -1]
    trace = 0.5 * np.max(np.abs(traj_u.states[:, walls] - u_split[:, walls]))
    a_wall = grid.a[walls] * grid.kappa[walls]
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
