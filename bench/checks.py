"""Checks of simulheat's artifacts against computations made apart from the program.

Nothing here imports simulheat. For constant unit coefficients the wall
operators are the 3-point stencil with ghost-cell walls, whose eigenvectors
are sine (Dirichlet) and cosine (Neumann) modes sampled at the cell centres,
with eigenvalues (4/h^2) sin^2(k pi h / 2L). The circle basis is their odd and
even mirror extensions. Every check returns a list of failure messages; an
empty list means the artifact passed.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

EPS = np.finfo(float).eps
COST_RTOL = 1e-12
WITNESS_RTOL = 1e-9
WITNESS_DRAWS = 8


class Modes(NamedTuple):
    """Weighted-orthonormal modes: vectors[:, k] has eigenvalue eigenvalues[k]."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


def _normalized(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return vectors / np.sqrt(weights @ vectors**2)


def wall_modes(n: int, length: float = 1.0) -> dict[str, Modes]:
    """Closed-form Dirichlet and Neumann modes of the n-cell interval."""
    h = length / n
    x = (np.arange(n) + 0.5) * h
    w = np.full(n, h)
    out = {}
    for family, ks, fn in (("dirichlet", np.arange(1, n + 1), np.sin), ("neumann", np.arange(n), np.cos)):
        vals = (4.0 / h**2) * np.sin(np.pi * ks * h / (2.0 * length)) ** 2
        out[family] = Modes(vals, _normalized(fn(np.pi * np.outer(x, ks) / length), w), w)
    return out


def circle_modes(walls: dict[str, Modes]) -> Modes:
    """Odd Dirichlet and even Neumann mirror extensions, eigenvalues ascending.

    Cell j of the interval sits at circle cell j on the plus copy and at
    circle cell 2n-1-j on the mirror copy.
    """
    d, nm = walls["dirichlet"], walls["neumann"]
    odd = np.vstack([d.vectors, -d.vectors[::-1]])
    even = np.vstack([nm.vectors, nm.vectors[::-1]])
    vals = np.concatenate([d.eigenvalues, nm.eigenvalues])
    order = np.argsort(vals, kind="stable")
    w = np.concatenate([d.weights, d.weights])
    return Modes(vals[order], _normalized(np.hstack([odd, even])[:, order], w), w)


def unit_pair(n: int, seed: int, length: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The seeded initial pair the control verb documents: two standard normal
    draws from one generator, each scaled to unit weighted L2 norm."""
    rng = np.random.default_rng(seed)
    h = length / n
    u0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    return u0 / np.sqrt(h * u0 @ u0), v0 / np.sqrt(h * v0 @ v0)


def interval_mask(n: int, a: float, b: float, length: float = 1.0) -> np.ndarray:
    """Cells whose centres lie in the open interval (a, b)."""
    x = (np.arange(n) + 0.5) * (length / n)
    return (x > a) & (x < b)


# ---------------------------------------------------------------- control


def final_l2(modes: Modes, state0: np.ndarray, cells: np.ndarray, t: np.ndarray, g: np.ndarray) -> float:
    """Weighted L2 norm at t[-1] of the wall run from state0 driven by g.

    g[m] holds on [t[m], t[m+1]) on the given cells. Each mode obeys
    y' = -lam y + <e_k, g>, integrated exactly over every constant piece.
    """
    lam = modes.eigenvalues
    E = modes.vectors
    y0 = E.T @ (modes.weights * state0)
    b = g @ (modes.weights[cells, None] * E[cells, :])  # (pieces, modes)
    dt = np.diff(t)[:, None]
    tail = t[-1] - t[1:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(lam > 0, -np.expm1(-lam * dt) / np.where(lam > 0, lam, 1.0), dt)
    y = np.exp(-lam * t[-1]) * y0 + np.sum(np.exp(-lam * tail) * gain * b, axis=0)
    return float(np.linalg.norm(y))


def read_control_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, t, values) of a control.csv; the last row closes the window."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    cells = np.array([int(name.removeprefix("cell_")) for name in header[1:]])
    data = np.array(rows, dtype=float)
    return cells, data[:, 0], data[:-1, 1:]


def check_control(
    outdir: str,
    exit_code: int,
    walls: dict[str, Modes],
    pair: tuple[np.ndarray, np.ndarray],
    mask: np.ndarray,
    T: float,
    tol: float,
) -> tuple[list[str], float]:
    """One control op: exit code, shared-signal steering of both walls, cost.

    Returns the failures and the signal's L2 cost recomputed from control.csv
    (NaN when the artifacts cannot be read). Each wall is driven by half the
    circle signal, as the doubling's split normalization prescribes for a
    source on the plus copy.
    """
    failures = []
    if exit_code != 0:
        failures.append(f"control exit code {exit_code}")
    try:
        cells, t, values = read_control_csv(os.path.join(outdir, "control.csv"))
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return failures + [f"unreadable control artifacts: {exc}"], float("nan")
    if not np.array_equal(cells, np.flatnonzero(mask)):
        return failures + ["control.csv columns are not the window's cells"], float("nan")
    if t[0] != 0.0 or abs(t[-1] - T) > 1e-12 * T:
        failures.append(f"control window [{t[0]}, {t[-1]}] is not [0, {T}]")
    for family, state0 in zip(("dirichlet", "neumann"), pair):
        modes = walls[family]
        start = float(np.sqrt(modes.weights @ state0**2))
        final = final_l2(modes, state0, cells, t, 0.5 * values)
        if not final <= tol * start:
            failures.append(f"{family} final L2 {final:.3e} > {tol:g} x initial {start:.3e}")
    h = walls["dirichlet"].weights[0]
    cost = float(np.sqrt(np.sum(np.diff(t) * np.sum(h * values**2, axis=1))))
    reported = summary.get("control_cost")
    if not isinstance(reported, float) or abs(cost - reported) > COST_RTOL * cost:
        failures.append(f"control_cost {reported!r} differs from recomputed {cost!r}")
    return failures, cost


# ---------------------------------------------------------------- specineq


class Family(NamedTuple):
    """One family's modes with the observation mask on the same cells."""

    modes: Modes
    mask: np.ndarray


def families(n: int, mask: np.ndarray) -> dict[str, Family]:
    walls = wall_modes(n)
    lifted = np.concatenate([mask, np.zeros(n, dtype=bool)])
    return {
        "dirichlet": Family(walls["dirichlet"], mask),
        "neumann": Family(walls["neumann"], mask),
        "simultaneous": Family(circle_modes(walls), lifted),
    }


def mode_count(modes: Modes, lam: float) -> int:
    return int(np.sum(np.sqrt(modes.eigenvalues) <= lam))


def _ratios(E: np.ndarray, w: np.ndarray, mask: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sup/L1-on-window ratio of each column of E @ C, lowered by its rounding bound.

    The window values of a witness near the float64 horizon are tiny against
    its coefficients, so the computed L1 mass carries a relative error of up to
    K eps sum|E||c| / sum|Ec|; the ratio is discounted by that much, which keeps
    every returned value a true lower bound on the constant.
    """
    P = E @ C
    wm = w[mask]
    l1 = wm @ np.abs(P[mask])
    err = E.shape[1] * EPS * (wm @ (np.abs(E[mask]) @ np.abs(C)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.max(np.abs(P), axis=0) / (l1 + err) * (1.0 - E.shape[1] * EPS)
    return np.where(l1 > err, out, 0.0)


def window_bounds(fam: Family, K: int, seed: int) -> dict[str, float]:
    """Own lower witness and upper bound for the sup/L1 constant of K modes.

    Witnesses: the restriction's sigma-min direction, the L2-optimal peak
    direction at every cell (G^-1 e(x) with G the window Gramian), and a few
    seeded random draws. Upper bound: sup_x |e(x)|^2 / sigma_min^2.
    """
    E = fam.modes.vectors[:, :K]
    w = fam.modes.weights
    R = np.sqrt(w[fam.mask])[:, None] * E[fam.mask]
    _, s, Vh = np.linalg.svd(R, full_matrices=True)
    smin = float(s[-1]) if R.shape[0] >= K else 0.0
    smax = float(s[0])
    coeffs = [Vh[-1][:, None], np.random.default_rng(seed).standard_normal((K, WITNESS_DRAWS))]
    if smin > 0:
        coeffs.append(Vh.T @ ((Vh @ E.T) / s[:, None] ** 2))
    witness = max(float(np.max(_ratios(E, w, fam.mask, c))) for c in coeffs)
    upper = float(np.max(np.sum(E**2, axis=1))) / smin**2 if smin > 0 else np.inf
    return {"witness": witness, "upper": upper, "smin": smin, "smax": smax}


def read_constants_csv(path: str) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    for row in rows:
        row["lambda"] = float(row["lambda"])
        row["mode_count"] = int(row["mode_count"])
        row["region_measure"] = float(row["region_measure"])
        row["constant"] = np.inf if row["constant"] == "INF" else float(row["constant"])
    return rows


def check_constants(
    outdir: str,
    exit_code: int,
    fams: dict[str, Family],
    lambdas: list[float],
    seed: int,
    bounds_cache: dict | None = None,
) -> list[str]:
    """Every row of constants.csv against the benchmark's own bases.

    bounds_cache, when given, keeps the seed-independent parts of the bounds
    across ops of one run; the seeded draws are part of the cached witness.
    """
    failures = []
    if exit_code != 0:
        failures.append(f"specineq exit code {exit_code}")
    try:
        rows = read_constants_csv(os.path.join(outdir, "constants.csv"))
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"unreadable constants.csv: {exc}"]
    expected = {(f, float(lam), m) for f in fams for lam in lambdas for m in ("exact-lp", "sigma-min-l2")}
    seen = {(r["family"], r["lambda"], r["method"]) for r in rows}
    if seen != expected or len(rows) != len(expected):
        failures.append(f"constants.csv rows {sorted(seen)} are not {sorted(expected)}")
        return failures
    cache = {} if bounds_cache is None else bounds_cache
    exact: dict[str, dict[float, float]] = {f: {} for f in fams}
    for row in rows:
        fam, lam, C = fams[row["family"]], row["lambda"], row["constant"]
        tag = f"{row['family']},{lam:g},{row['method']}"
        K = mode_count(fam.modes, lam)
        measure = float(fam.modes.weights[0]) * int(fam.mask.sum())
        if row["mode_count"] != K:
            failures.append(f"{tag}: mode_count {row['mode_count']} != {K}")
            continue
        if abs(row["region_measure"] - measure) > 1e-12 * measure:
            failures.append(f"{tag}: region_measure {row['region_measure']!r} != {measure!r}")
        key = (row["family"], K)
        if key not in cache:
            cache[key] = window_bounds(fam, K, seed)
        b = cache[key]
        cond = b["smax"] / b["smin"] if b["smin"] > 0 else np.inf
        if row["method"] == "sigma-min-l2":
            own = 1.0 / b["smin"] if b["smin"] > 1e-13 else np.inf
            if np.isfinite(own) != np.isfinite(C) or (
                np.isfinite(own) and abs(C - own) > (1e-6 + 1e3 * EPS * cond) * own
            ):
                failures.append(f"{tag}: {C!r} is not 1/sigma_min = {own!r}")
            continue
        exact[row["family"]][lam] = C
        if np.isinf(C):
            if cond < 1e10:
                failures.append(f"{tag}: INF reported but sigma_max/sigma_min is {cond:.3e}")
            continue
        if b["witness"] > C * (1.0 + WITNESS_RTOL):
            failures.append(f"{tag}: witness ratio {b['witness']:.6e} exceeds constant {C:.6e}")
        if C > b["upper"] * (1.0 + 1e-6 + 1e3 * EPS * cond):
            failures.append(f"{tag}: constant {C:.6e} exceeds upper bound {b['upper']:.6e}")
    for family, by_lam in exact.items():
        lams = sorted(by_lam)
        for lo, hi in zip(lams, lams[1:]):
            if by_lam[hi] < by_lam[lo] * (1.0 - WITNESS_RTOL):
                failures.append(f"{family}: constant falls from lambda {lo:g} to {hi:g}")
    for lam in lambdas:
        walls = max(exact["dirichlet"].get(lam, 0.0), exact["neumann"].get(lam, 0.0))
        if exact["simultaneous"].get(lam, np.inf) < walls * (1.0 - WITNESS_RTOL):
            failures.append(f"simultaneous,{lam:g}: below max(dirichlet, neumann) {walls:.6e}")
    return failures
