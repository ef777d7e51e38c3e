"""Cell-centered 1D grids, variable coefficients, and control regions.

The unit of discretization everywhere is the cell average: a grid of n cells
on [0, length] has centers at (i + 1/2)h and carries the weighted inner
product sum(weights * u * v), with weights = h * kappa(centers). Control
regions are boolean cell masks with exact measure h * popcount.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class EmptyRegionError(ValueError):
    """No cell center falls inside the requested region."""


class ResolutionError(ValueError):
    """Requested construction is not representable at this grid resolution."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=float))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [0, length]."""

    n: int
    length: float
    h: float
    centers: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 cells, got n={self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.centers.shape != (self.n,) or self.weights.shape != (self.n,):
            raise ValueError("centers/weights must have shape (n,)")
        if np.any(np.diff(self.centers) <= 0):
            raise ValueError("centers must be strictly increasing")
        if self.centers[0] <= 0 or self.centers[-1] >= self.length:
            raise ValueError("centers must lie strictly inside (0, length)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")


@dataclass(frozen=True)
class Coefficients:
    """Variable coefficients: kappa at the n cell centers, a at the n+1 faces.

    kappa is the density weighting the inner product; a is the diffusion
    factor entering the flux. Both must stay above a positive ellipticity
    floor.
    """

    kappa: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        if self.kappa.ndim != 1 or self.a.ndim != 1:
            raise ValueError("coefficient arrays must be one-dimensional")
        if self.a.shape[0] != self.kappa.shape[0] + 1:
            raise ValueError(
                f"face array must have n+1 entries, got kappa n={self.kappa.shape[0]} "
                f"and a {self.a.shape[0]}"
            )
        floor = 1e-12
        if np.min(self.kappa) < floor or np.min(self.a) < floor:
            raise ValueError("coefficients must be bounded away from zero")


@dataclass(frozen=True)
class ControlRegion:
    """Subset of cells where the control acts. measure = h * popcount exactly."""

    mask: np.ndarray
    measure: float

    def __post_init__(self) -> None:
        if self.mask.dtype != np.bool_ or self.mask.ndim != 1:
            raise ValueError("mask must be a 1D boolean array")
        if not self.mask.any():
            raise EmptyRegionError("control region is empty")


# a coefficient profile: one constant, a function of position, or its samples
Profile = float | Sequence[float] | np.ndarray | Callable[[np.ndarray], np.ndarray]


def _sample(profile: Profile, points: np.ndarray, name: str) -> np.ndarray:
    """profile at the points: a function is evaluated, a constant repeated,
    and samples taken as they are."""
    vals = np.asarray(profile(points) if callable(profile) else profile, dtype=float)
    if vals.ndim == 0:
        vals = np.full(points.shape, vals)
    if vals.shape != points.shape:
        raise ValueError(f"{name} must give one value at each of the {len(points)} points")
    return vals


def make_uniform_grid(n: int, length: float = 1.0, kappa: Profile = 1.0) -> Grid1D:
    """Build the n-cell grid on [0, length] with weights h * kappa(centers)."""
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    h = length / n
    with np.errstate(over="ignore", divide="ignore"):
        inv_h2 = 1.0 / np.square(h)
    if not 0.0 < inv_h2 < np.inf:
        raise ValueError(f"length {length!r} over {n} cells gives a cell width h with 1/h^2 not finite and nonzero")
    centers = (np.arange(n) + 0.5) * h
    kvals = _sample(kappa, centers, "kappa")
    return Grid1D(n=n, length=float(length), h=h, centers=_frozen(centers), weights=_frozen(h * kvals))


def make_coefficients(grid: Grid1D, kappa: Profile = 1.0, a: Profile = 1.0) -> Coefficients:
    """Sample kappa at cell centers and a at the n+1 faces (both walls included).

    The kappa samples must match the density baked into grid.weights; pass the
    same function, constant or samples used at grid construction.
    """
    faces = np.arange(grid.n + 1) * grid.h
    return Coefficients(kappa=_frozen(_sample(kappa, grid.centers, "kappa")), a=_frozen(_sample(a, faces, "a")))


def region_from_intervals(grid: Grid1D, intervals: Sequence[tuple[float, float]]) -> ControlRegion:
    """Cells whose centers fall inside the union of the open intervals (a, b)."""
    mask = np.zeros(grid.n, dtype=bool)
    for a, b in intervals:
        if not b > a:
            raise ValueError(f"interval ({a}, {b}) is empty or reversed")
        mask |= (grid.centers > a) & (grid.centers < b)
    if not mask.any():
        raise EmptyRegionError(
            f"no cell center lies in {list(intervals)} at resolution h={grid.h}"
        )
    return ControlRegion(mask=mask, measure=grid.h * int(mask.sum()))


def fat_cantor_region(grid: Grid1D, target_measure: float, depth: int, seed: int) -> ControlRegion:
    """Positive-measure nowhere-dense region, rasterized to whole cells.

    Depth levels of the middle-interval removal are applied, with level totals
    shrinking geometrically (ratio drawn from the seed) and normalized so the
    removed cell count is exactly n - round(target/h). The achieved measure is
    therefore within h/2 of target; after d levels no kept run of cells is
    longer than about n * 2**-d.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not 0 < target_measure <= grid.length:
        raise ValueError(f"target measure {target_measure} outside (0, {grid.length}]")
    keep = int(round(target_measure / grid.h))
    if keep < 1:
        raise ResolutionError(
            f"target measure {target_measure} not representable at h={grid.h}"
        )
    keep = min(keep, grid.n)
    total_remove = grid.n - keep

    mask = np.ones(grid.n, dtype=bool)
    if total_remove > 0:
        q = 0.45 + 0.1 * np.random.default_rng(seed).random()
        # cumulative removal quota after level j, exact at j = depth
        geo = (1.0 - q ** np.arange(1, depth + 1)) / (1.0 - q**depth)
        cum = np.rint(total_remove * geo).astype(int)
        cum[-1] = total_remove
        intervals: list[tuple[int, int]] = [(0, grid.n)]  # half-open cell blocks
        removed = 0
        for level in range(depth):
            quota = int(cum[level]) - removed
            intervals.sort(key=lambda lohi: (-(lohi[1] - lohi[0]), lohi[0]))
            nxt: list[tuple[int, int]] = []
            for idx, (lo, hi) in enumerate(intervals):
                size = hi - lo
                share = quota // len(intervals)
                if idx < quota % len(intervals):
                    share += 1
                # block sizes differ by at most 1, so the last level's shares all fit (CHANGES.md)
                r = min(share, max(size - 2, 0)) if level < depth - 1 else min(share, size)
                left = (size - r + 1) // 2
                mask[lo + left : lo + left + r] = False
                removed += r
                if left > 0:
                    nxt.append((lo, lo + left))
                if lo + left + r < hi:
                    nxt.append((lo + left + r, hi))
            intervals = nxt
    return ControlRegion(mask=mask, measure=grid.h * int(mask.sum()))


def _write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    a reader sees the old file or the whole new one, never a part."""
    dest = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(dest) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_mask_file(path: str | os.PathLike, region: ControlRegion) -> None:
    """Write the mask as a single line of '0'/'1' characters, atomically."""
    _write_atomic(path, "".join("1" if b else "0" for b in region.mask) + "\n")


def read_mask_file(path: str | os.PathLike, grid: Grid1D) -> ControlRegion:
    """Read a mask file written by write_mask_file and bind it to grid."""
    try:
        with open(path, "r") as fh:
            line = fh.readline().strip()
    except OSError as exc:
        raise ValueError(f"cannot read mask file {os.fspath(path)!r}: {exc}") from exc
    if len(line) != grid.n or set(line) - {"0", "1"}:
        raise ValueError(
            f"mask file {os.fspath(path)!r} must hold exactly {grid.n} chars of 0/1"
        )
    mask = np.frombuffer(line.encode(), dtype=np.uint8) == ord("1")
    return ControlRegion(mask=mask.copy(), measure=grid.h * int(mask.sum()))


def parse_region_spec(spec: str, grid: Grid1D) -> ControlRegion:
    """Parse 'a1,b1;a2,b2;...' as interval unions, anything else as a mask path."""
    text = spec.strip()
    looks_like_intervals = ";" in text or ("," in text and os.sep not in text)
    if looks_like_intervals:
        intervals = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(",")
            if len(pieces) != 2:
                raise ValueError(f"bad interval {part!r} in region spec {spec!r}")
            intervals.append((float(pieces[0]), float(pieces[1])))
        if not intervals:
            raise ValueError(f"region spec {spec!r} holds no intervals")
        return region_from_intervals(grid, intervals)
    return read_mask_file(text, grid)
