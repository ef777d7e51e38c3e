"""The discretized problem on a cell-centered 1D grid, and control regions.

The unit of discretization everywhere is the cell average: a Grid1D of n
cells on [0, length] has centers at (i + 1/2)h, carries its coefficients
(kappa at the centers, a at the faces) and the weighted inner product
sum(weights * u * v), with weights = h * kappa(centers). A ControlRegion is a
read-only boolean mask over one grid's cells, from which it derives its cells,
measure h * len(cells) and weights, so it cannot disagree with its grid.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class EmptyRegionError(ValueError):
    """No cell center falls inside the requested region."""


class ResolutionError(ValueError):
    """Requested construction is not representable at this grid resolution."""


def _frozen(arr: np.ndarray, dtype: type | None = float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


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


@dataclass(frozen=True, eq=False)
class Grid1D:
    """The discretized problem: n uniform cells on [0, length], the density
    kappa at the n cell centers and the diffusion a at the n+1 faces (both
    walls included).

    kappa and a are each given as a Profile and stored as their samples,
    which must be finite and above a positive ellipticity floor. h, centers
    and weights = h * kappa are derived from them.
    """

    n: int
    length: float = 1.0
    kappa: Profile = 1.0
    a: Profile = 1.0
    h: float = field(init=False)
    centers: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n, length = self.n, self.length
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
        derived = {"length": float(length), "h": h, "centers": _frozen(centers)}
        for name, points in (("kappa", centers), ("a", np.arange(n + 1) * h)):
            vals = _sample(getattr(self, name), points, name)
            if not (np.all(np.isfinite(vals)) and np.min(vals) >= 1e-12):
                raise ValueError(f"{name} must be finite and bounded away from zero")
            derived[name] = _frozen(vals)
        derived["weights"] = _frozen(h * derived["kappa"])
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class ControlRegion:
    """The cells of grid where the control acts, from a boolean mask of shape
    (grid.n,). mask is a read-only copy, and cells = flatnonzero(mask), measure
    = h * len(cells) and weights = grid.weights[cells] are derived from it."""

    grid: Grid1D
    mask: np.ndarray
    cells: np.ndarray = field(init=False)
    measure: float = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mask = _frozen(self.mask, dtype=None)  # a copy, so the caller's array may change freely
        if mask.dtype != np.bool_ or mask.shape != (self.grid.n,):
            raise ValueError(f"mask must be a boolean array of shape ({self.grid.n},)")
        cells = _frozen(np.flatnonzero(mask), dtype=None)
        if not len(cells):
            raise EmptyRegionError("control region is empty")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "measure", self.grid.h * len(cells))
        object.__setattr__(self, "weights", _frozen(self.grid.weights[cells]))


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
    return ControlRegion(grid, mask)


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
    return ControlRegion(grid, mask)


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
    return ControlRegion(grid, np.frombuffer(line.encode(), dtype=np.uint8) == ord("1"))


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
