"""Deterministic command-line front end.

One JSON config document drives every verb; outputs are written atomically
and floats are formatted with shortest round-trip reprs, so a repeated run
with the same config and seed produces byte-identical artifacts. Exit codes:
0 ok, 2 config error, 3 numerically infeasible or out of memory, 4 tolerance
miss.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from types import NoneType, UnionType
from typing import Any, Literal, Sequence, TypedDict, Union, get_args, get_origin, get_type_hints, is_typeddict

import numpy as np

from .doubling import build_double, verify
from .grid import Grid1D, _write_atomic, fat_cantor_region, parse_region_spec, write_mask_file
from .operators import BoundaryCondition, NumericalError, assemble_laplacian, eigendecompose
from .sim import Method, propagate, run_simultaneous
from .specineq import fit_exponential, simultaneous_constant
from .spectral import l2_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_TOLERANCE = 4


class ConfigError(ValueError):
    pass


Coefficients = TypedDict("Coefficients", {"kappa": list[float], "a": list[float]})


@dataclass
class ExperimentConfig:
    """Resolved run parameters; every field lands in the summary for provenance."""

    n: int
    length: float = 1.0
    coefficients: Literal["constant"] | Coefficients = "constant"
    region: str | None = None
    T: float = 1.0
    method: Method = "hum"
    lambda_sweep: list[float] = field(default_factory=list)
    seed: int = 0
    output_dir: str = "."
    cantor_measure: float | None = None
    cantor_depth: int | None = None
    bc: Literal["dirichlet", "neumann"] = "dirichlet"


# each field's type, resolved once: get_type_hints costs about 0.3 ms a call
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _fits(value: Any, hint: Any) -> bool:
    """value, as JSON parses it, has the type hint. A float hint takes an int too;
    a bool is never a number, and no number hint takes a NaN, an infinity or an
    int beyond float64's range. A hint of another form raises TypeError rather
    than pass the value unchecked."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_fits(value, h) for h in args)
    if origin is Literal:
        return value in args
    if origin is list:
        return isinstance(value, list) and all(_fits(x, args[0]) for x in value)
    if is_typeddict(hint):  # exactly its keys, each of its type
        keys = hint.__annotations__
        return isinstance(value, dict) and set(value) == set(keys) and all(_fits(value[k], keys[k]) for k in keys)
    if hint in (int, float, str, NoneType):  # the one branch that takes a float
        ok = isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)
        return ok and (hint not in (int, float) or abs(value) <= sys.float_info.max)
    raise TypeError(f"cannot check a config value against the type {hint!r}")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := set(raw) - set(_FIELD_TYPES):
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "n" not in raw:
        raise ConfigError("config must set n")
    for key, value in raw.items():
        if not _fits(value, _FIELD_TYPES[key]):
            raise ConfigError(f"config field {key} has the wrong type or a non-finite number: {value!r:.80}")
    cfg = ExperimentConfig(**raw)
    # n and length are the grid's to refuse; only two verbs read T
    if cfg.T <= 0:
        raise ConfigError(f"T must be positive, got {cfg.T!r}")
    if any(l <= 0 for l in cfg.lambda_sweep):
        raise ConfigError("lambda_sweep entries must be positive")
    if len(set(cfg.lambda_sweep)) < len(cfg.lambda_sweep):
        raise ConfigError("lambda_sweep entries must be distinct")
    return cfg


def build_problem(cfg: ExperimentConfig) -> Grid1D:
    """The grid of cfg with its coefficients: constant, or sampled at the cell
    centers (kappa) and faces (a)."""
    spec = cfg.coefficients
    kappa, a = (1.0, 1.0) if spec == "constant" else (spec["kappa"], spec["a"])
    return Grid1D(cfg.n, cfg.length, kappa, a)


def _fmt(x: float) -> str:
    return "INF" if np.isinf(x) else repr(float(x))


def _csv_rows(table: np.ndarray) -> list[str]:
    """One CSV line per row of table, each value written as _fmt writes it;
    one .tolist() and a repr per Python float is about twice as fast."""
    return [",".join(["INF" if math.isinf(x) else repr(x) for x in row]) for row in table.tolist()]


def _write_json(path: str, obj: Any) -> None:
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _seeded_unit_pair(grid: Grid1D, seed: int) -> tuple[np.ndarray, np.ndarray]:
    pair = np.random.default_rng(seed).standard_normal((2, grid.n))
    return tuple(pair / l2_norm(grid, pair)[:, None])


# pass bar of each doubling check; the round trip is an identity up to the
# one rounded addition each of extend and split performs
_DOUBLE_CHECK_TOL = {
    "spectrum_union": 1e-9,
    "extension_eigenvectors": 1e-10,
    "link_identity": 1e-10,
    "split_roundtrip": 1e-12,
}


def cmd_double_check(cfg: ExperimentConfig, outdir: str) -> int:
    ext = build_double(build_problem(cfg))
    res = verify(ext, cfg.seed)
    checks = {}
    for name, tol in _DOUBLE_CHECK_TOL.items():
        r = getattr(res, name)
        checks[name] = {"max_residual": r, "pass": r <= tol}
    spectra = (("dirichlet", ext.walls[0].eigenvalues), ("neumann", ext.walls[1].eigenvalues),
               ("double", res.circle_eigenvalues))
    for name, vals in spectra:
        lines = ["k,eigenvalue"] + [f"{k},{_fmt(val)}" for k, val in enumerate(vals)]
        _write_atomic(os.path.join(outdir, f"spectrum_{name}.csv"), "\n".join(lines) + "\n")
    all_pass = all(c["pass"] for c in checks.values())
    _write_json(
        os.path.join(outdir, "double_check.json"),
        {"checks": checks, "all_pass": all_pass, "config": asdict(cfg)},
    )
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def cmd_specineq(cfg: ExperimentConfig, outdir: str) -> int:
    grid = build_problem(cfg)
    if not cfg.lambda_sweep:
        raise ConfigError("specineq needs a nonempty lambda_sweep")
    if cfg.region is None:
        raise ConfigError("specineq needs a region")
    region = parse_region_spec(cfg.region, grid)
    ext = build_double(grid)

    # one exact-lp estimate per family and cutoff; a wall family with no mode
    # below the cutoff has none, while the circle always holds the kernel mode
    estimates: dict[str, list] = {"dirichlet": [], "neumann": [], "simultaneous": []}
    for lam in cfg.lambda_sweep:
        for family, est in zip(estimates, simultaneous_constant(ext, lam, region)):
            if est is not None:
                estimates[family].append(est)

    rows = ["family,lambda,mode_count,region_measure,method,constant"]
    fits: dict[str, Any] = {}
    for family, ests in estimates.items():
        for est in ests:  # the exact-lp row and, from the same SVD, the sigma-min-l2 row
            head = f"{family},{_fmt(est.lam)},{est.mode_count},{_fmt(est.region_measure)}"
            l2 = np.inf if est.sigma_min == 0.0 else 1.0 / est.sigma_min
            rows += [f"{head},exact-lp,{_fmt(est.constant)}", f"{head},sigma-min-l2,{_fmt(l2)}"]
        finite = [e for e in ests if np.isfinite(e.constant)]
        if len(finite) >= 3:
            fit = fit_exponential(finite)
            fits[family] = {"logC": fit.logC, "slope": fit.slope, "residual": fit.residual}
        else:
            fits[family] = None
    any_finite = any(np.isfinite(e.constant) for ests in estimates.values() for e in ests)
    _write_atomic(os.path.join(outdir, "constants.csv"), "\n".join(rows) + "\n")
    _write_json(os.path.join(outdir, "fit.json"), {"fits": fits, "config": asdict(cfg)})
    return EXIT_OK if any_finite else EXIT_INFEASIBLE


def cmd_control(cfg: ExperimentConfig, outdir: str) -> int:
    grid = build_problem(cfg)
    if cfg.region is None:
        raise ConfigError("control needs a region")
    region = parse_region_spec(cfg.region, grid)
    u0, v0 = _seeded_unit_pair(grid, cfg.seed)
    report = run_simultaneous(grid, u0, v0, region, cfg.T, cfg.method)

    sig = report.signal
    cells = sig.region.cells  # the circle signal lives on the lifted region
    header = "t," + ",".join(f"cell_{int(c)}" for c in cells)
    # each node with the value holding from it; the last node closes with zeros
    table = np.column_stack([sig.timegrid, np.vstack([sig.values, np.zeros(len(cells))])])
    _write_atomic(os.path.join(outdir, "control.csv"), "\n".join([header] + _csv_rows(table)) + "\n")

    nlines = ["trajectory,t,l2,sup"]
    for name, traj in (
        ("dirichlet", report.trajectory_u),
        ("neumann", report.trajectory_v),
        ("double", report.trajectory_double),
    ):
        rows = _csv_rows(np.column_stack([traj.times, traj.l2_norms, traj.sup_norms]))
        nlines.extend(f"{name},{row}" for row in rows)
    _write_atomic(os.path.join(outdir, "norms.csv"), "\n".join(nlines) + "\n")

    if sig.slice_ledger is not None:
        _write_json(os.path.join(outdir, "cost_ledger.json"), {"slices": list(sig.slice_ledger)})

    # the report's scalar fields; its signal and trajectories are written above
    summary = {f.name: getattr(report, f.name) for f in fields(report) if f.repr}
    _write_json(os.path.join(outdir, "summary.json"), {**summary, "config": asdict(cfg)})
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_fatcantor(cfg: ExperimentConfig, outdir: str) -> int:
    grid = build_problem(cfg)
    if cfg.cantor_measure is None or cfg.cantor_depth is None:
        raise ConfigError("fatcantor needs cantor_measure and cantor_depth")
    if cfg.cantor_depth > cfg.n:  # a mask stops changing long before depth n
        raise ConfigError(f"cantor_depth must be at most n={cfg.n}, got {cfg.cantor_depth}")
    region = fat_cantor_region(grid, cfg.cantor_measure, cfg.cantor_depth, cfg.seed)
    path = os.path.join(outdir, "cantor_mask.txt")
    write_mask_file(path, region)
    print(f"wrote {path}: measure {_fmt(region.measure)} over {len(region.cells)} cells")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, outdir: str) -> int:
    grid = build_problem(cfg)
    basis = eigendecompose(assemble_laplacian(grid, BoundaryCondition(cfg.bc)))
    traj = propagate(basis, _seeded_unit_pair(grid, cfg.seed)[0], np.linspace(0.0, cfg.T, 65))
    rows = _csv_rows(np.column_stack([traj.times, traj.l2_norms, traj.sup_norms]))
    lines = ["trajectory,t,l2,sup"] + [f"{cfg.bc},{row}" for row in rows]
    _write_atomic(os.path.join(outdir, "norms.csv"), "\n".join(lines) + "\n")
    monotone = bool(np.all(np.diff(traj.l2_norms) <= 1e-12))
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "bc": cfg.bc,
            "initial_l2": float(traj.l2_norms[0]),
            "final_l2": float(traj.l2_norms[-1]),
            "dissipative": monotone,
            "config": asdict(cfg),
        },
    )
    return EXIT_OK if monotone else EXIT_TOLERANCE


VERBS = {
    "double-check": cmd_double_check,
    "specineq": cmd_specineq,
    "control": cmd_control,
    "fatcantor": cmd_fatcantor,
    "simulate": cmd_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config document")
    common.add_argument("--output-dir", default=None, help="override the config's output_dir")
    common.add_argument("--seed", type=int, default=None, help="override the config's seed")
    common.add_argument("--threads", type=int, default=1, help="accepted and ignored; changes nothing")
    parser = argparse.ArgumentParser(prog="simulheat", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        sub.add_parser(verb, parents=[common])

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if cfg.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        outdir = cfg.output_dir
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"output_dir {outdir!r} cannot be made: {exc}") from exc
        return VERBS[args.verb](cfg, outdir)
    # a steering miss, a failed eigensolve, LP or fit; LinAlgError is a
    # ValueError too, so this clause comes before the config errors
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical infeasibility: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError and the grid's region and resolution errors too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
