"""The benchmark's workloads: their inputs, one timed op each, and its checks.

Every op calls simulheat.cli.main in this process, as the `simulheat` command
would, with `--threads` set by the caller. Inputs are written under the
checkout's .bench_work directory; the simulheat sources are taken from the
checkout's src directory and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "simulheat" / "__init__.py").is_file():
    raise ImportError(f"no simulheat sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import simulheat  # noqa: E402
import simulheat.cli  # noqa: E402

import checks  # noqa: E402

if Path(simulheat.__file__).resolve().parent != SRC / "simulheat":
    raise ImportError(f"simulheat was imported from {simulheat.__file__}, not from {SRC}")

TOLERANCES = {"hum": 1e-6, "lr": 1e-4}


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, sort_keys=True) + "\n")
    return str(path)


def _run_cli(verb: str, config: str, outdir: Path, seed: int, threads: int) -> int:
    argv = [verb, "--config", config, "--output-dir", str(outdir), "--seed", str(seed), "--threads", str(threads)]
    return simulheat.cli.main(argv)


class ControlWorkload:
    """`control` runs on seeded unit pairs; one op runs every method on one pair.

    A round is one pass over the fixed pair seeds, started at an offset taken
    from the benchmark seed, so every run attempts the same multiset of ops.
    `reference` names the reference computation (reference.py) each op is
    timed against.
    """

    def __init__(
        self, name: str, n: int, methods: tuple[str, ...], pair_seeds: tuple[int, ...], cantor: dict | None, reference: str
    ):
        self.name = name
        self.n = n
        self.reference = reference
        self.methods = methods
        self.pair_seeds = pair_seeds
        self.cantor = cantor
        self.T = 1.0
        self._walls = None

    def prepare(self, workdir: Path) -> None:
        """Write the configs and, for a Cantor window, make its mask with `fatcantor`."""
        workdir.mkdir(parents=True, exist_ok=True)
        if self.cantor is None:
            region = "0.2,0.3"
            self.mask = checks.interval_mask(self.n, 0.2, 0.3)
        else:
            cfg = _write_config(workdir / "fatcantor.json", {"n": self.n, **self.cantor})
            with contextlib.redirect_stdout(io.StringIO()):
                rc = _run_cli("fatcantor", cfg, workdir, self.cantor["seed"], 1)
            region = str(workdir / "cantor_mask.txt")
            if rc != 0:
                raise RuntimeError(f"fatcantor exited {rc}")
            self.mask = np.array(list(Path(region).read_text().strip())) == "1"
        self.configs = {
            m: _write_config(workdir / f"{m}.json", {"n": self.n, "region": region, "T": self.T, "method": m})
            for m in self.methods
        }
        self.outdirs = {m: workdir / f"out_{m}" for m in self.methods}

    def round(self, seed: int) -> list[int]:
        k = seed % len(self.pair_seeds)
        return list(self.pair_seeds[k:] + self.pair_seeds[:k])

    def op(self, pair_seed: int, threads: int) -> dict[str, int]:
        return {m: _run_cli("control", self.configs[m], self.outdirs[m], pair_seed, threads) for m in self.methods}

    def check(self, pair_seed: int, codes: dict[str, int], seed: int) -> tuple[list[str], list[float]]:
        if self._walls is None:
            self._walls = checks.wall_modes(self.n)
        pair = checks.unit_pair(self.n, pair_seed)
        failures, costs = [], []
        for m in self.methods:
            fails, cost = checks.check_control(
                str(self.outdirs[m]), codes[m], self._walls, pair, self.mask, self.T, TOLERANCES[m]
            )
            failures += [f"{m} pair {pair_seed}: {f}" for f in fails]
            costs.append(cost)
        return failures, costs

    def known_fault(self, failure: str) -> bool:
        return False


class SpecineqWorkload:
    """One `specineq` sweep per op; the inputs do not depend on the seed.

    The seed only draws the random witnesses of the checks. Each op is timed
    against the "lp" reference computation.
    """

    reference = "lp"

    def __init__(self, name: str, n: int, window: tuple[float, float], lambdas: list[float], fault: str | None = None):
        self.name = name
        self.n = n
        self.window = window
        self.lambdas = lambdas
        self.fault = fault
        self._fams = None
        self._bounds: dict = {}

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        a, b = self.window
        self.config = _write_config(
            workdir / "specineq.json", {"n": self.n, "region": f"{a},{b}", "lambda_sweep": self.lambdas}
        )
        self.outdirs = {"specineq": workdir / "out_specineq"}

    def round(self, seed: int) -> list[None]:
        return [None]

    def op(self, _item: None, threads: int) -> dict[str, int]:
        return {"specineq": _run_cli("specineq", self.config, self.outdirs["specineq"], 0, threads)}

    def check(self, _item: None, codes: dict[str, int], seed: int) -> tuple[list[str], list[float]]:
        if self._fams is None:
            self._fams = checks.families(self.n, checks.interval_mask(self.n, *self.window))
        failures = checks.check_constants(
            str(self.outdirs["specineq"]), codes["specineq"], self._fams, self.lambdas, seed, self._bounds
        )
        return failures, []

    def known_fault(self, failure: str) -> bool:
        return self.fault is not None and failure.startswith(self.fault)


WORKLOADS = {
    # criterion 4's problem: n=128, window (0.2, 0.3), T=1, both syntheses
    "headline": lambda: ControlWorkload("headline", 128, ("hum", "lr"), tuple(range(8)), None, "python"),
    # criterion 5's fat-Cantor window: measure 0.3, depth 6, mask seed 0
    "cantor": lambda: ControlWorkload(
        "cantor", 1024, ("hum",), (0, 1, 2), {"cantor_measure": 0.3, "cantor_depth": 6, "seed": 0}, "dense"
    ),
    # well-conditioned cutoffs: every family finite, circle K = 3 and 5
    "sweep": lambda: SpecineqWorkload("sweep", 160, (0.45, 0.55), [4.0, 7.0]),
    # lambda = 13 puts the circle at K = 9 with sigma_min/sigma_max ~ 1.4e-12,
    # where the exact-lp simultaneous constant is reported far below a witness
    "horizon": lambda: SpecineqWorkload(
        "horizon", 128, (0.45, 0.55), [4.0, 13.0], fault="simultaneous,13,exact-lp: witness"
    ),
}
