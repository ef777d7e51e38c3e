"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload headline --seed 1 --seconds 20 --trace 0

One closed-loop caller in this process runs the workload's ops through
simulheat.cli.main, back to back, in whole rounds until --seconds have passed,
and checks every op's artifacts against the benchmark's own computations.
OpenBLAS is pinned to --blas-threads (default 1) in this process's
environment and the CLI gets --threads --cli-threads (default 1).

Every time is CPU time (time.process_time) set against a fixed reference
computation (reference.py) run on either side of it, and reads in CPU seconds
of a calm host: time / reference time * the reference's calm time. On the
shared virtual host other tenants take the vCPU away, which CPU time leaves
out, and in stretches from seconds to tens of minutes all code runs up to
twice as slow, which only the reference takes out. Raw CPU and wall medians
are printed on the line before the result, for reference only.

--trace 0 prints the end-to-end metrics: median op time, set-up time (median
of fresh processes that import everything and make the inputs), peak
resident set, and the mean control cost over one pass of the pair seeds.
--trace 1 alternates untraced and traced rounds and prints per-layer self
times and call counts per traced op, the time per op spent outside every
wrapped call, and the tracing overhead (traced minus untraced median op).

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CLOCK, Tracer

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PER_LAYER_FUNCTIONS = (
    "operators.eigendecompose.self_s",
    "operators.eigendecompose.calls",
    "operators.assemble_laplacian.self_s",
    "doubling.build_double.self_s",
    "doubling.build_double.calls",
    "doubling.extended_eigenbasis.self_s",
    "doubling.extended_eigenbasis.calls",
    "control.hum_full_control.self_s",
    "control.lr_control.self_s",
    "control.hum_low_mode_control.self_s",
    "control.hum_low_mode_control.calls",
    "control.decay_factors.calls",
    "sim.propagate.self_s",
    "sim.split_trajectory.self_s",
    "specineq.estimate_constant_lp.self_s",
    "specineq.estimate_constant_lp.calls",
    "specineq.estimate_constant_lp.cells",
    "specineq.simultaneous_constant.self_s",
    "specineq.estimate_constant_l2.self_s",
)
LAYERS = ("cli", "grid", "operators", "spectral", "doubling", "specineq", "control", "sim")
TRACE_METRICS = (("bench.self_s", "s"), ("trace.op_s_p50", "s"), ("trace.overhead_s", "s"), ("cli.artifact_bytes", "bytes"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run prints."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")] + list(PER_LAYER_FUNCTIONS)
    return [(name, "s" if name.endswith("_s") else "count") for name in names] + list(TRACE_METRICS)


def _ready_cpu(argv: list[str], env: dict) -> tuple[float, float]:
    """Run a fresh interpreter that prints `ready <its CPU seconds>`; return
    that CPU time and the wall time from spawn until the line arrived."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as proc:
        ready = [line.split() for line in proc.stdout if line.startswith("ready ")]
        wall = time.perf_counter() - t0
    if len(ready) != 1 or proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}")
    return float(ready[0][1]), wall


def measure_setup(workload: str, env: dict, workdir: Path) -> dict[str, list[float]]:
    """Set-up of fresh interpreters, from their start until they have imported
    the benchmark and the program and made the workload's inputs.

    The set-up interpreters alternate with reference interpreters that only
    import the libraries (reference.IMPORTS_CODE), starting and ending with
    one. Returns, per set-up interpreter, its CPU time, the mean CPU time of
    the reference interpreters on either side, and its wall time.
    """
    code = (
        "import sys, time; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import workloads; "
        "workloads.WORKLOADS[sys.argv[2]]().prepare(Path(sys.argv[3])); print('ready', time.process_time(), flush=True)"
    )
    from reference import IMPORTS_CODE

    reference = [sys.executable, "-c", IMPORTS_CODE]
    samples: dict[str, list[float]] = {"cpu": [], "reference": [], "wall": []}
    before = _ready_cpu(reference, env)[0]
    for i in range(SETUP_REPEATS):
        cpu, wall = _ready_cpu([sys.executable, "-c", code, str(BENCH), workload, str(workdir / f"setup{i}")], env)
        after = _ready_cpu(reference, env)[0]
        samples["cpu"].append(cpu)
        samples["reference"].append((before + after) / 2.0)
        samples["wall"].append(wall)
        before = after
    return samples


def artifact_bytes(outdirs) -> int:
    return sum(p.stat().st_size for d in outdirs for p in Path(d).iterdir() if p.is_file())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1", help="OpenBLAS threads; 'default' leaves the library's choice")
    parser.add_argument("--cli-threads", type=int, default=1, help="--threads passed to the CLI")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.trace and args.cli_threads != 1:
        parser.error("the tracer follows one thread: use --cli-threads 1 with --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the pin must be in the environment before numpy loads OpenBLAS
    assert "numpy" not in sys.modules, "numpy was loaded before the OpenBLAS thread pin"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if args.blas_threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = args.blas_threads
    import workloads  # noqa: E402  (loads numpy and simulheat)
    from reference import NOMINAL_S  # noqa: E402  (loads numpy)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = workloads.WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    setup = None if args.trace else measure_setup(args.workload, dict(os.environ), workdir)
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(workdir / "run")
    result = run(wl, args.seed, args.seconds, args.cli_threads, trace=bool(args.trace))
    metrics = result.pop("metrics")
    if setup is not None:
        metrics["setup_s"] = (NOMINAL_S["imports"] * statistics.median(map(operator.truediv, setup["cpu"], setup["reference"])), "s")
        result["info"].update({f"setup_{k}_s_p50": statistics.median(v) for k, v in setup.items()})
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for failure in result.pop("failures")[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result.pop("info"), sort_keys=True))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def run(wl, seed: int, seconds: float, threads: int, trace: bool = False, quick: bool = False) -> dict:
    """Run whole rounds of wl's ops until `seconds` have passed.

    Each op is timed in CPU seconds, between two runs of the workload's
    reference computation. With `trace`, rounds alternate untraced and traced,
    starting untraced, and at least one of each runs. `quick` cuts every round
    to its first op.
    """
    import simulheat
    from reference import Reference

    tracer = Tracer([getattr(simulheat, name) for name in LAYERS], [simulheat]) if trace else None
    reference = Reference(wl.reference)
    times: list[tuple[bool, float]] = []  # (traced, CPU seconds) of each op
    refs: list[float] = []  # reference CPU seconds before each op, and after the last
    walls: list[float] = []  # untraced op wall seconds, for reference
    outside = 0.0  # traced op time not inside any wrapped call
    nbytes = 0
    attempted = failed = 0
    correct = True
    failures: list[str] = []
    first_round_costs: list[float] = []
    items = wl.round(seed)[:1] if quick else wl.round(seed)
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for item in items:
            refs.append(reference())
            if traced:
                tracer.install()
                top_before = tracer.top_s
            w0 = time.perf_counter()
            t0 = CLOCK()
            try:
                codes = wl.op(item, threads)
                error = None
            except Exception as exc:  # a crash inside the program fails the op
                codes, error = None, f"op raised {exc!r}"
            dt = CLOCK() - t0
            if not traced:
                walls.append(time.perf_counter() - w0)
            else:
                tracer.remove()
                outside += dt - (tracer.top_s - top_before)
                nbytes += artifact_bytes(wl.outdirs.values())
            times.append((traced, dt))
            attempted += 1
            op_failures, costs = ([error], []) if error else wl.check(item, codes, seed)
            if rounds == 0:
                first_round_costs += [c for c in costs if math.isfinite(c)]
            if op_failures:
                failed += 1
                failures += op_failures
                correct &= all(wl.known_fault(f) for f in op_failures)
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            break
    refs.append(reference())

    # the host's speed flips within seconds: each op is set against the mean
    # of the reference runs on either side of it
    ratios: dict[bool, list[float]] = {False: [], True: []}
    for i, (traced, dt) in enumerate(times):
        ratios[traced].append(2.0 * dt / (refs[i] + refs[i + 1]))

    def op_p50(traced: bool) -> float:
        """Median op time against the reference, in seconds of the calm host."""
        return reference.nominal_s * statistics.median(ratios[traced])

    ops = [dt for traced, dt in times if not traced]
    traced_ops = [dt for traced, dt in times if traced]
    info: dict = {"workload": wl.name, "ops": attempted, "untraced_ops": len(ops), "rounds": rounds}
    info.update(
        op_cpu_s_p50=statistics.median(ops),
        op_wall_s_p50=statistics.median(walls),
        reference=wl.reference,
        reference_cpu_s_p50=statistics.median(refs),
    )
    if len(ops) >= 4:
        q = statistics.quantiles(ops, n=4)
        info.update(op_cpu_s_p25=q[0], op_cpu_s_p75=q[2])
    if len(ops) >= 40:
        p90 = statistics.quantiles(ops, n=10)[-1]
        info.update(op_cpu_s_p90=p90, ops_beyond_p90=sum(t > p90 for t in ops))
    if tracer is None:
        # specineq workloads synthesize no control; 1 keeps the metric present and inert
        cost = statistics.fmean(first_round_costs) if first_round_costs else 1.0
        metrics = {"op_s_p50": (op_p50(False), "s"), "control_cost": (cost, "1")}
    else:
        # one factor for the whole traced part, so self times still add up to the op
        scale = reference.nominal_s / statistics.median(refs)
        k = len(traced_ops)
        totals = tracer.totals()
        metrics = {}
        for name, unit in per_layer_metrics():
            value = totals.get(name, 0) / k
            metrics[name] = (value * scale if unit == "s" else value, unit)
        p50_traced = op_p50(True)
        metrics["bench.self_s"] = (outside / k * scale, "s")
        metrics["trace.op_s_p50"] = (p50_traced, "s")
        metrics["trace.overhead_s"] = (p50_traced - op_p50(False), "s")
        metrics["cli.artifact_bytes"] = (nbytes / k, "bytes")
        info.update(traced_ops=k, traced_op_cpu_s_mean=statistics.fmean(traced_ops), traced_scale=scale)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "failures": failures,
    }


if __name__ == "__main__":
    sys.exit(main())
