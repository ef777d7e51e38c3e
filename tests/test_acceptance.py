"""Acceptance gate: nine end-to-end properties at their contract tolerances.

Each test prints one summary line with the measured quantities, so a -s run
reads as a checklist. Budgeted runtimes are asserted where the contract sets
them.
"""

import json
import time

import numpy as np
import scipy.integrate
import scipy.linalg

from common import D, N, VARIABLE, dense_modes, double_setup, gramian, mass_matrix_on_region, problem, unit_pair, wall_basis
from simulheat import cli
from simulheat.control import ControlSignal
from simulheat.doubling import build_double, split, verify
from simulheat.grid import fat_cantor_region, region_from_intervals
from simulheat.operators import assemble_laplacian, eigendecompose
from simulheat.sim import propagate, run_simultaneous
from simulheat.specineq import estimate_constant_lp, fit_exponential, simultaneous_constant
from simulheat.spectral import mode_count


def test_criterion_1_spectrum_union():
    start = time.perf_counter()
    worst = 0.0
    for n in (8, 64, 256):
        for label in ("constant", "variable"):
            kw = {} if label == "constant" else VARIABLE
            grid = problem(n, **kw)
            worst = max(worst, verify(build_double(grid), 0).spectrum_union)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 10.0
    print(f"CRITERION 1 PASS: spectrum union rel err {worst:.3e} <= 1e-9 in {elapsed:.2f}s <= 10s")


def test_criterion_2_extension_property():
    grid, ext, basis_d, basis_n = double_setup(64, **VARIABLE)
    res = verify(ext, 0).extension_eigenvectors
    X = dense_modes(ext)
    G = X.T @ (ext.grid.weights[:, None] * X)
    gram_dev = float(np.max(np.abs(G - np.eye(2 * 64))))
    assert res <= 1e-10
    assert gram_dev <= 1e-10
    print(f"CRITERION 2 PASS: extension residual {res:.3e}, Gram deviation {gram_dev:.3e}, both <= 1e-10")


def test_criterion_3_link_identity():
    # verify draws 100 seeded (u, v, lambda) triples, in the order double-check does
    grid, ext, basis_d, basis_n = double_setup(64, **VARIABLE)
    worst = verify(ext, 0).link_identity
    assert worst <= 1e-10
    print(f"CRITERION 3 PASS: link identity over 100 triples, worst gap {worst:.3e} <= 1e-10")


def test_criterion_4_headline_simultaneous_control():
    grid = problem(128)
    region = region_from_intervals(grid, [(0.2, 0.3)])
    worst = {"hum": 0.0, "lr": 0.0}
    slowest = 0.0
    for seed in range(5):
        u0, v0 = unit_pair(grid, seed)
        for method in ("hum", "lr"):
            start = time.perf_counter()
            rep = run_simultaneous(grid, u0, v0, region, 1.0, method)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            scale = max(rep.initial_u_l2, rep.initial_v_l2)
            worst[method] = max(worst[method], rep.final_u_l2 / scale, rep.final_v_l2 / scale)
            assert elapsed <= 60.0
    assert worst["hum"] <= 1e-6
    assert worst["lr"] <= 1e-4
    print(
        f"CRITERION 4 PASS: headline n=128, 5 pairs, hum worst {worst['hum']:.3e} <= 1e-6, "
        f"lr worst {worst['lr']:.3e} <= 1e-4, slowest run {slowest:.1f}s <= 60s"
    )


def test_criterion_5_fat_cantor_region():
    start = time.perf_counter()
    grid = problem(1024)
    region = fat_cantor_region(grid, 0.3, depth=6, seed=0)
    u0, v0 = unit_pair(grid, 0)
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    elapsed = time.perf_counter() - start
    scale = max(rep.initial_u_l2, rep.initial_v_l2)
    worst = max(rep.final_u_l2 / scale, rep.final_v_l2 / scale)
    assert worst <= 1e-6
    assert elapsed <= 300.0
    print(
        f"CRITERION 5 PASS: fat-Cantor measure {region.measure:.6f} (n=1024, depth 6), "
        f"worst final {worst:.3e} <= 1e-6 in {elapsed:.1f}s <= 300s"
    )


def test_criterion_6_oracle_equivalence():
    # propagate against dense expm + Duhamel on both wall problems
    worst_prop = 0.0
    rng = np.random.default_rng(6)
    for bc in (D, N):
        grid = problem(16, **VARIABLE)
        op = assemble_laplacian(grid, bc)
        basis = eigendecompose(op)
        region = region_from_intervals(grid, [(0.25, 0.75)])
        timegrid = np.linspace(0.0, 0.4, 6)
        values = rng.standard_normal((5, int(region.mask.sum())))
        sig = ControlSignal(timegrid, values, region)
        u0 = rng.standard_normal(16)
        traj = propagate(basis, u0, timegrid, sig)
        A = op.dense()
        u = u0.copy()
        for m in range(5):
            dt = timegrid[m + 1] - timegrid[m]
            g = np.zeros(16)
            g[region.mask] = values[m]
            duhamel, _ = scipy.integrate.quad_vec(
                lambda s: scipy.linalg.expm(-A * s) @ g, 0.0, dt, epsabs=1e-13, epsrel=1e-13
            )
            u = scipy.linalg.expm(-A * dt) @ u + duhamel
            i = int(np.argmin(np.abs(traj.times - timegrid[m + 1])))
            worst_prop = max(worst_prop, float(np.max(np.abs(traj.states[i] - u))))
    assert worst_prop <= 1e-8

    # gramian against adaptive quadrature at K = 8
    basis = wall_basis(16, D, **VARIABLE)
    region = region_from_intervals(basis.grid, [(0.2, 0.55)])
    K = mode_count(basis, float(basis.frequencies[7]))
    assert K == 8
    tau = 0.4
    M = mass_matrix_on_region(basis, K, region)
    lam = basis.eigenvalues[:8]
    oracle, _ = scipy.integrate.quad_vec(
        lambda s: np.exp(-(lam[:, None] + lam[None, :]) * (tau - s)) * M,
        0.0, tau, epsabs=1e-13, epsrel=1e-13,
    )
    worst_gram = float(np.max(np.abs(gramian(basis, K, region, tau) - oracle)))
    assert worst_gram <= 1e-8
    print(
        f"CRITERION 6 PASS: propagate vs expm+Duhamel {worst_prop:.3e} <= 1e-8, "
        f"gramian vs quadrature {worst_gram:.3e} <= 1e-8"
    )


def test_criterion_7_spectral_constant_behavior():
    grid, ext, basis_d, basis_n = double_setup(512)
    small = region_from_intervals(grid, [(0.45, 0.55)])
    big = region_from_intervals(grid, [(0.4, 0.6)])
    lams = [float(basis_d.frequencies[k]) for k in range(12)]

    cds, cns, css, cds_big = [], [], [], []
    for lam in lams:
        cd, cn, cs = simultaneous_constant(ext, lam, small)
        cds.append(cd)
        cns.append(cn)
        css.append(cs)
        cds_big.append(estimate_constant_lp(basis_d, lam, big))

    # sweep family: growing, finite, and antitone under region enlargement
    values = [e.constant for e in cds]
    assert all(np.isfinite(v) for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-9)
    for small_est, big_est in zip(cds, cds_big):
        assert big_est.constant <= small_est.constant * (1.0 + 1e-9)
    slope = fit_exponential(cds).slope
    assert slope > 0.0

    # shared-signal constant dominates both single-family constants at every
    # cutoff; an unbounded circle certificate dominates trivially
    finite_sim = 0
    for cd, cn, cs in zip(cds, cns, css):
        assert cs.constant >= max(cd.constant, cn.constant) - 1e-8
        finite_sim += int(np.isfinite(cs.constant))
    print(
        f"CRITERION 7 PASS: 12-frequency sweep at n=512 finite and nondecreasing, "
        f"enlargement antitone, fit slope {slope:.4f} > 0, domination at 12/12 cutoffs "
        f"(simultaneous constant finite at {finite_sim})"
    )


def test_criterion_8_boundary_recovery():
    grid = problem(128)
    region = region_from_intervals(grid, [(0.2, 0.3)])
    u0, v0 = unit_pair(grid, 0)
    rep = run_simultaneous(grid, u0, v0, region, 1.0, "hum")
    assert rep.dirichlet_trace_residual <= 1e-10
    assert rep.neumann_flux_residual <= 1e-10
    # the residuals above hold the direct wall runs against the split
    # controlled circle run at the walls; the split agrees at every cell
    ext = build_double(grid)
    su, sv = split(ext, rep.trajectory_double.states)
    assert np.max(np.abs(su - rep.trajectory_u.states)) <= 1e-10
    assert np.max(np.abs(sv - rep.trajectory_v.states)) <= 1e-10
    print(
        f"CRITERION 8 PASS: Dirichlet trace {rep.dirichlet_trace_residual:.3e} and "
        f"Neumann flux {rep.neumann_flux_residual:.3e} residuals <= 1e-10"
    )


def test_criterion_9_byte_determinism(tmp_path):
    cfg_path = tmp_path / "headline.json"
    cfg_path.write_text(json.dumps(
        {"n": 128, "region": "0.2,0.3", "T": 1.0, "method": "hum", "seed": 0}
    ))
    out = tmp_path / "out"
    names = ("control.csv", "norms.csv", "summary.json")
    assert cli.main(["control", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert cli.main(["control", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]
    print(f"CRITERION 9 PASS: repeated headline run byte-identical across {len(names)} artifacts")
