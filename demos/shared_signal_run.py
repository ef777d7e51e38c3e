"""Steer both wall problems to zero with one shared control.

Picks a random pair of initial states, synthesizes a single control supported
on a small interior window, and drives the Dirichlet state u and the Neumann
state v to zero together. Both syntheses are shown: the one-shot minimal-norm
solve and the iterated low-frequency cascade.

Usage: python demos/shared_signal_run.py [seed]
"""

import sys

import numpy as np

from simulheat import Grid1D, region_from_intervals, run_simultaneous


def main(seed: int) -> None:
    n, T = 96, 1.0
    grid = Grid1D(n, 1.0, a=lambda x: 1.0 + 0.2 * x)
    region = region_from_intervals(grid, [(0.2, 0.3)])

    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)

    print(f"n={n}, horizon T={T}, control window (0.2, 0.3) = {len(region.cells)} cells, seed {seed}")
    for method in ("hum", "lr"):
        rep = run_simultaneous(grid, u0, v0, region, T, method)
        print(f"\n[{method}]")
        print(f"  initial weighted-L2 norms   u {rep.initial_u_l2:.4f}, v {rep.initial_v_l2:.4f}")
        print(f"  final weighted-L2 norms     u {rep.final_u_l2:.3e}, v {rep.final_v_l2:.3e}")
        print(f"  control cost (L2 in t,x)    {rep.control_cost:.4f}")
        print(f"  walls: direct vs circle     trace {rep.dirichlet_trace_residual:.2e}, "
              f"flux {rep.neumann_flux_residual:.2e}")
        print(f"  tolerance {rep.tolerance:.0e} -> {'pass' if rep.passed else 'MISS'}")
        if rep.signal.slice_ledger is not None:
            print("  cascade slices (lambda, active cost):")
            for row in rep.signal.slice_ledger:
                print(f"    j={row['j']}  lambda={row['lambda']:8.3f}  cost={row['active_cost']:.3e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
