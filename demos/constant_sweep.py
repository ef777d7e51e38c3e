"""How much a small window sees of the low modes.

The spectral inequality bounds every low-frequency combination by its mass on
the observation window; the constant grows exponentially with the cutoff. The
sweep below estimates the sharp constant by linear programming for the
Dirichlet family, fits the growth rate, shows that widening the window only
helps, and checks that the shared-control constant on the doubled circle
dominates both single-family constants.
"""

import numpy as np

from simulheat import (
    Grid1D,
    build_double,
    estimate_constant_lp,
    fit_exponential,
    mode_count,
    region_from_intervals,
    simultaneous_constant,
)

n = 128
grid = Grid1D(n)
ext = build_double(grid)
basis_d = ext.walls[0]

window = region_from_intervals(grid, [(0.45, 0.55)])
wide = region_from_intervals(grid, [(0.4, 0.6)])
print(f"n={n}, window (0.45, 0.55) = {len(window.cells)} cells")
print()
print("  cutoff   modes   C(window)      C(wide)        C(simultaneous)")

sweep = []
for k in range(8):
    lam = float(basis_d.frequencies[k])
    if k < 4:  # one call gives the Dirichlet, the Neumann and the joint constant
        est, cn, cs = simultaneous_constant(ext, lam, window)
        joint = f"{cs.constant:.4e}  (>= both walls: {cs.constant >= max(est.constant, cn.constant)})"
    else:
        est = estimate_constant_lp(basis_d, lam, window)
        joint = ""
    est_wide = estimate_constant_lp(basis_d, lam, wide)
    sweep.append(est)
    print(f"  {lam:6.3f}   {mode_count(basis_d, lam):>5}   {est.constant:.4e}   {est_wide.constant:.4e}   {joint}")

fit = fit_exponential(sweep)
print()
print(f"log C against cutoff: slope {fit.slope:.4f} (exponential growth rate), "
      f"prefactor {np.exp(fit.logC):.4f}")
