"""One circle carrying both wall problems.

Doubling the interval and gluing an odd copy turns the Dirichlet and Neumann
spectra into the two halves of the periodic spectrum. The circle basis is
therefore a view of the two wall bases: each circle mode is read off a wall
mode when asked for, and no 2n x 2n matrix is stored. The script builds a
variable-coefficient problem, checks the multiset identity against a dense
eigensolve of the circle operator, shows one circle mode as its wall mode,
and verifies that the reflected eigenvectors really are eigenvectors of that
operator.
"""

import numpy as np

from simulheat import Grid1D, build_double, extend_pair, mode_count, project, split, sup_norm
from simulheat.doubling import verify

n = 48
grid = Grid1D(n, 1.0, kappa=lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x), a=lambda x: 1.2 - 0.4 * x)

ext = build_double(grid)
basis_d, basis_n = ext.walls
# verify solves the dense circle operator and checks the doubling against it
checks = verify(ext, seed=0)
circle = checks.circle_eigenvalues

union = np.sort(np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues]))
rel = np.abs(union - circle) / np.maximum(np.abs(circle), 1.0)
print(f"interval n={n}, circle 2n={2 * n}")
print(f"union of wall spectra vs circle spectrum: worst relative gap {rel.max():.2e}")
print()
print("  sorted wall union   circle      (D = dirichlet, N = neumann)")
tags = ["D"] * n + ["N"] * n
order = np.argsort(np.concatenate([basis_d.eigenvalues, basis_n.eigenvalues]), kind="stable")
for k in range(8):
    print(f"  {union[k]:>12.4f} ({tags[order[k]]})   {circle[k]:>12.4f}")

# Dirichlet mode 2 is circle mode circle_rows[2]: the wall mode over its
# circle norm on the plus copy, and its negative on the mirror copy
r = int(ext.circle_rows[2])
mode = ext.columns(r + 1)[:, r]
plus, mirror = mode[:n], mode[: n - 1 : -1]
print()
print(f"Dirichlet mode 2 is circle mode {r}: mirror copy = -plus copy: {bool(np.all(mirror == -plus))}, "
      f"plus copy / wall mode = {np.mean(plus / basis_d.vectors[:, 2]):.6f} (1/sqrt(2) = {np.sqrt(0.5):.6f})")

print()
print(f"odd/even reflections as circle eigenvectors: worst residual {checks.extension_eigenvectors:.2e}")

# projecting the glued pair on the circle, then splitting, matches projecting
# each wall problem separately
rng = np.random.default_rng(7)
u, v = rng.standard_normal(n), rng.standard_normal(n)
lam = float(basis_d.frequencies[4])
pu, pv = split(ext, project(ext, mode_count(ext, lam), extend_pair(ext, u, v)))
gap_u = sup_norm(pu - project(basis_d, mode_count(basis_d, lam), u))
gap_v = sup_norm(pv - project(basis_n, mode_count(basis_n, lam), v))
print(f"split-projection link at cutoff {lam:.3f}: gaps {gap_u:.2e} (odd), {gap_v:.2e} (even)")
