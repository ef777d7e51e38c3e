"""Simultaneous null control of both wall heat problems with one shared input.

The package realizes, exactly at the discrete level, the reflection that
turns the Dirichlet and Neumann problems on an interval into the odd and
even parts of a single periodic problem on a doubled circle: one control
supported on the original copy then steers both systems at once. On top of
that sit empirical estimators for the spectral inequality constants that
quantify low-frequency observability, and two control syntheses (one-shot
minimal-norm, and an iterated low-frequency cascade).
"""

from .grid import Grid1D, region_from_intervals
from .operators import BoundaryCondition, assemble_laplacian, eigendecompose
from .spectral import l2_norm, mode_count, project, sup_norm
from .doubling import build_double, extend_pair, split
from .specineq import estimate_constant_lp, fit_exponential, simultaneous_constant
from .sim import run_simultaneous

__version__ = "0.1.0"
