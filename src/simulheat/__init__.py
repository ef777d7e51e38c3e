"""Simultaneous null control of both wall heat problems with one shared input.

The package realizes, exactly at the discrete level, the reflection that
turns the Dirichlet and Neumann problems on an interval into the odd and
even parts of a single periodic problem on a doubled circle: one control
supported on the original copy then steers both systems at once. On top of
that sit empirical estimators for the spectral inequality constants that
quantify low-frequency observability, and two control syntheses (one-shot
minimal-norm, and an iterated low-frequency cascade).
"""

from .grid import (
    ControlRegion,
    Coefficients,
    EmptyRegionError,
    Grid1D,
    ResolutionError,
    fat_cantor_region,
    make_coefficients,
    make_uniform_grid,
    parse_region_spec,
    read_mask_file,
    region_from_intervals,
    write_mask_file,
)
from .operators import (
    BoundaryCondition,
    EigenBasis,
    NumericalError,
    Operator,
    analytic_eigenbasis,
    assemble_laplacian,
    eigendecompose,
)
from .spectral import (
    SpectralCutoff,
    coefficients,
    l1_norm_on,
    l2_norm,
    make_cutoff,
    project,
    sup_norm,
)
from .doubling import (
    DoubleDomain,
    build_double,
    extend_pair,
    lift_region,
    split,
)
from .specineq import (
    FitResult,
    SpectralConstantEstimate,
    estimate_constant_l2,
    estimate_constant_lp,
    fit_exponential,
    randomized_lower_bound,
    simultaneous_constant,
)
from .control import (
    ControlSignal,
    InfeasibleControlError,
    LRSchedule,
    SingularGramianError,
    gramian,
    hum_full_control,
    hum_low_mode_control,
    lr_control,
    make_lr_schedule,
    mass_matrix_on_region,
)
from .sim import (
    SimultaneousReport,
    Trajectory,
    check_boundary_conditions,
    propagate,
    run_simultaneous,
    split_trajectory,
)

__version__ = "0.1.0"
