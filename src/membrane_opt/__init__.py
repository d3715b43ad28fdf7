"""Eigenvalue minimization over two-valued densities on masked grids.

The core problem: minimize the first Dirichlet eigenvalue of the weighted
problem A phi = mu rho phi over densities rho confined to a box
[rho_min, rho_max] with prescribed total mass.  Optimal densities are
two-valued with the low region a sub-level set of the eigenfunction.  An
order-4 clamped-plate variant runs through the same pipeline.
"""

from .eigen import (
    CGStagnationError,
    EigenConvergenceError,
    EigenPair,
    SolverOptions,
    first_eigenpair,
    solve_spd,
)
from .grid import (
    Annulus,
    Disk,
    Dumbbell,
    Grid,
    GridSpec,
    Rectangle,
    annulus_spec,
    box_spec,
    build_grid,
    disk_spec,
    domain_volume,
    dumbbell_spec,
    mirror_permutation,
    square_spec,
)
from .operators import (
    StiffnessMatrix,
    assemble_stiffness,
    assemble_weight,
)
from .optimizer import (
    DensityField,
    LevelSetPartition,
    OptimizationTrace,
    ProblemSpec,
    Solution,
    TraceRecord,
    bathtub_rearrange,
    classify_solutions,
    conformal_bounds,
    minimize,
    multi_start,
    seeded_density,
    target_high_mass,
    uniform_density,
)
from .verify import (
    ContourSet,
    Ladder,
    OracleResult,
    Polyline,
    RegularityReport,
    count_components,
    enumerate_optimal,
    extract_contour,
    ladder,
    pure_difference_sup,
    radial_deviation,
    regularity_trend,
    round_hemisphere,
    stereographic,
    sublevel_check,
)

__version__ = "0.1.0"

