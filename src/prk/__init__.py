"""Partitioned / multirate Runge-Kutta time stepping for conservation laws.

The package provides:

* exact-rational partitioned Runge-Kutta tableaus and property checks,
* cell-based and flux-based decompositions of semi-discrete right-hand
  sides (including a shock-tracking dynamic partition),
* WENO5 / upwind spatial discretizations in 1D and 2D,
* the explicit partitioned time stepper and a high-accuracy reference
  integrator,
* linear error analysis: amplification operator, local-error coefficient
  matrices, the order-reduction matrix W and stability checks,
* an experiment harness that reproduces the convergence tables and
  figure data as CSV files.
"""

from .tableau import (
    PRKTableau,
    TableauProperties,
    builtin_tableau,
    builtin_names,
    check_order,
    classical_order,
    stage_order,
    is_conservative,
    is_internally_consistent,
    tableau_properties,
)
from .decomposition import (
    CellPartition,
    FluxPartition,
    CellSplitParts,
    FluxSplitParts,
    TrivialParts,
    burgers_dynamic_partition,
    DynamicCellSplit,
    mass,
)
from .spatial import (
    Grid1D,
    Grid2D,
    SemiDiscreteProblem,
    upwind1d,
    advection1d_weno5,
    burgers_llf,
    advection2d,
    norms,
)
from .stepper import (
    IntegrationRun,
    IntegrationResult,
    IntegrationDiverged,
    prk_step,
    integrate,
    reference_integrate,
)
from .analysis import (
    LinearSplitting,
    ErrorOperators,
    build_error_operators,
    solve_W,
    stability_check,
    predicted_local_error,
)

__version__ = "0.1.0"
