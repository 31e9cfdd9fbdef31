"""Stable assignments with mixed choice functions on capacitated bipartite graphs.

Exact rational arithmetic throughout: side-optimal stable assignments,
rotations and their poset, the closed-function lattice, and minimum-cost
stable assignments via min-cut.
"""

from .choice import ChoiceOutcome, choose, prefers
from .iteration import (
    IterationState,
    build_extended_instance,
    initial_state,
    ordinary_iteration_step,
    solve_quota_filling,
    solve_xmax,
    solve_xmin_modified,
)
from .mincost import MinCostResult, assignment_cost, min_cost_stable
from .model import (
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    SolverLimitError,
    format_rational,
    full_assignment,
    parse_assignment,
    parse_instance,
    parse_rational,
    serialize_assignment,
    serialize_instance,
    validate_assignment,
    vertex_load,
)
from .poset import (
    RotationPoset,
    build_poset,
    enumerate_fully_closed,
    gamma,
    grid_sublattice,
    is_closed,
    omega,
    stable_join_workers,
    stable_meet_workers,
)
from .rotations import (
    ActiveStructure,
    Rotation,
    Route,
    applicable_rotations,
    apply_shift,
    build_active_structure,
    extract_rotation,
    max_weight,
    maximal_components,
    run_route,
)
from .stability import StabilityReport, compare_stable, stability_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
