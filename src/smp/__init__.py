"""Stable assignments with mixed choice functions on capacitated bipartite graphs.

Exact rational arithmetic throughout: side-optimal stable assignments,
rotations and their poset, the closed-function lattice, and minimum-cost
stable assignments via min-cut.
"""

import sys

from .choice import ChoiceOutcome, choose, prefers
from .iteration import solve_quota_filling, solve_xmax, solve_xmin_modified
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

# the names imported above; the submodules that importing them binds here
# are reached as `smp.<module>`, not star-imported
__all__ = sorted(
    name for name, obj in globals().items() if name[0] != "_" and type(obj) is not type(sys)
)
__version__ = "0.1.0"
