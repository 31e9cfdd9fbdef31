"""Stability checking and side-wise comparison of stable assignments."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .choice import ChoiceOutcome, _rechoose, prefers
from .model import (
    Instance,
    InstanceError,
    InvariantError,
    full_assignment,
    validate_assignment,
    vertex_load,
)


@dataclass
class StabilityReport:
    stable: bool
    blocking_edges: list[str]          # canonical edge-id order
    fully_filled: frozenset[str]       # vertices with load exactly at quota
    outcomes: dict[str, ChoiceOutcome]  # per-vertex choice at x


def stability_report(
    inst: Instance,
    x: Mapping[str, Fraction],
    known: Optional[Mapping[str, ChoiceOutcome]] = None,
) -> StabilityReport:
    """Blocking-edge analysis of an admissible, stationary assignment.

    An edge blocks when it is below capacity and sits in the tail of the
    choice at *both* endpoints.  An equivalent formulation — every
    below-capacity edge must have a fully filled endpoint that keeps it in its
    head or strictly below its critical tie — is evaluated independently and
    the two are checked to agree (`InvariantError` otherwise).

    `known` holds choice outcomes already known at x, `choose(inst, v, x)` for
    each vertex v it names; only the other vertices choose.  The solvers pass
    three kinds, each resting on an equal input: (a) the last proposal
    round's outcomes at the point it returns; (b) the outcomes at the end of
    the route that normalises that point, valid in either orientation since a
    choice reads nothing `Instance.swapped` changes; (c) after a rotation
    shift, the previous state's outcomes at every vertex off the shifted
    edges.  Every check below runs on known outcomes as on fresh ones.

    Admissibility with `known`: a choice never exceeds the quota, so a
    vertex whose known outcome equals x on its edges (stationarity, checked
    below) is quota-feasible.  The box is screened per edge and loads are
    summed only at the vertices that choose afresh; a vertex whose known
    outcome is not stationary may hide an overload, so any failure, of
    admissibility or of stationarity, runs the full `validate_assignment`
    first and reports exactly what a call without `known` reports.  Without
    `known` the full validation runs up front, before any choice.
    """
    x = full_assignment(inst, x)
    if not (known and _screen_admissible(inst, x, known)):
        _require_admissible(inst, x)
    outcomes = _rechoose(inst, inst.vertices(), x, known or {})
    for v, out in outcomes.items():
        xv = {e: x[e] for e in inst.incident[v]}
        if out.result != xv:
            if known:
                _require_admissible(inst, x)
            raise InstanceError(f"assignment not stationary at vertex {v!r}")

    blocking = []
    for eid in inst.edge_ids:
        e = inst.edge_by_id[eid]
        # x is in the box and capacities are positive: the capacity object
        # itself is saturated and 0 is not; other values compare by value
        val, cap = x[eid], e.capacity
        if val is cap or (val.numerator and val >= cap):
            continue
        in_both_tails = eid in outcomes[e.firm].tail and eid in outcomes[e.worker].tail
        # second route: some endpoint is fully filled and holds the edge in
        # its head or past its critical tie
        excused = False
        for v in (e.firm, e.worker):
            out = outcomes[v]
            if out.deficit:
                continue
            if eid in out.head:
                excused = True
            else:
                tie = inst.tie_index[(v, eid)]
                if tie > out.critical_tie:
                    excused = True
        if in_both_tails == excused:
            raise InvariantError(f"blocking characterizations disagree on edge {eid!r}")
        if in_both_tails:
            blocking.append(eid)

    # x is stationary, so each load is the size of the vertex's choice: the
    # quota exactly unless the choice is in deficit
    return StabilityReport(
        stable=not blocking,
        blocking_edges=blocking,
        fully_filled=frozenset(v for v in inst.vertices() if not outcomes[v].deficit),
        outcomes=outcomes,
    )


def _require_admissible(inst: Instance, x: Mapping[str, Fraction]) -> None:
    violations = validate_assignment(inst, x)
    if violations:
        raise InstanceError("assignment not admissible: " + "; ".join(violations))


def _screen_admissible(
    inst: Instance, x: Mapping[str, Fraction], known: Mapping[str, ChoiceOutcome]
) -> bool:
    """x lies in the box, and no vertex missing from `known` is overloaded."""
    for e in inst.edges:
        # capacities are positive, so 0 and the capacity itself are in the box
        val, cap = x[e.id], e.capacity
        n = val.numerator
        if n < 0 or (n and val is not cap and val > cap):
            return False
    for v in inst.vertices():
        if v not in known and vertex_load(inst, x, v) > inst.quota[v]:
            return False
    return True


def compare_stable(
    inst: Instance,
    x: Mapping[str, Fraction],
    y: Mapping[str, Fraction],
    side: str = "firms",
) -> bool:
    """Does every vertex on `side` weakly prefer x to y?

    Both assignments must be stable.  Every vertex on `side` is compared, so
    each runs the cross-check of `prefers`.  When the comparison holds, the
    converse relation on the opposite side is checked (preferring more on one
    side means conceding on the other).
    """
    if side not in ("firms", "workers"):
        raise ValueError(f"side must be 'firms' or 'workers', got {side!r}")
    for name, z in (("x", x), ("y", y)):
        if not stability_report(inst, z).stable:
            raise InstanceError(f"compare_stable: assignment {name} is not stable")
    vertices = inst.firms if side == "firms" else inst.workers
    holds = all([prefers(inst, v, x, y) for v in vertices])
    if holds:
        other = inst.workers if side == "firms" else inst.firms
        if not all(prefers(inst, v, y, x) for v in other):
            raise InvariantError(
                "polarity violated: opposite side does not prefer the other assignment"
            )
    return holds
