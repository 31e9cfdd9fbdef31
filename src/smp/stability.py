"""Stability checking and side-wise comparison of stable assignments."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .choice import ChoiceOutcome, _rechoose, prefers
from .model import (
    Instance,
    InstanceError,
    InvariantError,
    full_assignment,
    validate_assignment,
)


class StabilityReport(NamedTuple):
    stable: bool
    blocking_edges: list[str]          # canonical edge-id order
    fully_filled: frozenset[str]       # vertices with load exactly at quota
    outcomes: dict[str, ChoiceOutcome]  # per-vertex choice at x
    unsaturated: frozenset[str]        # edges e with x_e below capacity


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
    each vertex v it names; only the other vertices choose.  The library
    passes three kinds, each resting on an equal input: (a) the proposal
    rounds' outcomes at the point the solver returns, the terminal round's
    or the aggregation step's kept workers', valid in either orientation
    since a choice reads nothing `Instance.swapped` changes; (b) after a
    rotation shift, the previous state's outcomes at every vertex off the
    shifted edges; (c) the outcomes of the report that a state cache holds
    for this exact x, which `gamma`'s check reads.  Every check below runs
    on known outcomes as on fresh ones.  A finished report is not rebuilt:
    a route that starts from one (x_min's, the aggregated point's, the depot
    seed's) hands it to `build_active_structure` as it is.

    Admissibility, with or without `known`, is the box screen per edge and
    then the choices themselves; no load is summed.  The screen compares
    each value with its capacity once: it rejects a value outside the box
    and collects the edges below capacity, which the blocking test and
    `build_active_structure` read.  For x in the box the
    choice at v returns x on v's edges exactly when v's load is within its
    quota: in deficit v takes everything; at exactly the quota the critical
    tie is the last one with a nonzero value and its target is its whole
    sum, so the cutting height is its maximum and nothing is cut; above the
    quota the choice sums to the quota, so it differs from x.  Every overload
    is thus a vertex that is not stationary, and any such vertex runs
    `validate_assignment` before the stationarity error, so a rejection
    carries the full list of violations whether or not `known` was given.
    """
    x = full_assignment(inst, x)
    below = _screen_box(inst, x)
    outcomes = _rechoose(inst, inst.vertices(), x, known or {})
    for v, out in outcomes.items():
        xv = {e: x[e] for e in inst.incident[v]}
        if out.result != xv:
            # an overload is never stationary: name it as a full validation
            _require_admissible(inst, x)
            raise InstanceError(f"assignment not stationary at vertex {v!r}")

    blocking = []
    for eid in below:
        e = inst.edge_by_id[eid]
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
        unsaturated=frozenset(below),
    )


def _require_admissible(inst: Instance, x: Mapping[str, Fraction]) -> None:
    violations = validate_assignment(inst, x)
    if violations:
        raise InstanceError("assignment not admissible: " + "; ".join(violations))


def _screen_box(inst: Instance, x: Mapping[str, Fraction]) -> list[str]:
    """The edges with 0 <= x_e < capacity, in edge-id order, for x in the box.

    A value outside the box raises the full validation's `InstanceError`.
    Capacities are positive, so 0 is below one and the capacity object
    itself is not; any other value is compared with its capacity once, and
    only a value not below it is compared again, for equality.
    """
    below = []
    for eid in inst.edge_ids:
        val, cap = x[eid], inst.edge_by_id[eid].capacity
        n = val.numerator
        if not n:
            below.append(eid)
        elif val is not cap:
            if n > 0 and val < cap:
                below.append(eid)
            elif val != cap:  # negative, or above the capacity
                _require_admissible(inst, x)  # raises: the box names the violation
    return below


def compare_stable(
    inst: Instance,
    x: Mapping[str, Fraction],
    y: Mapping[str, Fraction],
) -> bool:
    """Does every firm weakly prefer x to y?  For the workers, pass
    `inst.swapped()`.

    Both assignments must be stable.  Every firm is compared, so each runs
    the cross-check of `prefers`.  When the comparison holds, the converse
    relation on the workers is checked (preferring more on one side means
    conceding on the other).
    """
    for name, z in (("x", x), ("y", y)):
        if not stability_report(inst, z).stable:
            raise InstanceError(f"compare_stable: assignment {name} is not stable")
    holds = all([prefers(inst, f, x, y) for f in inst.firms])
    if holds and not all(prefers(inst, w, y, x) for w in inst.workers):
        raise InvariantError(
            "polarity violated: opposite side does not prefer the other assignment"
        )
    return holds
