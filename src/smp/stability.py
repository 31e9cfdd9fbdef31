"""Stability checking and side-wise comparison of stable assignments."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

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


def stability_report(inst: Instance, x: Mapping[str, Fraction]) -> StabilityReport:
    """Blocking-edge analysis of an admissible, stationary assignment.

    An edge blocks when it is below capacity and sits in the tail of the
    choice at *both* endpoints.  An equivalent formulation — every
    below-capacity edge must have a fully filled endpoint that keeps it in its
    head or strictly below its critical tie — is evaluated independently and
    the two are checked to agree (`InvariantError` otherwise).

    x is normalised by `full_assignment`; the analysis is `_stability_report`,
    with nothing known at x.
    """
    return _stability_report(inst, full_assignment(inst, x), known={})


def _stability_report(
    inst: Instance, x: Mapping[str, Fraction], *, known: Mapping[str, ChoiceOutcome]
) -> StabilityReport:
    """`stability_report` of the full assignment x (one `Fraction` per edge,
    see `full_assignment`), which is not normalised again.

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

    Admissibility, whatever is known, is the box screen per edge and
    then the choices themselves; no load is summed.  The screen compares
    each value with its capacity in `int`s, as cross-multiplied numerators
    and denominators (`_screen_box`): it rejects a value outside the box
    and collects the edges below capacity, which the blocking test and
    `build_active_structure` read.  For x in the box the
    choice at v returns x on v's edges exactly when v's load is within its
    quota: in deficit v takes everything; at exactly the quota the critical
    tie is the last one with a nonzero value and its target is its whole
    sum, so the cutting height is its maximum and nothing is cut; above the
    quota the choice sums to the quota, so it differs from x.  Every overload
    is thus a vertex that is not stationary, and any such vertex runs
    `validate_assignment` before the stationarity error, so a rejection
    carries the full list of violations whatever was known.
    """
    below = _screen_box(inst, x)
    outcomes = _rechoose(inst, inst.vertices(), x, known)
    incident = inst.incident
    for v, out in outcomes.items():
        if out.result != {e: x[e] for e in incident[v]}:
            # an overload is never stationary: name it as a full validation
            _require_admissible(inst, x)
            raise InstanceError(f"assignment not stationary at vertex {v!r}")

    blocking = []
    edge_by_id, tie_index = inst.edge_by_id, inst.tie_index
    for eid in below:
        e = edge_by_id[eid]
        f, w = e.firm, e.worker
        at_f, at_w = outcomes[f], outcomes[w]
        in_both_tails = eid in at_f.tail and eid in at_w.tail
        # second route: some endpoint is fully filled and holds the edge in
        # its head or past its critical tie
        excused = (
            not at_f.deficit and (eid in at_f.head or tie_index[f, eid] > at_f.critical_tie)
        ) or (
            not at_w.deficit and (eid in at_w.head or tie_index[w, eid] > at_w.critical_tie)
        )
        if in_both_tails == excused:
            raise InvariantError(f"blocking characterizations disagree on edge {eid!r}")
        if in_both_tails:
            blocking.append(eid)

    # x is stationary, so each load is the size of the vertex's choice: the
    # quota exactly unless the choice is in deficit
    return StabilityReport(
        stable=not blocking,
        blocking_edges=blocking,
        fully_filled=frozenset([v for v, out in outcomes.items() if not out.deficit]),
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
    Each value is read as its `int` numerator n and denominator d: n = 0 is
    below every capacity, as capacities are positive, and the capacity
    object itself is not below it; any other value is compared with its
    capacity c / q by the cross-multiplied `int`s n·q and c·d, which are
    equal exactly when the value is the capacity.
    """
    below = []
    edge_by_id = inst.edge_by_id
    for eid in inst.edge_ids:
        val = x[eid]
        n, d = val.as_integer_ratio()
        if not n:
            below.append(eid)
            continue
        cap = edge_by_id[eid].capacity
        if val is cap:
            continue
        c, q = cap.as_integer_ratio()
        lhs, rhs = n * q, c * d
        if n > 0 and lhs < rhs:
            below.append(eid)
        elif lhs != rhs:  # negative, or above the capacity
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
