"""Rotations: the exact directions along which a stable assignment can move.

Given a stable assignment x, each fully filled worker w can only concede by
decreasing uniformly on its head H_w, and each fully filled firm f can only
gain by increasing uniformly on a "potential head" D_f (the best tie holding
an unsaturated edge that its worker would welcome).  `ActiveStructure.heads`
holds both.  After a cleaning pass removes vertices pinned by deficit
neighbours, the remaining active edges form a digraph whose sink strong
components each carry a unique (up to scale) balanced circulation — the
rotation.  A rotation is its vector on the edges and its maximal weight τ:
the vector is positive on the D_f and negative on the H_w of its component,
whose vertices are the endpoints of its support.  Shifting x by λ·ρ for
0 < λ ≤ τ yields a new stable assignment strictly worse for firms, better for
workers.  Repeating full-weight shifts down to the worker optimum is a route
(`run_route`).

Every state of a route is analysed from choice outcomes, and a vertex
chooses again only where its input may have changed.  Three equal-input
arguments say where it has not:

(a) the last proposal round's outcomes are the choices at the stable point
    it returns (see `iteration`), and they start the route that normalises
    that point in the swapped instance — a choice reads only the incident
    edges, quota and ties, which `Instance.swapped` keeps;
(b) the outcomes at the end of that route are the choices at x_min, so the
    routes from x_min (`solve_xmax`, the base route of `build_poset`) start
    from them;
(c) a shift changes x only on the rotation's support, so the next state
    keeps every outcome off the support's endpoints (`_carried_outcomes`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .choice import ChoiceOutcome
from .linalg import integer_nullspace
from .model import Instance, InstanceError, InvariantError, full_assignment
from .stability import compare_stable, stability_report


@dataclass
class ActiveStructure:
    """The analysis of a stable x that rotations are built from.

    `heads` maps each fully filled firm f to D_f, possibly empty, and each
    fully filled worker w to H_w; the active digraph has an arc v -> u for
    every edge vu in `heads[v]`, v regular.
    """

    outcomes: dict[str, ChoiceOutcome]  # per-vertex choice at x
    heads: dict[str, frozenset[str]]    # F^= -> D_f, W^= -> H_w
    regular: frozenset[str]             # V+ = V^= - V0


@dataclass
class Rotation:
    """A rotation: positive on the D_f and negative on the H_w of its component."""

    values: dict[str, Fraction]  # support edge id -> nonzero integer Fraction
    tau: Fraction

    def key(self) -> tuple:
        """Identity of the rotation: its exact integer vector over the edges."""
        return tuple(sorted(self.values.items()))


def endpoints(inst: Instance, edges: Iterable[str]) -> list[str]:
    """The sorted vertices incident to `edges`; of a support, its component."""
    out = set()
    for e in edges:
        edge = inst.edge_by_id[e]
        out.add(edge.firm)
        out.add(edge.worker)
    return sorted(out)


def build_active_structure(
    inst: Instance,
    x: Mapping[str, Fraction],
    known: Optional[Mapping[str, ChoiceOutcome]] = None,
) -> ActiveStructure:
    """The heads D_f and H_w and the cleaned regular vertex set at stable x.

    x is a full assignment (one `Fraction` per edge, see `full_assignment`).
    `known` holds choice outcomes already known at x; see `stability_report`.
    """
    report = stability_report(inst, x, known)
    if not report.stable:
        raise InstanceError(f"assignment is not stable (blocking: {report.blocking_edges})")
    outcomes = report.outcomes
    fully = report.fully_filled

    def unsaturated(eid: str) -> bool:
        # capacities are positive, so 0 is below one and the capacity is not
        cap, val = inst.edge_by_id[eid].capacity, x[eid]
        return not val.numerator or (val is not cap and val < cap)

    heads = {w: outcomes[w].head for w in inst.workers if w in fully}
    for f in inst.firms:
        if f not in fully:
            continue
        heads[f] = frozenset()
        for tie in inst.corteges[f]:
            # a tie holding an unsaturated edge to a deficit worker blocks
            # this tie and every worse one from being a potential head
            if any(
                unsaturated(e) and inst.edge_by_id[e].other(f) not in fully
                for e in tie
            ):
                break
            candidates = frozenset(
                e for e in tie
                if unsaturated(e) and e in outcomes[inst.edge_by_id[e].other(f)].tail
            )
            if candidates:
                heads[f] = candidates
                break

    # cleaning: remove vertices whose head is empty or leads (transitively)
    # to a vertex where no change of x is possible; a worker's head is never
    # empty (quotas are positive) and a firm's leads to fully filled workers
    singular: set[str] = set()
    pending = [
        v for v, edges in heads.items()
        if not edges or any(inst.edge_by_id[e].other(v) not in fully for e in edges)
    ]
    while pending:
        v = pending.pop()
        if v in singular:
            continue
        singular.add(v)
        for u, edges in heads.items():
            if u not in singular and any(inst.edge_by_id[e].other(u) == v for e in edges):
                pending.append(u)
    regular = frozenset(fully - singular)
    for v in regular:
        if not heads[v]:
            raise InvariantError(f"regular vertex {v!r} with empty head")
        if any(inst.edge_by_id[e].other(v) not in regular for e in heads[v]):
            raise InvariantError(f"head of regular vertex {v!r} leaves the regular set")
    return ActiveStructure(outcomes=outcomes, heads=heads, regular=regular)


def _tarjan_scc(vertices: Sequence[str], succ: Mapping[str, Sequence[str]]) -> list[set[str]]:
    """Iterative Tarjan; yields strongly connected components."""
    counter = itertools.count()
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    for root in vertices:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = lowlink[v] = next(counter)
                stack.append(v)
                on_stack.add(v)
            recurse = False
            neighbours = succ.get(v, ())
            for i in range(pi, len(neighbours)):
                u = neighbours[i]
                if u not in index:
                    work.append((v, i + 1))
                    work.append((u, 0))
                    recurse = True
                    break
                if u in on_stack:
                    lowlink[v] = min(lowlink[v], index[u])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                scc = set()
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    scc.add(u)
                    if u == v:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def _active_digraph(inst: Instance, act: ActiveStructure) -> dict[str, list[str]]:
    return {
        v: sorted(inst.edge_by_id[e].other(v) for e in act.heads[v])
        for v in sorted(act.regular)
    }


def maximal_components(inst: Instance, act: ActiveStructure) -> list[tuple[str, ...]]:
    """Sink strong components of the active digraph, by smallest vertex id.

    Each component is the sorted tuple of its vertex ids.
    """
    succ = _active_digraph(inst, act)
    comps = _tarjan_scc(list(succ), succ)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    out = []
    for i, comp in enumerate(comps):
        if any(comp_of[u] != i for v in comp for u in succ[v]):
            continue
        if comp <= inst.firm_set or comp <= inst.worker_set:
            # an isolated vertex cannot arise: every regular vertex has an
            # outgoing active edge, so sink components are genuine cycles
            raise InvariantError(f"degenerate sink component {sorted(comp)}")
        out.append(tuple(sorted(comp)))
    # supports of distinct sink components never share a vertex
    seen: set[str] = set()
    for comp in out:
        overlap = seen & set(comp)
        if overlap:
            raise InvariantError(f"sink components share vertices {sorted(overlap)}")
        seen |= set(comp)
    return sorted(out)


def extract_rotation(
    inst: Instance,
    x: Mapping[str, Fraction],
    comp: Sequence[str],
    act: ActiveStructure,
) -> Rotation:
    """Solve the balance system on a sink component and assemble the rotation.

    Per firm f the increase is a single unknown φ_f spread over D_f; per
    worker w the decrease is ψ_w spread over H_w.  Conservation at every
    vertex gives a homogeneous system whose solution space must be a line;
    its positive integer generator with gcd 1 defines the rotation values,
    stored on the support only (the edges of the D_f and H_w).  x is a full
    assignment.
    """
    # firms first, then workers, each in the component's (sorted) order
    order = [v for v in comp if v in inst.firm_set]
    nfirms = len(order)
    order += [v for v in comp if v not in inst.firm_set]
    var_index = {v: i for i, v in enumerate(order)}
    rows: list[dict[int, int]] = []
    for v in order:
        row = {var_index[v]: len(act.heads[v])}
        for e in inst.incident[v]:
            u = inst.edge_by_id[e].other(v)
            if u in var_index and e in act.heads[u]:
                row[var_index[u]] = row.get(var_index[u], 0) - 1
        rows.append(row)
    basis = integer_nullspace(rows, len(order))
    if len(basis) != 1:
        raise InvariantError(f"balance system nullspace has dimension {len(basis)}, expected 1")
    gen = basis[0]
    if not all(v > 0 for v in gen):
        raise InvariantError("balance solution not strictly positive on the component")
    values: dict[str, Fraction] = {}
    for i, v in enumerate(order):
        for e in act.heads[v]:
            if e in values:
                raise InvariantError(f"edge {e!r} active on both sides")
            values[e] = Fraction(gen[i] if i < nfirms else -gen[i])
    rot = Rotation(values=values, tau=Fraction(0))  # tau filled in below
    _check_rotation_invariants(inst, rot)
    rot.tau = max_weight(inst, x, rot, act)
    return rot


def _check_rotation_invariants(inst: Instance, rot: Rotation) -> None:
    # a vertex off the support has net change 0
    net: dict[str, Fraction] = {}
    for e, v in rot.values.items():
        edge = inst.edge_by_id[e]
        net[edge.firm] = net.get(edge.firm, 0) + v
        net[edge.worker] = net.get(edge.worker, 0) + v
    for v in inst.vertices():
        if net.get(v, 0) != 0:
            raise InvariantError(f"rotation not conserved at {v!r}")
    # one value on each D_f (the positive edges at f) and on each H_w (the
    # negative edges at w); a zero is left to the integrality check below
    raised: dict[str, set[Fraction]] = {}
    dropped: dict[str, set[Fraction]] = {}
    for e, v in rot.values.items():
        edge = inst.edge_by_id[e]
        if v.numerator > 0:
            raised.setdefault(edge.firm, set()).add(v)
        elif v.numerator < 0:
            dropped.setdefault(edge.worker, set()).add(v)
    for f, vals in raised.items():
        if len(vals) != 1:
            raise InvariantError(f"rotation not aligned at firm {f!r}")
    for w, vals in dropped.items():
        if len(vals) != 1:
            raise InvariantError(f"rotation not aligned at worker {w!r}")
    g = 0
    for e, v in rot.values.items():
        if v.denominator != 1 or not v.numerator:
            raise InvariantError(f"rotation value on edge {e!r} not a nonzero integer")
        g = gcd(g, v.numerator)
    if g != 1:
        raise InvariantError("rotation values not coprime")
    # support connectivity; `net` is keyed by the support's endpoints, and
    # the support is not empty (an empty one has no gcd 1)
    seen = set()
    stack = [min(net)]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for e in rot.values:
            edge = inst.edge_by_id[e]
            if v in (edge.firm, edge.worker):
                stack.append(edge.other(v))
    if seen != set(net):
        raise InvariantError("rotation support is disconnected")


def max_weight(
    inst: Instance,
    x: Mapping[str, Fraction],
    rot: Rotation,
    act: ActiveStructure,
) -> Fraction:
    """Largest λ for which x + λ·rot stays stable; x is a full assignment."""
    candidates: list[Fraction] = []
    for e, v in rot.values.items():
        edge = inst.edge_by_id[e]
        if v.numerator > 0:
            candidates.append((edge.capacity - x[e]) / v)
            continue
        # e is in H_w: the shift stops where x[e] runs out or falls to an
        # edge of w's critical tie outside the head
        candidates.append(x[e] / -v)
        out = act.outcomes[edge.worker]
        for ep in inst.corteges[edge.worker][out.critical_tie]:
            if ep not in out.head:
                candidates.append((x[e] - x[ep]) / (rot.values.get(ep, 0) - v))
    tau = min(candidates)
    if tau.numerator <= 0:
        raise InvariantError("maximal admissible weight must be positive")
    return tau


def apply_shift(
    inst: Instance,
    x: Mapping[str, Fraction],
    rotations: Sequence[Rotation],
    lam: Sequence[Fraction],
    verify: bool = True,
) -> dict[str, Fraction]:
    """x + Σ λ_i · ρ_i for vertex-disjoint rotations, 0 < λ_i ≤ τ_i.

    x is a full assignment.  With `verify`, the result is checked stable and
    strictly worse for the firm side (`InvariantError` otherwise).
    """
    if len(rotations) != len(lam):
        raise ValueError("one weight per rotation required")
    seen: set[str] = set()
    for rot, l in zip(rotations, lam):
        if not (0 < l <= rot.tau):
            raise ValueError(f"weight {l} outside (0, {rot.tau}]")
        verts = set(endpoints(inst, rot.values))
        if seen & verts:
            raise ValueError("simultaneous rotations must be vertex-disjoint")
        seen |= verts
    xp = dict(x)
    for rot, l in zip(rotations, lam):
        for e, v in rot.values.items():
            xp[e] = xp[e] + l * v
    if verify:
        if not stability_report(inst, xp).stable:
            raise InvariantError("shift broke stability")
        if not (compare_stable(inst, x, xp, side="firms").holds and xp != x):
            raise InvariantError("shift is not a strict firm-side descent")
    return xp


@dataclass
class Route:
    states: list[dict[str, Fraction]]
    steps: list[Rotation]  # each shifted by its full weight τ
    outcomes: dict[str, ChoiceOutcome]  # per-vertex choice at the last state

    @property
    def non_expensive(self) -> bool:
        keys = [rot.key() for rot in self.steps]
        return len(keys) == len(set(keys))


def applicable_rotations(
    inst: Instance,
    x: Mapping[str, Fraction],
    cache: Optional[dict] = None,
    known: Optional[Mapping[str, ChoiceOutcome]] = None,
) -> tuple[ActiveStructure, list[Rotation]]:
    """The active structure at the stable, full assignment x and one rotation
    per sink component.

    `cache`, when given, maps a state to the result computed there, so a
    caller that revisits states builds each one once.  The key lists each
    value's numerator and denominator in lowest terms, in edge-id order: equal
    exactly when the states are, and flat ints, so no `Fraction` is hashed.
    It must not outlive one instance; `build_poset` makes one per call.
    `known` holds choice outcomes already known at x (see `stability_report`);
    a cached state needs none.
    """
    if cache is not None:
        key = tuple(itertools.chain.from_iterable(x[e].as_integer_ratio() for e in inst.edge_ids))
        if key in cache:
            return cache[key]
    act = build_active_structure(inst, x, known)
    comps = maximal_components(inst, act)
    result = act, [extract_rotation(inst, x, c, act) for c in comps]
    if cache is not None:
        cache[key] = result
    return result


def _carried_outcomes(
    inst: Instance,
    outcomes: Mapping[str, ChoiceOutcome],
    support: Iterable[str],
) -> dict[str, ChoiceOutcome]:
    """The outcomes at x that stay valid after a shift on `support`.

    A vertex's choice reads only its incident edges, so it carries over
    unless some edge at it changed value.  A shift by a positive weight
    changes x exactly on the rotation's support; the analysis after it
    chooses again at the support's endpoints and nowhere else.
    """
    moved = set(endpoints(inst, support))
    return {v: out for v, out in outcomes.items() if v not in moved}


def run_route(
    inst: Instance,
    start: Mapping[str, Fraction],
    rng=None,
    avoid: Optional[tuple] = None,
    cache: Optional[dict] = None,
    known: Optional[Mapping[str, ChoiceOutcome]] = None,
) -> Route:
    """Full-weight shifts from the stable assignment `start` to the end.

    `start` may leave out zero edges (missing keys read as 0); every state of
    the route is a full assignment.

    Without `avoid` the route ends at the worker optimum; the rotations
    applied and their weights do not depend on the order, and there are at
    most twice as many shifts as edges; a longer route raises
    `InvariantError`, with or without `avoid`.  With `avoid` set, the
    rotation with that vector (`Rotation.key()`) is never applied and the
    route stops once nothing else is applicable.  `rng` (a random.Random) picks among simultaneously
    applicable rotations; by default the first, by smallest vertex id.
    `cache` is passed to `applicable_rotations` at every state.

    `known` holds choice outcomes already known at `start`.  A shift changes
    x only on the rotation's support, so each later state is analysed with
    the previous state's outcomes carried over everywhere else
    (`_carried_outcomes`); `choose` runs again only at the support's
    endpoints.  `Route.outcomes` are the outcomes at the last state.
    """
    x = full_assignment(inst, start)
    states = [x]
    steps: list[Rotation] = []
    bound = 2 * len(inst.edges)
    while True:
        act, options = applicable_rotations(inst, x, cache, known)
        if not options and act.regular:
            raise InvariantError("active edges left but no sink component")
        if avoid is not None:
            options = [r for r in options if r.key() != avoid]
        if not options:
            break
        rot = options[0] if rng is None else rng.choice(options)
        xp = apply_shift(inst, x, [rot], [rot.tau], verify=False)
        known = _carried_outcomes(inst, act.outcomes, rot.values)
        x = xp
        states.append(x)
        steps.append(rot)
        if len(steps) > bound:
            raise InvariantError(f"route exceeded {bound} shifts")
    return Route(states=states, steps=steps, outcomes=act.outcomes)
