"""Rotations: the exact directions along which a stable assignment can move.

Given a stable assignment x, each fully filled worker w can only concede by
decreasing uniformly on its head H_w, and each fully filled firm f can only
gain by increasing uniformly on a "potential head" D_f (the best tie holding
an unsaturated edge that its worker would welcome).  `ActiveStructure.heads`
holds both.  After a cleaning pass removes vertices pinned by deficit
neighbours, the remaining active edges form a digraph whose sink strong
components each carry a unique (up to scale) balanced circulation — the
rotation.  A vertex lies in a sink component exactly when every vertex it
reaches reaches it back, and the component is then the set it reaches.  The
cleaning and the check that a support is connected are each one
reachability walk (`_reach`); the sink components take one forward walk from
each vertex not yet classified, and one backward walk inside its reach set
unless that set meets a classified vertex.  A rotation is its `int` vector
on the edges and its maximal weight τ: the vector is positive on the D_f
and negative on the H_w of its component, whose vertices are the endpoints
of its support.  Shifting x by λ·ρ for 0 < λ ≤ τ yields a new stable assignment
strictly worse for firms, better for workers.  Repeating full-weight shifts
down to the worker optimum is a route (`run_route`).

Both steps stay in integers until their result.  τ is the smallest of
candidate bounds (a - b) / d, held as `int` numerators over one common
denominator with positive `int` divisors d and compared by
cross-multiplication (`max_weight`).  A shift writes each new value
x_e + λ·v as one `Fraction` over lcm(d_x, d_λ), the denominators of x_e
and λ (`_add_shift`, shared with `poset.gamma`); λ must be an `int` or a
`Fraction`.

Every state of a route is analysed once, from choice outcomes, and a
vertex chooses again only where its input may have changed.  Three
equal-input arguments say where it has not:

(a) the solver hands on what it knows at the stable point it returns (see
    `iteration`): the last proposal round's outcomes, or the aggregated
    point's `StabilityReport`.  That starts the route that normalises the
    point in the swapped instance: a choice reads only the incident edges,
    quota and ties, which `Instance.swapped` keeps, and the blocking test,
    `fully_filled` and `unsaturated` treat both endpoints of an edge alike,
    so a report made in `inst.swapped()` is the report in `inst`;
(b) the report at the end of that route is the report at x_min, so the
    routes from x_min (`solve_xmax`, the base route of `build_poset`) start
    from it and analyse x_min no further;
(c) a shift changes x only on the rotation's support, so the next state
    keeps every outcome off the support's endpoints (`_carried_outcomes`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .choice import ChoiceOutcome
from .linalg import integer_nullspace
from .model import Instance, InstanceError, InvariantError, _exact, full_assignment
from .stability import StabilityReport, compare_stable, stability_report


class ActiveStructure(NamedTuple):
    """The analysis of a stable x that rotations are built from.

    `heads` maps each fully filled firm f to D_f, possibly empty, and each
    fully filled worker w to H_w; the active digraph has an arc v -> u for
    every edge vu in `heads[v]`, v regular.
    """

    report: StabilityReport             # the stability analysis of x
    heads: dict[str, frozenset[str]]    # F^= -> D_f, W^= -> H_w
    regular: frozenset[str]             # V+ = V^= - V0


class Rotation(NamedTuple):
    """A rotation: positive on the D_f and negative on the H_w of its component."""

    values: dict[str, int]  # support edge id -> nonzero integer
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
    known: Optional[StabilityReport | Mapping[str, ChoiceOutcome]] = None,
) -> ActiveStructure:
    """The heads D_f and H_w and the cleaned regular vertex set at stable x.

    x is a full assignment (one `Fraction` per edge, see `full_assignment`).
    `known` is what is already known at x: its `StabilityReport`, which is
    used as it is, or some vertices' choice outcomes (see `stability_report`).
    """
    report = known if isinstance(known, StabilityReport) else stability_report(inst, x, known)
    if not report.stable:
        raise InstanceError(f"assignment is not stable (blocking: {report.blocking_edges})")
    outcomes = report.outcomes
    fully = report.fully_filled
    unsaturated = report.unsaturated

    heads = {w: outcomes[w].head for w in inst.workers if w in fully}
    for f in inst.firms:
        if f not in fully:
            continue
        heads[f] = frozenset()
        for tie in inst.corteges[f]:
            # a tie holding an unsaturated edge to a deficit worker blocks
            # this tie and every worse one from being a potential head
            if any(
                e in unsaturated and inst.edge_by_id[e].other(f) not in fully
                for e in tie
            ):
                break
            candidates = frozenset(
                e for e in tie
                if e in unsaturated and e in outcomes[inst.edge_by_id[e].other(f)].tail
            )
            if candidates:
                heads[f] = candidates
                break

    # cleaning: a vertex is pinned when its head is empty or leads to a
    # deficit vertex, where no change of x is possible (a worker's head is
    # never empty, as quotas are positive, and a firm's leads to fully filled
    # workers); the singular vertices are those whose heads lead, transitively,
    # to a pinned one, so the pinned vertices reach them backwards along `into`
    into: dict[str, list[str]] = {}  # u -> the vertices whose head has an edge at u
    pinned = []
    for v, edges in heads.items():
        ends = [inst.edge_by_id[e].other(v) for e in edges]
        if not ends or not fully.issuperset(ends):
            pinned.append(v)
        for u in ends:
            into.setdefault(u, []).append(v)
    singular = _reach(into, pinned)
    regular = frozenset(fully - singular)
    for v in regular:
        if not heads[v]:
            raise InvariantError(f"regular vertex {v!r} with empty head")
        if any(inst.edge_by_id[e].other(v) not in regular for e in heads[v]):
            raise InvariantError(f"head of regular vertex {v!r} leaves the regular set")
    return ActiveStructure(report=report, heads=heads, regular=regular)


def _reach(succ: Mapping[str, Iterable[str]], start: Iterable[str]) -> set[str]:
    """The vertices reachable from `start` along `succ`, `start` included."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for u in succ.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def maximal_components(inst: Instance, act: ActiveStructure) -> list[tuple[str, ...]]:
    """Sink strong components of the active digraph, by smallest vertex id.

    The regular vertices are classified in sorted order, and a classified
    vertex starts no walk.  A vertex whose reach meets a classified vertex
    lies in no sink component: a sink component holds all it reaches, and
    every vertex of one is classified together.  Otherwise its reach set R
    is a sink component exactly when every vertex of R reaches it back,
    that is when a backward walk from it, inside R, covers R.  Each
    component is the sorted tuple of its vertex ids, found from its
    smallest, so the list comes out sorted.
    """
    succ = {v: [inst.edge_by_id[e].other(v) for e in act.heads[v]] for v in act.regular}
    pred: dict[str, list[str]] = {}
    for v, ends in succ.items():
        for u in ends:
            pred.setdefault(u, []).append(v)
    classified: set[str] = set()
    out = []
    for v in sorted(succ):
        if v in classified:
            continue
        comp = _reach(succ, [v])
        in_sink = comp.isdisjoint(classified) and comp <= _reach(
            {u: pred.get(u, ()) for u in comp}, [v]  # keyed by R: the walk stays in R
        )
        if not in_sink:
            classified.add(v)
            continue
        classified |= comp
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
    return out


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
    values: dict[str, int] = {}
    for i, v in enumerate(order):
        for e in act.heads[v]:
            if e in values:
                raise InvariantError(f"edge {e!r} active on both sides")
            values[e] = gen[i] if i < nfirms else -gen[i]
    _check_rotation_invariants(inst, values)
    return Rotation(values, max_weight(inst, x, values, act))


def _check_rotation_invariants(inst: Instance, values: Mapping[str, int]) -> None:
    # a vertex off the support has net change 0
    net: dict[str, int] = {}
    for e, v in values.items():
        edge = inst.edge_by_id[e]
        net[edge.firm] = net.get(edge.firm, 0) + v
        net[edge.worker] = net.get(edge.worker, 0) + v
    for v in inst.vertices():
        if net.get(v, 0) != 0:
            raise InvariantError(f"rotation not conserved at {v!r}")
    # one value on each D_f (the positive edges at f) and on each H_w (the
    # negative edges at w); a zero is left to the integrality check below
    raised: dict[str, set[int]] = {}
    dropped: dict[str, set[int]] = {}
    for e, v in values.items():
        edge = inst.edge_by_id[e]
        if v > 0:
            raised.setdefault(edge.firm, set()).add(v)
        elif v < 0:
            dropped.setdefault(edge.worker, set()).add(v)
    for f, vals in raised.items():
        if len(vals) != 1:
            raise InvariantError(f"rotation not aligned at firm {f!r}")
    for w, vals in dropped.items():
        if len(vals) != 1:
            raise InvariantError(f"rotation not aligned at worker {w!r}")
    g = 0
    for e, v in values.items():
        if v.denominator != 1 or not v.numerator:
            raise InvariantError(f"rotation value on edge {e!r} not a nonzero integer")
        g = gcd(g, v.numerator)
    if g != 1:
        raise InvariantError("rotation values not coprime")
    # support connectivity; `net` is keyed by the support's endpoints, and
    # the support is not empty (an empty one has no gcd 1)
    adj: dict[str, list[str]] = {}
    for e in values:
        edge = inst.edge_by_id[e]
        adj.setdefault(edge.firm, []).append(edge.worker)
        adj.setdefault(edge.worker, []).append(edge.firm)
    if _reach(adj, [min(net)]) != set(net):
        raise InvariantError("rotation support is disconnected")


def max_weight(
    inst: Instance,
    x: Mapping[str, Fraction],
    values: Mapping[str, int],
    act: ActiveStructure,
) -> Fraction:
    """Largest λ for which x + λ·ρ stays stable, ρ the rotation vector
    `values`; x is a full assignment.

    Each candidate is (a - b) / d for two values a, b of x or the capacities
    and a positive `int` d.  The values are held as `int` numerators over
    one common denominator, the smallest candidate is found by
    cross-multiplication, and only τ itself is built as a `Fraction`.
    """
    zero = (0, 1)
    terms = []  # (a, b, d) as (numerator, denominator) pairs and an int
    for e, v in values.items():
        edge = inst.edge_by_id[e]
        xe = x[e].as_integer_ratio()
        if v > 0:
            terms.append((edge.capacity.as_integer_ratio(), xe, v))
            continue
        # e is in H_w: the shift stops where x[e] runs out or falls to an
        # edge of w's critical tie outside the head; such an edge is never
        # in H_w, so its value is 0 or positive and the divisor positive
        terms.append((xe, zero, -v))
        out = act.report.outcomes[edge.worker]
        for ep in inst.corteges[edge.worker][out.critical_tie]:
            if ep not in out.head:
                terms.append((xe, x[ep].as_integer_ratio(), values.get(ep, 0) - v))
    den = lcm(*(q for a, b, _ in terms for q in (a[1], b[1])))
    best_n, best_d = None, 1
    for (an, ad), (bn, bd), d in terms:
        n = an * (den // ad) - bn * (den // bd)
        if best_n is None or n * best_d < best_n * d:
            best_n, best_d = n, d
    if best_n <= 0:
        raise InvariantError("maximal admissible weight must be positive")
    return Fraction(best_n, best_d * den)


def _add_shift(x: dict[str, Fraction], values: Mapping[str, int], lam: Fraction) -> None:
    """x[e] += λ·v for each support value v, in place: each new value is one
    `Fraction` over lcm(d_x, d_λ), with d_x and d_λ the denominators of x[e]
    and λ."""
    ln, ld = lam.as_integer_ratio()
    for e, v in values.items():
        xn, xd = x[e].as_integer_ratio()
        den = lcm(xd, ld)
        x[e] = Fraction(xn * (den // xd) + ln * v * (den // ld), den)


def apply_shift(
    inst: Instance,
    x: Mapping[str, Fraction],
    rotations: Sequence[Rotation],
    lam: Sequence[Fraction],
    verify: bool = True,
) -> dict[str, Fraction]:
    """x + Σ λ_i · ρ_i for vertex-disjoint rotations, 0 < λ_i ≤ τ_i.

    x is a full assignment, and each λ_i an `int` or a `Fraction` (a float
    or a `bool` raises `ValueError`, as does a weight outside (0, τ_i]).
    With `verify`, the result is checked stable and strictly worse for the
    firm side (`InvariantError` otherwise).
    """
    if len(rotations) != len(lam):
        raise ValueError("one weight per rotation required")
    seen: set[str] = set()
    for rot, l in zip(rotations, lam):
        if _exact(l) is None:
            raise ValueError(f"weight {l!r} is not an int or a Fraction")
        if not (0 < l <= rot.tau):
            raise ValueError(f"weight {l} outside (0, {rot.tau}]")
        verts = set(endpoints(inst, rot.values))
        if seen & verts:
            raise ValueError("simultaneous rotations must be vertex-disjoint")
        seen |= verts
    xp = dict(x)
    for rot, l in zip(rotations, lam):
        _add_shift(xp, rot.values, l)
    if verify:
        if not stability_report(inst, xp).stable:
            raise InvariantError("shift broke stability")
        if not (compare_stable(inst, x, xp) and xp != x):
            raise InvariantError("shift is not a strict firm-side descent")
    return xp


class Route(NamedTuple):
    states: list[dict[str, Fraction]]
    steps: list[Rotation]  # each shifted by its full weight τ
    report: StabilityReport  # the stability analysis of the last state


def _state_key(inst: Instance, x: Mapping[str, Fraction]) -> tuple:
    """The state-cache key of the full assignment x: each value's numerator
    and denominator in lowest terms, in edge-id order.  Keys are equal
    exactly when the states are, and flat ints, so no `Fraction` is hashed."""
    return tuple(itertools.chain.from_iterable(x[e].as_integer_ratio() for e in inst.edge_ids))


def applicable_rotations(
    inst: Instance,
    x: Mapping[str, Fraction],
    cache: Optional[dict] = None,
    known: Optional[StabilityReport | Mapping[str, ChoiceOutcome]] = None,
) -> tuple[ActiveStructure, list[Rotation]]:
    """The active structure at the stable, full assignment x and one rotation
    per sink component.

    `cache`, when given, maps a state's `_state_key` to the result computed
    there, so a caller that revisits states builds each one once.  It must
    not outlive one instance; one command call owns it (`build_poset` makes
    one per call when it is given none).  `known` is what is already known at
    x (see `build_active_structure`); a cached state needs none.
    """
    if cache is not None:
        key = _state_key(inst, x)
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
    known: Optional[StabilityReport | Mapping[str, ChoiceOutcome]] = None,
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

    An unstable or inadmissible `start` is the caller's `InstanceError`; a
    later state that the analysis rejects was reached by the route's own
    shifts, so the rejection is an `InvariantError`.

    `known` is what is already known at `start`: its `StabilityReport`, or
    some vertices' choice outcomes.  A shift changes x only on the rotation's
    support, so each later state is analysed with the previous state's
    outcomes carried over everywhere else (`_carried_outcomes`); `choose`
    runs again only at the support's endpoints.  `Route.report` is the
    analysis of the last state, which a route from there can start from.
    """
    x = full_assignment(inst, start)
    states = [x]
    steps: list[Rotation] = []
    bound = 2 * len(inst.edges)
    while True:
        try:
            act, options = applicable_rotations(inst, x, cache, known)
        except InstanceError as exc:
            if not steps:  # the caller's start
                raise
            raise InvariantError(f"route state {len(steps)} rejected: {exc}") from exc
        if not options and act.regular:
            raise InvariantError("active edges left but no sink component")
        if avoid is not None:
            options = [r for r in options if r.key() != avoid]
        if not options:
            break
        rot = options[0] if rng is None else rng.choice(options)
        xp = apply_shift(inst, x, [rot], [rot.tau], verify=False)
        known = _carried_outcomes(inst, act.report.outcomes, rot.values)
        x = xp
        states.append(x)
        steps.append(rot)
        if len(steps) > bound:
            raise InvariantError(f"route exceeded {bound} shifts")
    return Route(states=states, steps=steps, report=act.report)
