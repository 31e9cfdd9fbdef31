"""Computing the side-optimal stable assignments.

Two routes are provided:

* the finite variant of the classical deferred-acceptance style iteration
  (firms propose up to the current bounds, workers cut back, bounds shrink).
  The classical iteration may fail to terminate on instances with ties,
  because the per-round progress can shrink geometrically; the variant
  detects rounds that make no combinatorial progress and aggregates the
  whole stalled tail into one exact LP step.  No function runs the classical
  iteration alone: `solve_xmin` is an alias of `solve_xmin_modified`;
* a combinatorial decision procedure for the special case where stable
  assignments fill every quota, via an auxiliary instance with two depot
  vertices absorbing all slack.

A round keeps every vertex's choice outcome in `IterationState.outcomes` and
calls `choose` again only at the vertices whose input changed since the
previous round (`choice._rechoose`); the progress marker and the aggregation
LP read their heads and critical ties from there instead of choosing again.

A round also touches only the edges at the vertices that choose again.  It
starts from copies of the previous x, y and bounds and writes each fresh
outcome into them.  A vertex that does not choose again keeps its stored
outcome, whose result its edges already hold: the previous round built x
and y from those results.  After an aggregation step no firm outcome is
stored, so every firm chooses again and every edge is touched; each stored
worker outcome is a choice from y at a worker the LP keeps exactly filled,
and a choice from an offer that sums to the quota returns the offer.  Then:

* The firms to choose again are those of the previous round's cut edges
  (`IterationState.cut`, the edges with y != x), since a bound dropped
  exactly there; the workers are those at which a fresh firm moved x.
* A worker that did not choose again has y = x on all its edges, so every
  cut edge lies at a fresh worker.  An edge cut in the previous round had
  its bound lowered to y < x, so its firm chose again and x dropped below
  the old value there, and its worker chose again too.  A worker with no
  such edge had y = x on its edges before, and neither side moved.
* b, x and y change only at fresh vertices' edges, so the check
  b >= x >= y >= 0 runs there; every other edge keeps values that already
  passed it.  `terminal` is still the full compare y == x, cross-checked
  against an empty cut.
* The progress marker marks again only the firms at which x or the bounds
  changed (`IterationState.changed_firms`).

The outcomes travel on past the rounds, each time by an equal-input argument
(the same three as in `rotations`):

(a) At a terminal ordinary round y = x, so a worker's stored choice, made
    from x, is its choice at x.  A firm's was made from the bounds b, and
    choosing again from x|f gives the same outcome in every field: the
    `_progress_marker` argument with y replaced by x.  After an aggregation
    step the stability test at y is built from the workers' choices made
    there, and its report holds every choice at y.  Either set starts the
    route that normalises the point in `inst.swapped()`: `choose` reads only
    `incident`, `quota` and `corteges`, which `swapped()` keeps.
(b) That route's outcomes at its end are the choices at x_min; `solve_xmax`,
    `smp solve --side workers` and `build_poset`'s base route start from
    them (`_solve_xmin`).
(c) Along every route a shift changes x only on the rotation's support, so
    only the support's endpoints choose again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .choice import ChoiceOutcome, _rechoose, choose
from .model import (
    ZERO,
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    SolverLimitError,
    vertex_load,
)
from .rotations import run_route
from .simplex import LinearProgram, simplex_maximize
from .stability import stability_report

MAX_STEPS_ENV = "SMP_MAX_STEPS"


def _step_cap(inst: Instance) -> int:
    override = os.environ.get(MAX_STEPS_ENV)
    if override:
        try:
            cap = int(override)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"${MAX_STEPS_ENV} must be a positive integer, got {override!r}")
        return cap
    return 10 * len(inst.edges)


@dataclass
class IterationState:
    round: int
    bounds: dict[str, Fraction]  # the next round's input bounds
    x: dict[str, Fraction]   # the firms' choices from the round's input bounds
    y: dict[str, Fraction]   # the workers' choices from `x`
    terminal: bool
    # the vertices whose choice fills the quota, and every vertex's choice: a
    # firm's from the round's input bounds (the previous state's `bounds`), a
    # worker's from `x`.  An aggregation step sets x = y to its point and keeps
    # only the fully filled workers' choices, made from `y`.
    fully_firms: frozenset[str] = frozenset()
    fully_workers: frozenset[str] = frozenset()
    outcomes: dict[str, ChoiceOutcome] = field(default_factory=dict)
    # the edges with y != x, and the firms at which x or the bounds differ
    # from the previous state's
    cut: frozenset[str] = frozenset()
    changed_firms: frozenset[str] = frozenset()


def initial_state(inst: Instance) -> IterationState:
    bounds = {e.id: e.capacity for e in inst.edges}
    return IterationState(
        round=-1, bounds=bounds, x=dict(bounds), y=dict(bounds), terminal=False
    )


def ordinary_iteration_step(inst: Instance, state: IterationState) -> IterationState:
    """One proposal/cut round: firms take up to the bounds, workers cut back.

    Wherever the workers' cut bites, the bound drops to the cut value, so
    firms cannot re-propose what was refused.  The round touches only the
    edges at the vertices that choose again (module docstring).
    """
    b = state.bounds
    edge = inst.edge_by_id
    prev = state.outcomes
    # The stored firm choices were made from the previous round's bounds, and
    # that round lowered a bound exactly on its cut edges.  A firm with no
    # such edge sees the same bounds as before.
    lowered = {edge[e].firm for e in state.cut}
    outcomes = _rechoose(inst, inst.firms, b, prev, lowered)
    fresh_firms = [f for f in inst.firms if outcomes[f] is not prev.get(f)]
    x = dict(state.x)
    moved: set[str] = set()  # the workers at which x changed
    changed: set[str] = set()  # the firms at which x or the bounds changed
    for f in fresh_firms:
        for e, val in outcomes[f].result.items():
            if val is not x[e] and val != x[e]:
                x[e] = val
                moved.add(edge[e].worker)
                changed.add(f)
    # the stored worker choices were made from the previous x
    outcomes.update(_rechoose(inst, inst.workers, x, prev, moved))
    fresh_workers = [w for w in inst.workers if outcomes[w] is not prev.get(w)]
    y = dict(state.y)
    for w in fresh_workers:
        y.update(outcomes[w].result)
    cut = frozenset(
        e for w in fresh_workers for e in inst.incident[w] if y[e] is not x[e] and y[e] != x[e]
    )
    new_bounds = dict(b)
    for e in cut:
        new_bounds[e] = y[e]
        changed.add(edge[e].firm)
    # b, x and y can have changed only here; every other edge keeps values
    # that passed this check in an earlier round.  A choice passes the values
    # it keeps through as the same objects, so `is` settles most comparisons
    # exactly.
    touched = {e for v in fresh_firms + fresh_workers for e in inst.incident[v]}
    for eid in touched:
        be, xe, ye, ne = b[eid], x[eid], y[eid], new_bounds[eid]
        if not (
            (be is xe or be >= xe)
            and (xe is ye or xe >= ye)
            and ye.numerator >= 0
            and (ne is be or ne is ye or be >= ne)
        ):
            raise InvariantError(f"round breaks b >= x >= y >= 0 on edge {eid!r}")
    terminal = y == x
    if terminal != (not cut):
        raise InvariantError("round's cut edges disagree with y != x")
    # a choice that is not in deficit sums to exactly the quota
    full = frozenset(v for v, out in outcomes.items() if not out.deficit)
    return IterationState(
        round=state.round + 1,
        bounds=new_bounds,
        x=x,
        y=y,
        terminal=terminal,
        fully_firms=full & inst.firm_set,
        fully_workers=full & inst.worker_set,
        outcomes=outcomes,
        cut=cut,
        changed_firms=frozenset(changed),
    )


def _reduced_edges(inst: Instance, bounds: Mapping[str, Fraction], f: str) -> frozenset[str]:
    """The edges at firm f whose bound is below the capacity.

    A bound starts as the capacity object and is replaced only where a cut
    lowers it, so identity settles most edges; the rest compare by value.
    """
    edge = inst.edge_by_id
    return frozenset(
        e for e in inst.incident[f]
        if bounds[e] is not edge[e].capacity and bounds[e] < edge[e].capacity
    )


def _progress_marker(inst: Instance, state: IterationState, prev=None):
    """The monotone quantities whose growth makes a round 'productive'.

    A firm f is marked by the edges where x reaches the capacity or the bound
    is below it.  Given `prev`, the marker of the previous state, only the
    firms in `state.changed_firms` are marked again; the others keep their
    sets, since their x and bounds did not change.

    A fully filled worker w is marked by the critical tie and head of its
    choice from y.  After an aggregation step the stored outcome is that
    choice.  In an ordinary state it is w's choice from x, with critical tie
    c and height r, and choosing again from y|w gives the same tie, height
    and head: y|w equals x before c, min(r, x_e) on c and 0 after c.  The
    sums before c are unchanged and below the quota q, and c now sums to
    exactly q minus them, so c is critical again.  The target is then the
    whole of c, so the height is max_e min(r, x_e) = r, since the head
    {e in c : x_e >= r} is nonempty; and the new head {e : min(r, x_e) >= r}
    is the old one.
    """
    stuck = {} if prev is None else dict(prev[0])
    for f in inst.firms if prev is None else state.changed_firms:
        full = set()
        for e in inst.incident[f]:
            # x is at most the capacity, which is positive: the capacity
            # object itself is reached and 0 is not
            val, cap = state.x[e], inst.edge_by_id[e].capacity
            if val is cap or (val.numerator and val == cap):
                full.add(e)
        stuck[f] = frozenset(full) | _reduced_edges(inst, state.bounds, f)
    worker_view = {
        w: (state.outcomes[w].critical_tie, state.outcomes[w].head)
        for w in state.fully_workers
    }
    return stuck, state.fully_workers, worker_view


def _is_productive(before, after) -> bool:
    stuck0, fully0, view0 = before
    stuck1, fully1, view1 = after
    if any(stuck1[f] - stuck0[f] for f in stuck1):
        return True
    if fully1 - fully0:
        return True
    for w in fully0 & fully1:
        tie0, head0 = view0[w]
        tie1, head1 = view1[w]
        if tie1 < tie0 or head1 - head0:
            return True
    return False


def _build_big_lp(inst: Instance, state: IterationState) -> LinearProgram:
    """Aggregate a stalled tail of rounds into one linear program.

    Variables: a uniform raise φ_f on each fully filled firm's head H_f, in
    sorted firm order.  A fully filled worker w cuts its head H_w uniformly by
    ψ_w, and stays exactly filled: |H_w|·ψ_w = R_w, where R_w is the sum of
    φ_f over the raised edges at w.  That balance is substituted out, so
    ψ_w = R_w / |H_w| (`_big_iteration` recovers it), and a row that held ψ_w
    is scaled by the lcm of the |H_w| it holds to keep integer coefficients.
    The constraints respect bounds and quotas and keep every worker head a
    head; the objective pushes the total raise as far as the whole stalled
    tail could ever have gone.  The heads and critical ties are those of the
    ordinary round's choices; choosing again from x and y gives the same
    ones (see `_progress_marker`).

    Every row is `<=`, and the round invariants b >= x >= y >= 0 make every
    right-hand side nonnegative, so φ = 0 is feasible: |H_w| times a height,
    a fully filled firm's quota minus its load at y <= x, a capacity minus y,
    |H_w| times a height minus a tie value below it, 0, and a deficit worker's
    quota minus its load.  A negative one raises `InvariantError`.
    """
    y, outcomes = state.y, state.outcomes
    firms = tuple(sorted(state.fully_firms))
    workers = tuple(sorted(state.fully_workers))
    fh = {f: outcomes[f].head for f in firms}
    wh = {w: outcomes[w].head for w in workers}
    height: dict[str, Fraction] = {}
    for w in workers:
        heights = {y[e] for e in wh[w]}
        if len(heights) != 1:
            raise InvariantError(f"head of {w!r} not level")
        height[w] = heights.pop()
    var = {f: i for i, f in enumerate(firms)}
    n = len(firms)
    # raised[w]: the firm column of each raised edge at worker w
    raised: dict[str, list[int]] = {}
    for f in firms:
        for e in fh[f]:
            raised.setdefault(inst.edge_by_id[e].worker, []).append(var[f])
    lp = LinearProgram(objective=[len(fh[f]) for f in firms])

    def add(row: list[int], rhs: Fraction) -> None:
        if rhs < 0:
            raise InvariantError("aggregation LP has a negative right-hand side")
        lp.a_le.append(row)
        lp.b_le.append(rhs)

    def unit(f: str, scale: int = 1) -> list[int]:
        row = [0] * n
        row[var[f]] = scale
        return row

    def add_raises(row: list[int], w: str, scale: int = 1) -> list[int]:
        for j in raised.get(w, ()):
            row[j] += scale
        return row

    for w in workers:  # cut cannot exceed the head level: ψ_w <= height
        add(add_raises([0] * n, w), len(wh[w]) * height[w])
    for f in firms:  # firm quota after raise minus the cuts it receives
        cuts = []  # the filled workers whose head holds a reduced edge of f
        for e in _reduced_edges(inst, state.bounds, f):
            w = inst.edge_by_id[e].worker
            if w in wh and e in wh[w]:
                cuts.append(w)
        scale = lcm(*(len(wh[w]) for w in cuts))
        row = unit(f, scale * len(fh[f]))
        for w in cuts:
            add_raises(row, w, -(scale // len(wh[w])))
        add(row, scale * (inst.quota[f] - vertex_load(inst, y, f)))
    for f in firms:  # raises stay under the original capacities
        for e in fh[f]:
            add(unit(f), inst.edge_by_id[e].capacity - y[e])
    for w in workers:  # worker heads must remain heads: ψ_w + φ_f <= height - y_e
        for e in inst.corteges[w][outcomes[w].critical_tie]:
            if e in wh[w]:
                continue
            f = inst.edge_by_id[e].firm
            row = unit(f, len(wh[w])) if f in fh and e in fh[f] else [0] * n
            add(add_raises(row, w), len(wh[w]) * (height[w] - y[e]))
    for f in firms:
        # a raise lands uniformly on the whole head H_f; if any of those
        # edges sits in a filled worker's head or below its critical tie, the
        # worker would cut the raise right back (shrinking the bound), which
        # cannot happen in a stalled tail -- so such a firm cannot raise
        for e in fh[f]:
            w = inst.edge_by_id[e].worker
            if w in wh and (e in wh[w] or inst.tie_index[(w, e)] > outcomes[w].critical_tie):
                add(unit(f), Fraction(0))
                break
    for w in inst.workers:  # raises must not overflow a deficit worker
        if w not in state.fully_workers:
            add(add_raises([0] * n, w), inst.quota[w] - vertex_load(inst, y, w))
    return lp


def _big_iteration(inst: Instance, state: IterationState) -> IterationState:
    lp = _build_big_lp(inst, state)
    res = simplex_maximize(lp)
    if res.status != "optimal":
        raise InvariantError(f"aggregation LP {res.status}")
    firm_head = {f: state.outcomes[f].head for f in sorted(state.fully_firms)}
    worker_head = {w: state.outcomes[w].head for w in sorted(state.fully_workers)}
    raise_of = dict(zip(firm_head, res.solution))
    # the change of y, on the heads only: an edge has one firm and one worker
    delta: dict[str, Fraction] = {}
    for f, head in firm_head.items():
        for e in head:
            delta[e] = raise_of[f]
    # ψ_w from the substituted balance |H_w|·ψ_w = Σ φ_f over the raises into w
    inflow: dict[str, Fraction] = {}
    for e, d in delta.items():
        w = inst.edge_by_id[e].worker
        inflow[w] = inflow.get(w, ZERO) + d
    for w, head in worker_head.items():
        cut = inflow.get(w, ZERO) / len(head)
        for e in head:
            # firms raising into a filled worker's head are excluded by the
            # LP, so a cut edge can never simultaneously carry a raise
            if delta.get(e, 0) != 0:
                raise InvariantError(f"edge {e!r} raised and cut at once")
            delta[e] = -cut
    yp = {eid: state.y[eid] for eid in inst.edge_ids}
    for e, d in delta.items():
        yp[e] += d
    if res.value > 0:
        # at least one inequality must be tight, otherwise the raise could grow
        tight = any(
            sum(a * v for a, v in zip(row, res.solution)) == rhs
            for row, rhs in zip(lp.a_le, lp.b_le)
        )
        if not tight:
            raise InvariantError("aggregation LP optimum leaves all inequalities slack")
    bounds = dict(state.bounds)
    for head in worker_head.values():
        for e in head:
            bounds[e] = yp[e]
    for head in firm_head.values():
        for e in head:
            bounds[e] = max(bounds[e], yp[e])
    return IterationState(
        round=state.round + 1,
        bounds=bounds,
        x=yp,
        y=yp,
        terminal=False,
        fully_firms=state.fully_firms,
        fully_workers=state.fully_workers,
        outcomes={w: choose(inst, w, yp) for w in worker_head},
        changed_firms=inst.firm_set,
    )


def _solve_xmin(
    inst: Instance, trace: Optional[list] = None
) -> tuple[dict[str, Fraction], dict[str, ChoiceOutcome]]:
    """The firm-optimal stable assignment and every vertex's choice there.

    Ordinary rounds run as long as they are productive; a stalled round is
    followed by one LP aggregation step.  The raw stable output is then
    normalized to the firm-optimal point by exhausting rotations in the
    swapped orientation.  That route starts from the outcomes the rounds
    already hold at the raw point (module docstring, (a)), and its outcomes
    at its end are returned with x_min.
    """
    cap = _step_cap(inst)
    state = initial_state(inst)
    result: Optional[dict[str, Fraction]] = None
    known: dict[str, ChoiceOutcome] = {}
    marker = None
    while state.round < cap:
        state = ordinary_iteration_step(inst, state)
        if trace is not None:
            trace.append(("ordinary", state.round, dict(state.y)))
        if state.terminal:
            result, known = state.x, state.outcomes
            break
        new_marker = _progress_marker(inst, state, marker)
        if marker is not None and not _is_productive(marker, new_marker):
            state = _big_iteration(inst, state)
            if trace is not None:
                trace.append(("aggregated", state.round, dict(state.y)))
            new_marker = _progress_marker(inst, state, new_marker)
            try:
                report = stability_report(inst, state.y, state.outcomes)
            except InstanceError:  # not admissible or not stationary
                report = None
            if report is not None and report.stable:
                result, known = state.y, report.outcomes
                break
        marker = new_marker
    if result is None:
        raise SolverLimitError(
            f"no stable point within {cap} rounds (raise ${MAX_STEPS_ENV} to retry)"
        )
    # normalize: in the swapped orientation the routes descend toward the
    # firm-optimal end of the original instance; the route's first active
    # structure rejects an unstable result (stability is side-symmetric)
    route = run_route(inst.swapped(), result, known=known)
    return route.states[-1], route.outcomes


def solve_xmin_modified(inst: Instance, trace: Optional[list] = None) -> dict[str, Fraction]:
    """The firm-optimal stable assignment, guaranteed finite (`_solve_xmin`)."""
    return _solve_xmin(inst, trace)[0]


def solve_xmin(inst: Instance) -> dict[str, Fraction]:
    return solve_xmin_modified(inst)


def solve_xmax(inst: Instance, trace: Optional[list] = None) -> dict[str, Fraction]:
    """The worker-optimal stable assignment (terminal point of any route).

    The route from x_min starts from the choices known there (module
    docstring, (b)).  `trace` collects the rounds as in `solve_xmin_modified`.
    """
    xmin, known = _solve_xmin(inst, trace)
    return run_route(inst, xmin, known=known).states[-1]


@dataclass
class ExtendedInstance:
    ext: Instance
    firm_side_edges: tuple[str, ...]   # depot-firm -> worker edges ("A")
    worker_side_edges: tuple[str, ...]  # firm -> depot-worker edges ("B")

    def seed(self) -> dict[str, Fraction]:
        """The firm-optimal assignment of the extension: all slack at depots."""
        y0 = {eid: Fraction(0) for eid in self.ext.edge_ids}
        for eid in self.firm_side_edges + self.worker_side_edges:
            y0[eid] = self.ext.edge_by_id[eid].capacity
        return y0


def build_extended_instance(inst: Instance) -> ExtendedInstance:
    f0, w0 = "__depot_firm", "__depot_worker"
    if f0 in inst.quota or w0 in inst.quota:
        raise InstanceError("reserved depot vertex ids present in instance")
    edges = list(inst.edges)
    a_edges, b_edges = [], []
    for w in inst.workers:
        eid = f"__a_{w}"
        edges.append(Edge(eid, f0, w, inst.quota[w]))
        a_edges.append(eid)
    for f in inst.firms:
        eid = f"__b_{f}"
        edges.append(Edge(eid, f, w0, inst.quota[f]))
        b_edges.append(eid)
    q_w = sum((inst.quota[w] for w in inst.workers), Fraction(0))
    q_f = sum((inst.quota[f] for f in inst.firms), Fraction(0))
    # The root edge gets capacity C = q_w + q_f and acts as if unbounded.
    # Its value x_root is at most min(q_w, q_f) < C, the depot quotas, so it
    # is never saturated.  A shift that raises the root by v lowers the depot
    # firm's other edges by at least v in total.  Those hold at most
    # q_w - x_root, the depot firm's quota less the root, so some drop
    # candidate is at most (q_w - x_root) / v < (C - x_root) / v: the root's
    # capacity never sets τ.
    root = "__root"
    edges.append(Edge(root, f0, w0, q_w + q_f))
    quota = dict(inst.quota)
    quota[f0] = q_w
    quota[w0] = q_f
    corteges: dict[str, list] = {}
    for f in inst.firms:
        corteges[f] = [[f"__b_{f}"]] + [list(t) for t in inst.corteges[f]]
    for w in inst.workers:
        corteges[w] = [list(t) for t in inst.corteges[w]] + [[f"__a_{w}"]]
    corteges[f0] = [[e] for e in sorted(a_edges)] + [[root]]
    corteges[w0] = [[root]] + [[e] for e in sorted(b_edges)]
    ext = Instance(
        firms=list(inst.firms) + [f0],
        workers=list(inst.workers) + [w0],
        edges=edges,
        quota=quota,
        corteges=corteges,
    )
    return ExtendedInstance(
        ext=ext,
        firm_side_edges=tuple(a_edges),
        worker_side_edges=tuple(b_edges),
    )


@dataclass
class QuotaFillingResult:
    quota_filling: bool
    assignment: Optional[dict[str, Fraction]]


def solve_quota_filling(inst: Instance) -> QuotaFillingResult:
    """Decide whether every stable assignment fills all quotas; if so, return one.

    The instance is extended by a depot firm and worker that soak up all
    remaining capacity (each real vertex ranks its depot edge at the opposite
    extreme of its list).  The seed putting everything on depot edges is the
    extension's firm-optimal stable point; routing it to the worker-optimal
    end empties the depot edges exactly when the original instance is quota
    filling, and then the restriction is its worker-optimal assignment.
    """
    extended = build_extended_instance(inst)
    ext = extended.ext
    y0 = extended.seed()
    if not stability_report(ext, y0).stable:
        raise InvariantError("depot seed unexpectedly unstable")
    ymax = run_route(ext, y0).states[-1]
    side = extended.firm_side_edges + extended.worker_side_edges
    if any(ymax[e] != 0 for e in side):
        return QuotaFillingResult(quota_filling=False, assignment=None)
    x = {eid: ymax[eid] for eid in inst.edge_ids}
    report = stability_report(inst, x)
    if not (report.stable and report.deficit == frozenset()):
        raise InvariantError("restricted worker optimum not stable and quota filling")
    return QuotaFillingResult(quota_filling=True, assignment=x)
