"""Computing the side-optimal stable assignments.

Two routes are provided:

* the finite variant of the classical deferred-acceptance style iteration
  (firms propose up to the current bounds, workers cut back, bounds shrink).
  The classical iteration may fail to terminate on instances with ties,
  because the per-round progress can shrink geometrically; the variant
  detects rounds that make no combinatorial progress and aggregates the
  whole stalled tail into one exact LP step.  No function runs the classical
  iteration alone;
* a combinatorial decision procedure for the special case where stable
  assignments fill every quota, via an auxiliary instance with two depot
  vertices absorbing all slack.

The rounds compute in integers.  `IterationState` holds the bounds, x, y,
the capacities, the quotas and every stored outcome's result as `int`
numerators over one denominator D (`den`).  D starts as the lcm of the
capacities' and quotas' denominators, 1 on integral instances, and only
grows:

* A round hands each choosing vertex's offer and quota to the integer
  kernel `choice._choose_scaled`.  When a cutting height is not a numerator
  over D, the kernel returns the factor k by which D must grow.  The round
  is a pure function of its input state, so `ordinary_iteration_step`
  multiplies every numerator of that state, stored results included, by k
  and runs the round again over k·D (`_rescaled`).  A state over k·D is the
  same point, so the rerun makes the choices the first attempt would have
  made.
* An aggregation step builds its LP on the numerators over D: every
  right-hand side is D times the true one, so the simplex takes the same
  pivots and its optimum is D times the true raise.  The simplex returns
  that raise in `Fraction`s, so the new point's numerators over D may be
  fractions; the state moves over k·D, k the lcm of their denominators,
  which is the lcm of D and the point's own denominators.  Only the
  capacities, quotas and bounds are carried over, times k: x, y and the
  stored choices of the new state are the point's.

The round check, the cut, the progress test, the reduced edges and the
aggregation LP's rows all compare `int`s over the one D of the state they
read; `_progressed` reads each of its two states over its own D.  Apart
from the LP's optimum, `Fraction`s are built only where a state leaves the
loop: each traced round's y, the point of an aggregation step handed to its
stability test with the stored choices, and the terminal x with its
choices, handed to the normalising route.  Each branch goes through one
memo from numerator to `Fraction` (`_fractions`), so an integral instance
builds one `Fraction` per distinct value, not one per edge.

The loop has one exit, `_normalise`: a terminal round's x, or an aggregated
point that its stability test calls stable, is routed to x_min.  No error
is swallowed on the way.  An aggregated point that the stability test
rejects as not admissible or not stationary, and a point that the route
rejects as unstable, are the solver's own points, so each raises
`InvariantError`.

A round keeps every vertex's choice outcome in `IterationState.outcomes` and
chooses again only at the vertices whose input changed since the previous
round (`_rechoose_scaled`); the progress test (`_progressed`) and the
aggregation LP read their heads and critical ties from there instead of
choosing again.

Choosing again from y gives a worker's stored tie and head.  After an
aggregation step the stored outcome is w's choice from y.  In an ordinary
state it is w's choice from x, with critical tie c and height r.  y|w equals
x before c, min(r, x_e) on c and 0 after c.  The sums before c are unchanged
and below the quota q, and c now sums to exactly q minus them, so c is
critical again.  The target is then the whole of c, so the height is
max_e min(r, x_e) = r, since the head {e in c : x_e >= r} is nonempty; and
the new head {e : min(r, x_e) >= r} is the old one.

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
  passed it.  A round is terminal when its cut is empty, and the full
  compare y == x cross-checks that.
* The progress test looks only at the fresh firms' edges, the cut edges and
  the fresh workers: x, the bounds and the workers' ties and heads change
  nowhere else.

The outcomes travel on past the rounds, each time by an equal-input argument
(the same three as in `rotations`):

(a) At a terminal ordinary round y = x, so a worker's stored choice, made
    from x, is its choice at x.  A firm's was made from the bounds b, and
    choosing again from x|f gives the same outcome in every field: the
    "choosing again from y" argument above with y replaced by x.  Those
    outcomes start the route that normalises the point in `inst.swapped()`,
    whose first analysis builds the point's report from them.  After an
    aggregation step the stability test at y is built from the workers'
    choices made there, and that report itself starts the route.  `choose`
    reads only `incident`, `quota` and `corteges`, which `swapped()` keeps,
    and the report's blocking test, `fully_filled` and `unsaturated` treat
    both endpoints of an edge alike, so a report is the same in either
    orientation.
(b) That route's report at its end is the report at x_min; `solve_xmax`,
    `smp solve --side workers` and `build_poset`'s base route start from
    it (`_solve_xmin`), so no route analyses x_min again.
(c) Along every route a shift changes x only on the rotation's support, so
    only the support's endpoints choose again.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Mapping, NamedTuple, Optional

from .choice import ChoiceOutcome, _choose_scaled
from .model import (
    ZERO,
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    SolverLimitError,
)
from .rotations import run_route
from .simplex import LinearProgram, simplex_maximize
from .stability import StabilityReport, stability_report


def _step_cap(inst: Instance) -> int:
    """The most rounds `_solve_xmin` runs: 10·|E|.

    A heuristic cap, not a bound taken from the paper; reaching it raises
    `SolverLimitError`.
    """
    return 10 * len(inst.edges)


class IterationState(NamedTuple):
    round: int
    den: int  # D: every value below is an int numerator over D
    capacity: dict[str, int]  # the edge capacities over D
    quota: dict[str, int]     # the vertex quotas over D
    bounds: dict[str, int]    # the next round's input bounds
    x: dict[str, int]   # the firms' choices from the round's input bounds
    y: dict[str, int]   # the workers' choices from `x`
    # every vertex's choice, its result over D: a firm's from the round's
    # input bounds (the previous state's `bounds`), a worker's from `x`.  An
    # aggregation step sets x = y to its point and keeps only the fully
    # filled workers' choices, made from `y`.
    outcomes: dict[str, ChoiceOutcome]
    # the edges with y != x (empty after a terminal round)
    cut: frozenset[str] = frozenset()


def _over(ratios: Mapping[str, tuple[int, int]], den: int) -> dict[str, int]:
    """Each value n / d, given as (n, d), as an int numerator over `den`,
    which d divides."""
    return {k: n * (den // d) for k, (n, d) in ratios.items()}


def _fractions(
    values: Mapping[str, int], den: int, memo: dict[int, Fraction]
) -> dict[str, Fraction]:
    """Numerators over `den` as `Fraction`s, one object per distinct value.

    `memo` maps each numerator seen over `den` to its `Fraction`.
    """
    out = {}
    for k, n in values.items():
        val = memo.get(n)
        if val is None:
            val = memo[n] = Fraction(n, den)
        out[k] = val
    return out


def _fraction_outcomes(
    outcomes: Mapping[str, ChoiceOutcome], den: int, memo: dict[int, Fraction]
) -> dict[str, ChoiceOutcome]:
    """Outcomes whose results are numerators over `den`, with `Fraction` results."""
    return {
        v: out._replace(result=_fractions(out.result, den, memo)) for v, out in outcomes.items()
    }


def initial_state(inst: Instance) -> IterationState:
    """Bounds, x and y at the capacities, over the lcm of every capacity's and
    quota's denominator."""
    capacity = {e.id: e.capacity.as_integer_ratio() for e in inst.edges}
    quota = {v: q.as_integer_ratio() for v, q in inst.quota.items()}
    den = lcm(*{d for _, d in capacity.values()}, *{d for _, d in quota.values()})
    bounds = _over(capacity, den)
    return IterationState(
        round=-1,
        den=den,
        capacity=bounds,
        quota=_over(quota, den),
        bounds=dict(bounds),
        x=dict(bounds),
        y=dict(bounds),
        outcomes={},
    )


def _times(values: Mapping[str, int], k: int) -> dict[str, int]:
    return {key: n * k for key, n in values.items()}


def _rescaled(state: IterationState, k: int) -> IterationState:
    """The same state over k·D: every numerator, stored results included, times k."""
    return state._replace(
        den=state.den * k,
        capacity=_times(state.capacity, k),
        quota=_times(state.quota, k),
        bounds=_times(state.bounds, k),
        x=_times(state.x, k),
        y=_times(state.y, k),
        outcomes={
            v: out._replace(result=_times(out.result, k)) for v, out in state.outcomes.items()
        },
    )


def _rechoose_scaled(
    inst: Instance,
    vertices: Iterable[str],
    z: Mapping[str, int],
    quota: Mapping[str, int],
    changed: Collection[str],
    outcomes: dict[str, ChoiceOutcome],
) -> list[str] | int:
    """Each vertex's choice from z, its quota from `quota` (numerators over
    D), into `outcomes`, which holds the stored outcomes on entry.

    A vertex keeps its stored outcome unless it is in `changed` or has none.
    Returns the vertices that chose afresh, or the factor by which D must
    grow when a kernel call asks for it.
    """
    fresh = []
    for v in vertices:
        out = outcomes.get(v)
        if out is None or v in changed:
            out = _choose_scaled(inst, v, z, quota[v])
            if type(out) is int:
                return out
            fresh.append(v)
            outcomes[v] = out
    return fresh


def _round(inst: Instance, state: IterationState) -> IterationState | int:
    """One ordinary round over the state's D, or the factor by which D must
    grow for a cutting height of this round to be a numerator over it."""
    b, quota = state.bounds, state.quota
    edge = inst.edge_by_id
    outcomes = dict(state.outcomes)
    # The stored firm choices were made from the previous round's bounds, and
    # that round lowered a bound exactly on its cut edges.  A firm with no
    # such edge sees the same bounds as before.
    lowered = {edge[e].firm for e in state.cut}
    fresh_firms = _rechoose_scaled(inst, inst.firms, b, quota, lowered, outcomes)
    if type(fresh_firms) is int:
        return fresh_firms
    x = dict(state.x)
    moved: set[str] = set()  # the workers at which x changed
    for f in fresh_firms:
        for e, val in outcomes[f].result.items():
            if val != x[e]:
                x[e] = val
                moved.add(edge[e].worker)
    # the stored worker choices were made from the previous x
    fresh_workers = _rechoose_scaled(inst, inst.workers, x, quota, moved, outcomes)
    if type(fresh_workers) is int:
        return fresh_workers
    y = dict(state.y)
    for w in fresh_workers:
        y.update(outcomes[w].result)
    cut = frozenset(e for w in fresh_workers for e in inst.incident[w] if y[e] != x[e])
    bounds = dict(b)
    for e in cut:
        bounds[e] = y[e]
    # b, x and y can have changed only here; every other edge keeps values
    # that passed this check in an earlier round.  A new bound is b or y, so
    # b >= x >= y bounds it too.
    for v in fresh_firms + fresh_workers:
        for e in inst.incident[v]:
            if not b[e] >= x[e] >= y[e] >= 0:
                raise InvariantError(f"round breaks b >= x >= y >= 0 on edge {e!r}")
    if (y == x) == bool(cut):
        raise InvariantError("round's cut edges disagree with y != x")
    return IterationState(
        round=state.round + 1,
        den=state.den,
        capacity=state.capacity,
        quota=quota,
        bounds=bounds,
        x=x,
        y=y,
        outcomes=outcomes,
        cut=cut,
    )


def ordinary_iteration_step(inst: Instance, state: IterationState) -> IterationState:
    """One proposal/cut round: firms take up to the bounds, workers cut back.

    Wherever the workers' cut bites, the bound drops to the cut value, so
    firms cannot re-propose what was refused.  The round touches only the
    edges at the vertices that choose again.  When a cutting height is not
    a numerator over D, the round runs again from the input state over the
    grown D, so the new state may hold a larger D than its input (module
    docstring).
    """
    while True:
        after = _round(inst, state)
        if type(after) is not int:
            return after
        state = _rescaled(state, after)


def _filled(state: IterationState, side: Iterable[str]) -> list[str]:
    """The sorted vertices of `side` whose stored choice fills the quota.

    A choice that is not in deficit sums to exactly the quota.  After an
    aggregation step only the fully filled workers' choices are stored.
    """
    outcomes = state.outcomes
    return sorted(v for v in side if v in outcomes and not outcomes[v].deficit)


def _reduced_edges(inst: Instance, state: IterationState, f: str) -> frozenset[str]:
    """The edges at firm f whose bound is below the capacity."""
    bounds, capacity = state.bounds, state.capacity
    return frozenset(e for e in inst.incident[f] if bounds[e] < capacity[e])


def _stuck(state: IterationState, e: str) -> bool:
    """Whether x reaches the capacity on edge e, or its bound is below it."""
    cap = state.capacity[e]
    return state.x[e] == cap or state.bounds[e] < cap


def _progressed(inst: Instance, before: IterationState, after: IterationState) -> bool:
    """Whether the ordinary round from `before` to `after` made progress.

    It did if some edge became stuck (`_stuck`), or some worker is now fully
    filled and was not before, or its critical tie moved up, or its head
    gained an edge.  A worker's stored choice gives its tie and head at y
    (module docstring, "choosing again from y").  Each state is read over
    its own D.

    The round looks only where it could have changed something.  x changes
    only on the edges of the firms whose stored outcome is a new object, and
    the bounds only on the round's cut edges.  A worker's tie and head
    change only where its stored outcome is a new object.  After an
    aggregation step, or when D grew, no firm outcome is the stored object,
    so every firm is fresh.
    """
    prev, outcomes = before.outcomes, after.outcomes
    edges = set(after.cut)
    for f in inst.firms:
        if outcomes[f] is not prev.get(f):
            edges.update(inst.incident[f])
    if any(_stuck(after, e) and not _stuck(before, e) for e in edges):
        return True
    for w in inst.workers:
        out, old = outcomes[w], prev.get(w)
        if out is old or out.deficit:
            continue
        if old is None or old.deficit or out.critical_tie < old.critical_tie or out.head - old.head:
            return True
    return False


def _big_iteration(inst: Instance, state: IterationState) -> IterationState:
    """Aggregate a stalled tail of rounds into one exact LP step.

    Variables: a uniform raise φ_f on each fully filled firm's head H_f, in
    sorted firm order.  A fully filled worker w cuts its head H_w uniformly by
    ψ_w, and stays exactly filled: |H_w|·ψ_w = R_w, where R_w is the sum of
    φ_f over the raised edges at w.  That balance is substituted out, so
    ψ_w = R_w / |H_w|, and a row that held ψ_w is scaled by the lcm of the
    |H_w| it holds to keep integer coefficients.  The constraints respect
    bounds and quotas and keep every worker head a head; the objective pushes
    the total raise as far as the whole stalled tail could ever have gone.
    The heads and critical ties are those of the ordinary round's choices;
    choosing again from x and y gives the same ones (module docstring,
    "choosing again from y").

    The LP is built on the state's numerators over D: every right-hand side
    is D times the true one, so φ, ψ and the optimum are D times the true
    ones, and the simplex takes the same pivots.  Every row is `<=`, and the
    round invariants b >= x >= y >= 0 make every right-hand side
    nonnegative, so φ = 0 is feasible: |H_w| times a height, a fully filled
    firm's quota minus its load at y <= x, a capacity minus y, |H_w| times a
    height minus a tie value below it, 0, and a deficit worker's quota minus
    its load.  A negative one raises `InvariantError`.

    The new point adds φ_f on H_f and subtracts ψ_w on H_w; it becomes x and
    y, the heads' bounds move to it, and only the filled workers' choices
    there are stored.  The state moves over k·D, k the lcm of the
    denominators of the point's numerators, so that they are `int`s; it is
    built from this state's capacities, quotas and bounds, each times k.
    """
    y, quota, outcomes = state.y, state.quota, state.outcomes
    firms = _filled(state, inst.firms)
    workers = _filled(state, inst.workers)
    fh = {f: outcomes[f].head for f in firms}
    wh = {w: outcomes[w].head for w in workers}
    height: dict[str, int] = {}
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
    a_le: list[list[int]] = []
    b_le: list[int] = []

    def add(row: list[int], rhs: int) -> None:
        if rhs < 0:
            raise InvariantError("aggregation LP has a negative right-hand side")
        a_le.append(row)
        b_le.append(rhs)

    def unit(f: str, scale: int = 1) -> list[int]:
        row = [0] * n
        row[var[f]] = scale
        return row

    def add_raises(row: list[int], w: str, scale: int = 1) -> list[int]:
        for j in raised.get(w, ()):
            row[j] += scale
        return row

    def slack(v: str) -> int:  # v's quota minus its load at y
        return quota[v] - sum(y[e] for e in inst.incident[v])

    for w in workers:  # cut cannot exceed the head level: ψ_w <= height
        add(add_raises([0] * n, w), len(wh[w]) * height[w])
    for f in firms:  # firm quota after raise minus the cuts it receives
        cuts = []  # the filled workers whose head holds a reduced edge of f
        for e in _reduced_edges(inst, state, f):
            w = inst.edge_by_id[e].worker
            if w in wh and e in wh[w]:
                cuts.append(w)
        scale = lcm(*(len(wh[w]) for w in cuts))
        row = unit(f, scale * len(fh[f]))
        for w in cuts:
            add_raises(row, w, -(scale // len(wh[w])))
        add(row, scale * slack(f))
    for f in firms:  # raises stay under the original capacities
        for e in fh[f]:
            add(unit(f), state.capacity[e] - y[e])
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
                add(unit(f), 0)
                break
    for w in inst.workers:  # raises must not overflow a deficit worker
        if w not in wh:
            add(add_raises([0] * n, w), slack(w))

    res = simplex_maximize(LinearProgram([len(fh[f]) for f in firms], a_le, b_le))
    if res.status != "optimal":
        raise InvariantError(f"aggregation LP {res.status}")
    phi = res.solution
    yp: dict[str, int | Fraction] = dict(y)  # the point's numerators over D
    for f in firms:
        for e in fh[f]:
            yp[e] += phi[var[f]]
    for w in workers:
        psi = sum((phi[j] for j in raised.get(w, ())), ZERO) / len(wh[w])
        for e in wh[w]:
            # firms raising into a filled worker's head are excluded by the
            # LP, so a cut edge can never simultaneously carry a raise
            if yp[e] != y[e]:
                raise InvariantError(f"edge {e!r} raised and cut at once")
            yp[e] -= psi
    if res.value > 0:
        # at least one inequality must be tight, otherwise the raise could grow
        tight = any(
            sum(a * v for a, v in zip(row, phi)) == rhs
            for row, rhs in zip(a_le, b_le)
        )
        if not tight:
            raise InvariantError("aggregation LP optimum leaves all inequalities slack")
    k = lcm(*{val.denominator for val in yp.values()})
    point = {e: val.numerator * (k // val.denominator) for e, val in yp.items()}
    bounds = _times(state.bounds, k)
    for w in workers:
        for e in wh[w]:
            bounds[e] = point[e]
    for f in firms:
        for e in fh[f]:
            bounds[e] = max(bounds[e], point[e])
    # w sums to its quota at the point, so its choice keeps the offer and the
    # cutting height is the critical tie's largest value
    kept: dict[str, ChoiceOutcome] = {}
    quota = _times(quota, k)
    if type(_rechoose_scaled(inst, workers, point, quota, (), kept)) is int:
        raise InvariantError("aggregated point overfills a filled worker")
    return IterationState(
        round=state.round + 1, den=state.den * k, capacity=_times(state.capacity, k),
        quota=quota, bounds=bounds, x=point, y=point, outcomes=kept,
    )


def _normalise(
    inst: Instance, x: Mapping[str, Fraction], known: StabilityReport | Mapping[str, ChoiceOutcome]
) -> tuple[dict[str, Fraction], StabilityReport]:
    """x_min, from the solver's stable point x, and its stability report.

    In the swapped orientation the routes descend toward the firm-optimal
    end of the original instance.  The route starts from what is `known` at
    x, the report or the choices (module docstring, (a)), and its report at
    its end is returned.  Its first active structure rejects an unstable x
    with `InstanceError` (stability is side-symmetric).  x is always the
    solver's own, never the user's, so that rejection is a failed solver
    invariant.
    """
    try:
        route = run_route(inst.swapped(), x, known=known)
    except InstanceError as exc:
        raise InvariantError(f"solver's point rejected by the normalising route: {exc}") from exc
    return route.states[-1], route.report


def _solve_xmin(
    inst: Instance, trace: Optional[list] = None
) -> tuple[dict[str, Fraction], StabilityReport]:
    """The firm-optimal stable assignment and its stability report.

    Ordinary rounds run as long as they are productive; a stalled round is
    followed by one LP aggregation step.  The raw stable output is then
    normalized to the firm-optimal point (`_normalise`), starting from the
    outcomes the rounds already hold at the raw point, or from the
    aggregated point's report (module docstring, (a)).
    """
    cap = _step_cap(inst)
    state = initial_state(inst)
    while state.round < cap:
        before, state = state, ordinary_iteration_step(inst, state)
        if trace is not None:
            trace.append(("ordinary", state.round, _fractions(state.y, state.den, {})))
        if not state.cut:
            memo: dict[int, Fraction] = {}
            x = _fractions(state.x, state.den, memo)
            return _normalise(inst, x, _fraction_outcomes(state.outcomes, state.den, memo))
        if before.round >= 0 and not _progressed(inst, before, state):
            state = _big_iteration(inst, state)
            memo = {}
            y = _fractions(state.y, state.den, memo)
            if trace is not None:
                trace.append(("aggregated", state.round, y))
            known = _fraction_outcomes(state.outcomes, state.den, memo)
            try:
                report = stability_report(inst, y, known)
            except InstanceError as exc:
                raise InvariantError(f"aggregated point rejected: {exc}") from exc
            if report.stable:
                return _normalise(inst, y, report)
    raise SolverLimitError(f"no stable point within {cap} rounds")


def solve_xmin_modified(inst: Instance, trace: Optional[list] = None) -> dict[str, Fraction]:
    """The firm-optimal stable assignment, guaranteed finite (`_solve_xmin`)."""
    return _solve_xmin(inst, trace)[0]


def solve_xmax(inst: Instance, trace: Optional[list] = None) -> dict[str, Fraction]:
    """The worker-optimal stable assignment (terminal point of any route).

    The route from x_min starts from the report there (module docstring,
    (b)).  `trace` collects the rounds as in `solve_xmin_modified`.
    """
    xmin, report = _solve_xmin(inst, trace)
    return run_route(inst, xmin, known=report).states[-1]


def build_extended_instance(inst: Instance) -> tuple[Instance, dict[str, Fraction]]:
    """The instance extended by a depot firm and worker, and its seed.

    Each worker gets an edge from the depot firm and each firm one to the
    depot worker, with the vertex's quota as capacity, ranked worst by the
    worker and best by the firm; a root edge joins the two depots.  The seed
    is the extension's firm-optimal point: each depot edge at its capacity
    and every other edge, the root included, at 0.  An instance that holds a
    depot vertex id, or an edge id the extension adds, raises `InstanceError`.
    """
    f0, w0 = "__depot_firm", "__depot_worker"
    if f0 in inst.quota or w0 in inst.quota:
        raise InstanceError("reserved depot vertex ids present in instance")
    # both prefixes at every vertex: the ids clash on either side of the
    # instance, so `inst.swapped()` is rejected exactly when `inst` is
    reserved = {"__root"} | {f"__{p}_{v}" for v in inst.vertices() for p in "ab"}
    clash = [e for e in inst.edge_ids if e in reserved]
    if clash:
        raise InstanceError(f"reserved depot edge ids present in instance: {clash}")
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
    seed = {eid: ZERO for eid in ext.edge_ids}
    for eid in a_edges + b_edges:
        seed[eid] = ext.edge_by_id[eid].capacity
    return ext, seed


def solve_quota_filling(inst: Instance) -> Optional[dict[str, Fraction]]:
    """The worker-optimal assignment when every stable assignment fills all
    quotas, else None.  The firm optimum is that of `inst.swapped()`.

    The instance is extended by a depot firm and worker that soak up all
    remaining capacity (each real vertex ranks its depot edge at the opposite
    extreme of its list).  The seed putting everything on depot edges is the
    extension's firm-optimal stable point; routing it to the worker-optimal
    end empties the depot edges exactly when the original instance is quota
    filling, and then the restriction is its worker-optimal assignment.  The
    route starts from the seed's stability report.
    """
    ext, y0 = build_extended_instance(inst)
    seed_report = stability_report(ext, y0)
    if not seed_report.stable:
        raise InvariantError("depot seed unexpectedly unstable")
    ymax = run_route(ext, y0, known=seed_report).states[-1]
    # the depot edges are the seed's positive entries
    if any(ymax[e] != 0 for e, v in y0.items() if v):
        return None
    x = {eid: ymax[eid] for eid in inst.edge_ids}
    report = stability_report(inst, x)
    if not (report.stable and len(report.fully_filled) == len(inst.vertices())):
        raise InvariantError("restricted worker optimum not stable and quota filling")
    return x
