"""Side-optimal solvers: proposal/cut rounds, LP aggregation, quota filling."""

import random
from types import SimpleNamespace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import smp.choice
import smp.iteration
import smp.rotations
from smp import (
    Edge,
    Instance,
    InstanceError,
    build_extended_instance,
    compare_stable,
    initial_state,
    ordinary_iteration_step,
    run_route,
    solve_quota_filling,
    solve_xmax,
    solve_xmin_modified,
    stability_report,
    vertex_load,
)
from smp.choice import ChoiceOutcome, choose
from smp.bruteforce import oracle_enumerate_stable
from smp.iteration import _filled, _reduced_edges, _rescaled
from smp.model import InvariantError
from smp.simplex import LinearProgram, simplex_maximize

from gen import (
    SIX_CYCLE_STABLE_EVEN,
    SIX_CYCLE_STABLE_ODD,
    chained_instance,
    rand_marriage,
    random_instance,
    six_cycle_instance,
    triangle_instance,
)
from test_acceptance import sap_pool, sdp_pool, smp_pool


def exact(values, den):
    return {k: F(n, den) for k, n in values.items()}


def exact_state(state):
    """A round state's numerators over its D as `Fraction`s: the form in
    which the references below read and write a state."""
    den = state.den
    return SimpleNamespace(
        round=state.round,
        bounds=exact(state.bounds, den),
        x=exact(state.x, den),
        y=exact(state.y, den),
        outcomes={
            v: ChoiceOutcome(exact(out.result, den), out.head, out.tail, out.critical_tie, out.deficit)
            for v, out in state.outcomes.items()
        },
        cut=state.cut,
    )


def reduced_edges(inst, bounds, f):
    """The edges at firm f whose `Fraction` bound is below the capacity."""
    return frozenset(e for e in inst.incident[f] if bounds[e] < inst.edge_by_id[e].capacity)


def test_ordinary_iteration_monotone_and_terminal_on_triangle():
    inst = triangle_instance(F(8), F(15))
    state = initial_state(inst)
    prev_bounds = exact(state.bounds, state.den)
    for _ in range(5):
        state = ordinary_iteration_step(inst, state)
        bounds = exact(state.bounds, state.den)
        assert all(bounds[e] <= prev_bounds[e] for e in inst.edge_ids)
        prev_bounds = bounds
        if not state.cut:
            break
    assert not state.cut and state.y == state.x
    assert stability_report(inst, exact(state.x, state.den)).stable


def test_solve_xmin_triangle_is_uniform():
    inst = triangle_instance(F(8), F(15))
    assert solve_xmin_modified(inst) == {e: F(8) for e in inst.edge_ids}


def test_xmin_and_xmax_bracket_the_six_cycle():
    inst = six_cycle_instance()
    xmin = solve_xmin_modified(inst)
    xmax = solve_xmax(inst)
    assert {tuple(sorted(xmin.items())), tuple(sorted(xmax.items()))} == {
        tuple(sorted(SIX_CYCLE_STABLE_ODD.items())),
        tuple(sorted(SIX_CYCLE_STABLE_EVEN.items())),
    }
    assert compare_stable(inst, xmin, xmax)
    assert compare_stable(inst.swapped(), xmax, xmin)


def test_xmin_is_firm_optimal_against_enumeration():
    for seed in range(25):
        rng = random.Random(f"fopt{seed}")
        inst = random_instance(
            rng, max_edges=6, singleton_ties=True, integral=True, max_value=2
        )
        xmin = solve_xmin_modified(inst)
        assert stability_report(inst, xmin).stable
        for other in oracle_enumerate_stable(inst):
            assert compare_stable(inst, xmin, other)


def test_xmax_is_worker_optimal_against_enumeration():
    for seed in range(15):
        rng = random.Random(f"wopt{seed}")
        inst = random_instance(
            rng, max_edges=6, singleton_ties=True, integral=True, max_value=2
        )
        xmax = solve_xmax(inst)
        for other in oracle_enumerate_stable(inst):
            assert compare_stable(inst.swapped(), xmax, other)


def test_solver_handles_ties_families():
    for seed in range(20):
        rng = random.Random(f"fam{seed}")
        inst = random_instance(rng, max_edges=12)
        xmin = solve_xmin_modified(inst)
        assert stability_report(inst, xmin).stable


def test_instance_rejects_a_none_capacity():
    # every capacity is finite, so the rounds and every saturation test can
    # read it without a guard
    with pytest.raises(InstanceError, match="finite"):
        Instance(
            firms=["f"],
            workers=["w"],
            edges=[Edge("e", "f", "w", None)],
            quota={"f": F(1), "w": F(1)},
            corteges={"f": [["e"]], "w": [["e"]]},
        )


def test_depot_root_edge_acts_as_unbounded():
    # the root edge's capacity q_w + q_f is never reached on a quota-filling
    # route, and where a shift raises the root, its capacity candidate in
    # max_weight, (capacity - x_root) / v, is never the shift's τ
    insts = [rand_marriage(random.Random(f"root{s}"), 3, cap=2, tie_prob=0.3) for s in range(12)]
    insts += [random_instance(random.Random(f"root{s}"), max_edges=8) for s in range(12)]
    raised = 0
    for inst in insts:
        ext, seed = build_extended_instance(inst)
        cap = ext.edge_by_id["__root"].capacity
        route = run_route(ext, seed)
        assert all(x["__root"] < cap for x in route.states)
        for x, rot in zip(route.states, route.steps):
            v = rot.values.get("__root", F(0))
            if v > 0:
                raised += 1
                assert (cap - x["__root"]) / v > rot.tau
    assert raised, "no shift raised the root edge"


def test_trace_records_rounds():
    inst = triangle_instance(F(8), F(15))
    trace = []
    solve_xmin_modified(inst, trace=trace)
    assert trace
    kinds = {kind for kind, _, _ in trace}
    assert kinds <= {"ordinary", "aggregated"}
    rounds = [rnd for _, rnd, _ in trace]
    assert rounds == sorted(rounds)


def test_quota_filling_marriage_instances():
    # a full bipartite marriage market always fills every quota
    for seed in range(6):
        inst = rand_marriage(random.Random(f"qf{seed}"), 4, cap=2, tie_prob=0.2)
        x = solve_quota_filling(inst)
        assert x is not None
        rep = stability_report(inst, x)
        assert rep.stable and frozenset(inst.vertices()) - rep.fully_filled == frozenset()
        # the returned point is the worker-optimal assignment
        assert x == solve_xmax(inst)


def test_quota_filling_detects_deficit_instances():
    # one firm, two workers, quota too large to fill from a single unit edge
    from smp import Edge, Instance

    inst = Instance(
        firms=["f"],
        workers=["w"],
        edges=[Edge("e", "f", "w", F(1))],
        quota={"f": F(5), "w": F(5)},
        corteges={"f": [["e"]], "w": [["e"]]},
    )
    assert solve_quota_filling(inst) is None


def test_quota_filling_route_starts_from_the_seed_outcomes(monkeypatch):
    """The route from the depot seed starts from the choices of the seed's
    stability test, so its first state chooses at no vertex."""
    chosen = []
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: chosen.append(v) or choose(inst, v, z))
    per_state = []  # the `choose` calls of each analysed route state
    analyse = smp.rotations.applicable_rotations

    def counted(*args, **kwargs):
        before = len(chosen)
        out = analyse(*args, **kwargs)
        per_state.append(len(chosen) - before)
        return out

    monkeypatch.setattr(smp.rotations, "applicable_rotations", counted)
    for seed in range(4):
        inst = rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.3)
        per_state.clear()
        assert solve_quota_filling(inst) is not None
        assert len(per_state) > 1 and per_state[0] == 0


def test_extended_instance_layout():
    inst = six_cycle_instance()
    ext, seed = build_extended_instance(inst)
    # one depot edge per real vertex plus the root
    assert len(ext.edges) == len(inst.edges) + len(inst.vertices()) + 1
    # each firm ranks its depot edge best, each worker ranks its depot worst
    for f in inst.firms:
        assert ext.corteges[f][0] == (f"__b_{f}",)
    for w in inst.workers:
        assert ext.corteges[w][-1] == (f"__a_{w}",)
    # depot quotas absorb the whole opposite side
    assert ext.quota["__depot_firm"] == sum(
        (inst.quota[w] for w in inst.workers), F(0)
    )
    # the seed: each depot edge at its capacity, every other edge (the root
    # included) at 0
    depot = {f"__a_{w}" for w in inst.workers} | {f"__b_{f}" for f in inst.firms}
    assert list(seed) == list(ext.edge_ids)
    assert {e for e, v in seed.items() if v} == depot
    assert all(seed[e] == ext.edge_by_id[e].capacity for e in depot)
    assert all(seed[e] == 0 for e in inst.edge_ids) and seed["__root"] == 0


def _recorded_rounds(monkeypatch):
    """Record (kind, state before, state after) for every round the solver runs."""
    rounds = []
    for name, kind in (("ordinary_iteration_step", "ordinary"), ("_big_iteration", "aggregated")):
        step = getattr(smp.iteration, name)

        def record(inst, state, step=step, kind=kind):
            after = step(inst, state)
            rounds.append((kind, state, after))
            return after

        monkeypatch.setattr(smp.iteration, name, record)
    return rounds


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), tied=st.booleans())
def test_stored_outcomes_match_fresh_choices(seed, tied):
    if tied:
        inst = rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.5)
    else:
        inst = rand_marriage(random.Random(seed), 5, cap=1)
    with pytest.MonkeyPatch.context() as mp:
        rounds = _recorded_rounds(mp)
        solve_xmin_modified(inst)
    assert any(kind == "ordinary" for kind, _, _ in rounds)
    for kind, before, state in rounds:
        before, state = exact_state(before), exact_state(state)
        filled_firms = _filled(state, inst.firms)
        filled_workers = _filled(state, inst.workers)
        if kind == "aggregated":
            # the step keeps exactly the workers it holds exactly filled
            assert filled_firms == [] and filled_workers == sorted(state.outcomes)
            for w in filled_workers:
                assert state.outcomes[w] == choose(inst, w, state.y)
                assert vertex_load(inst, state.y, w) == inst.quota[w]
            continue
        assert (not state.cut) == (state.y == state.x)
        assert filled_firms == sorted(
            f for f in inst.firms if vertex_load(inst, state.x, f) == inst.quota[f]
        )
        assert filled_workers == sorted(
            w for w in inst.workers if vertex_load(inst, state.y, w) == inst.quota[w]
        )
        # every vertex's stored outcome is, in every field, a fresh choice from
        # its input: the round's input bounds for a firm, x for a worker
        assert set(state.outcomes) == set(inst.vertices())
        for f in inst.firms:
            assert state.outcomes[f] == choose(inst, f, before.bounds)
        for w in inst.workers:
            assert state.outcomes[w] == choose(inst, w, state.x)
        for f in filled_firms:
            assert state.outcomes[f].head == choose(inst, f, state.x).head
        for w in filled_workers:
            fresh = choose(inst, w, state.y)
            stored = state.outcomes[w]
            assert (stored.head, stored.critical_tie) == (fresh.head, fresh.critical_tie)


def test_rounds_rechoose_only_where_the_input_changed(monkeypatch):
    """An ordinary round chooses at the vertices whose input changed since their
    stored choice or that have none, an aggregation step at the fully filled
    workers it carries over, and nothing else chooses outside the stability
    tests and the normalising route (their calls are tagged apart; the carry
    tests in test_poset.py count them).  A round attempt that asks for a
    larger D is run again, so only the calls of its last attempt count."""
    inst = rand_marriage(random.Random(0), 4, cap=2, tie_prob=0.5)
    rounds = _recorded_rounds(monkeypatch)
    calls = []  # the index of the round each call is made in
    analysing = []
    kernel = smp.iteration._choose_scaled

    def counting_choose(inst, v, z):
        calls.append("analysis" if analysing else len(rounds))
        return choose(inst, v, z)

    def counting_kernel(inst, v, a, quota):
        out = kernel(inst, v, a, quota)
        if type(out) is int:  # the attempt is run again over k·D
            while calls and calls[-1] == len(rounds):
                calls.pop()
        else:
            calls.append(len(rounds))
        return out

    def tagged(fn):
        def run(*args, **kwargs):
            analysing.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                analysing.pop()

        return run

    # the rounds and the aggregation step call the kernel, the analysis `choose`
    monkeypatch.setattr(smp.choice, "choose", counting_choose)
    monkeypatch.setattr(smp.iteration, "_choose_scaled", counting_kernel)
    for name in ("stability_report", "run_route"):
        monkeypatch.setattr(smp.iteration, name, tagged(getattr(smp.iteration, name)))
    solve_xmin_modified(inst)
    expected = []
    firm_input = None  # the bounds the stored firm choices were made from
    for kind, before, after in rounds:
        before, after = exact_state(before), exact_state(after)
        if kind == "aggregated":
            expected.append(len(_filled(after, inst.workers)))
            firm_input = None
            continue
        stale = [
            f for f in inst.firms
            if f not in before.outcomes
            or any(before.bounds[e] != firm_input[e] for e in inst.incident[f])
        ] + [
            w for w in inst.workers
            if w not in before.outcomes
            or any(after.x[e] != before.x[e] for e in inst.incident[w])
        ]
        expected.append(len(stale))
        firm_input = before.bounds
    assert [calls.count(i) for i in range(len(rounds) + 1)] == expected + [0]
    carried = [len(_filled(after, inst.workers)) for kind, _, after in rounds if kind == "aggregated"]
    ordinary = len(rounds) - len(carried)
    assert carried
    rounds_calls = len(calls) - calls.count("analysis")
    assert rounds_calls < ordinary * len(inst.vertices()) + sum(carried)


def reference_step(inst, state):
    """The dense round body that `ordinary_iteration_step` replaced.

    It scans every edge for the lowered firms, the moved workers, the new
    bounds and the b >= x >= y >= 0 check, and rebuilds x and y from every
    vertex's outcome.  It finds the cut edges by comparing y with x on every
    edge.  It reads and returns states in `Fraction`s (`exact_state`).
    """
    b = state.bounds
    edge = inst.edge_by_id

    def rechoose(vertices, z, changed):
        # a vertex keeps its stored outcome unless its input changed
        return {
            v: state.outcomes[v] if v in state.outcomes and v not in changed else choose(inst, v, z)
            for v in vertices
        }

    lowered = {edge[e].firm for e in inst.edge_ids if state.y[e] != state.x[e]}
    outcomes = rechoose(inst.firms, b, lowered)
    x = {}
    for f in inst.firms:
        x.update(outcomes[f].result)
    moved = {edge[e].worker for e in inst.edge_ids if x[e] != state.x[e]}
    outcomes.update(rechoose(inst.workers, x, moved))
    y = {}
    for w in inst.workers:
        y.update(outcomes[w].result)
    new_bounds = {
        eid: (b[eid] if y[eid] == x[eid] else y[eid]) for eid in inst.edge_ids
    }
    for eid in inst.edge_ids:
        if not (b[eid] >= x[eid] >= y[eid] >= 0 and b[eid] >= new_bounds[eid]):
            raise InvariantError(f"round breaks b >= x >= y >= 0 on edge {eid!r}")
    return SimpleNamespace(
        round=state.round + 1,
        bounds=new_bounds,
        x=x,
        y=y,
        outcomes=outcomes,
        cut=frozenset(e for e in inst.edge_ids if y[e] != x[e]),
    )


def growth_instance():
    """Unit capacities and quotas; w1 ranks f1w1, f2w1 and f3w1 in one tie.

    Round 0: w0 keeps f4's edge and cuts f1, f2, f3 and f5.  Round 1: f1, f2
    and f3 move to w1, which cuts each to 1/3, after w0 has chosen and
    before w2 takes f5's new offer.
    """
    one = F(1)
    ids = ["f1w0", "f2w0", "f3w0", "f4w0", "f5w0", "f1w1", "f2w1", "f3w1", "f5w2"]
    corteges = {
        "f1": [["f1w0"], ["f1w1"]],
        "f2": [["f2w0"], ["f2w1"]],
        "f3": [["f3w0"], ["f3w1"]],
        "f4": [["f4w0"]],
        "f5": [["f5w0"], ["f5w2"]],
        "w0": [["f4w0"], ["f1w0"], ["f2w0"], ["f3w0"], ["f5w0"]],
        "w1": [["f1w1", "f2w1", "f3w1"]],
        "w2": [["f5w2"]],
    }
    return Instance(
        ["f1", "f2", "f3", "f4", "f5"],
        ["w0", "w1", "w2"],
        [Edge(e, e[:2], e[2:], one) for e in ids],
        {v: one for v in corteges},
        corteges,
    )


def test_rounds_grow_the_denominator_mid_round(monkeypatch):
    """A cut at 1/3 in the middle of a round over D = 1 runs the round again
    over D = 3, from the input state rescaled; every round equals the dense
    `Fraction` reference, and the progress verdicts the reference marker's."""
    inst = growth_instance()
    asked = []  # (vertex, growth factor or None) of every kernel call
    kernel = smp.iteration._choose_scaled

    def recording(inst, v, a, quota):
        out = kernel(inst, v, a, quota)
        asked.append((v, out if type(out) is int else None))
        return out

    monkeypatch.setattr(smp.iteration, "_choose_scaled", recording)
    state = initial_state(inst)
    dens, per_round = [state.den], []
    while True:
        asked.clear()
        after = ordinary_iteration_step(inst, state)
        per_round.append(list(asked))
        ref = reference_step(inst, exact_state(state))
        for name in REFERENCE_FIELDS:
            assert getattr(exact_state(after), name) == getattr(ref, name), name
        if state.round >= 0 and after.cut:
            assert smp.iteration._progressed(inst, state, after) == reference_is_productive(
                reference_marker(inst, exact_state(state)), reference_marker(inst, exact_state(after))
            )
        dens.append(after.den)
        state = after
        if not after.cut:
            break
    assert dens == [1, 1, 3, 3]
    fresh = [("f1", None), ("f2", None), ("f3", None), ("f5", None), ("w0", None)]
    assert per_round[1] == fresh + [("w1", 3)] + fresh + [("w1", None), ("w2", None)]
    xmin = solve_xmin_modified(inst)
    assert {e: v for e, v in xmin.items() if v} == {
        "f1w1": F(1, 3), "f2w1": F(1, 3), "f3w1": F(1, 3), "f4w0": F(1), "f5w2": F(1)
    }


def reference_marker(inst, state):
    """The progress marker that `_progressed` replaced, computed afresh.

    A firm is marked by the edges where x reaches the capacity or the bound
    is below it; the view maps each fully filled worker to the critical tie
    and head of its stored choice.  It reads a state in `Fraction`s."""
    stuck = {
        f: frozenset(e for e in inst.incident[f] if state.x[e] == inst.edge_by_id[e].capacity)
        | reduced_edges(inst, state.bounds, f)
        for f in inst.firms
    }
    view = {
        w: (out.critical_tie, out.head)
        for w, out in state.outcomes.items()
        if w in inst.worker_set and not out.deficit
    }
    return stuck, view


def reference_is_productive(before, after):
    """Whether a round from marker `before` to marker `after` made progress:
    a firm marked on a new edge, a newly filled worker, or a filled worker
    whose critical tie moved up or whose head gained an edge."""
    stuck0, view0 = before
    stuck1, view1 = after
    if any(stuck1[f] - stuck0[f] for f in stuck1):
        return True
    if view1.keys() - view0.keys():
        return True
    for w in view0.keys() & view1.keys():
        tie0, head0 = view0[w]
        tie1, head1 = view1[w]
        if tie1 < tie0 or head1 - head0:
            return True
    return False


def _judged_rounds(monkeypatch):
    """Record (state before, state after, verdict) for every round the solver
    judges with `_progressed`."""
    judged = []
    progressed = smp.iteration._progressed

    def record(inst, before, after):
        out = progressed(inst, before, after)
        judged.append((before, after, out))
        return out

    monkeypatch.setattr(smp.iteration, "_progressed", record)
    return judged


REFERENCE_FIELDS = ("round", "bounds", "x", "y", "outcomes", "cut")


def _family_instance(family, seed):
    if family == "tied":
        return rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.5)
    if family == "strict":
        return rand_marriage(random.Random(seed), 6, cap=1)
    k = 3 + seed % 3
    r = 1 + seed % 2
    return chained_instance(k, F(r * 8 * 4 ** (k - 1)), F(r * 15 * 4 ** (k - 1)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), family=st.sampled_from(["tied", "strict", "chain"]))
# tied instances whose stall decisions turn on a head that gains an edge (2),
# a bound that drops on an edge of a firm that did not choose again (52) and
# a worker that becomes fully filled (144)
@example(seed=2, family="tied")
@example(seed=52, family="tied")
@example(seed=144, family="tied")
def test_sparse_rounds_match_the_dense_reference(seed, family):
    inst = _family_instance(family, seed)
    with pytest.MonkeyPatch.context() as mp:
        rounds = _recorded_rounds(mp)
        judged = _judged_rounds(mp)
        solve_xmin_modified(inst)
    assert any(kind == "ordinary" for kind, _, _ in rounds)
    for kind, before, after in rounds:
        if kind == "aggregated":
            assert after.cut == frozenset()
            continue
        ref = reference_step(inst, exact_state(before))
        after = exact_state(after)
        for name in REFERENCE_FIELDS:
            assert getattr(after, name) == getattr(ref, name), name
    # every ordinary round but the first and a terminal one is judged, each
    # from the state the loop held before it
    ordinary = [(before, after) for kind, before, after in rounds if kind == "ordinary"]
    assert [(b, a) for b, a, _ in judged] == [
        (b, a) for b, a in ordinary if b.round >= 0 and a.cut
    ]
    for before, after, out in judged:
        assert out == reference_is_productive(
            reference_marker(inst, exact_state(before)), reference_marker(inst, exact_state(after))
        )
        # the same verdict with the two states held over other denominators,
        # each its own, and no outcome stored as the other state's object
        assert smp.iteration._progressed(inst, _rescaled(before, 2), _rescaled(after, 3)) == out


def reference_big_iteration(inst, state):
    """The two-function aggregation step that `_big_iteration` replaced.

    The first half builds the LP as `_build_big_lp` did; the second solves
    it and, as the old `_big_iteration` did, rebuilds the heads, recovers
    each firm's raise and each worker's cut through per-edge and per-worker
    maps, and writes the new point and bounds.  Reads and returns states in
    `Fraction`s (`exact_state`).  Returns the new state and the LP.
    """
    y, outcomes = state.y, state.outcomes
    firms = _filled(state, inst.firms)
    workers = _filled(state, inst.workers)
    fh = {f: outcomes[f].head for f in firms}
    wh = {w: outcomes[w].head for w in workers}
    height = {}
    for w in workers:
        heights = {y[e] for e in wh[w]}
        if len(heights) != 1:
            raise InvariantError(f"head of {w!r} not level")
        height[w] = heights.pop()
    var = {f: i for i, f in enumerate(firms)}
    n = len(firms)
    raised = {}
    for f in firms:
        for e in fh[f]:
            raised.setdefault(inst.edge_by_id[e].worker, []).append(var[f])
    lp = LinearProgram(objective=[len(fh[f]) for f in firms], a_le=[], b_le=[])

    def add(row, rhs):
        if rhs < 0:
            raise InvariantError("aggregation LP has a negative right-hand side")
        lp.a_le.append(row)
        lp.b_le.append(rhs)

    def unit(f, scale=1):
        row = [0] * n
        row[var[f]] = scale
        return row

    def add_raises(row, w, scale=1):
        for j in raised.get(w, ()):
            row[j] += scale
        return row

    for w in workers:
        add(add_raises([0] * n, w), len(wh[w]) * height[w])
    for f in firms:
        cuts = []
        for e in reduced_edges(inst, state.bounds, f):
            w = inst.edge_by_id[e].worker
            if w in wh and e in wh[w]:
                cuts.append(w)
        scale = lcm(*(len(wh[w]) for w in cuts))
        row = unit(f, scale * len(fh[f]))
        for w in cuts:
            add_raises(row, w, -(scale // len(wh[w])))
        add(row, scale * (inst.quota[f] - vertex_load(inst, y, f)))
    for f in firms:
        for e in fh[f]:
            add(unit(f), inst.edge_by_id[e].capacity - y[e])
    for w in workers:
        for e in inst.corteges[w][outcomes[w].critical_tie]:
            if e in wh[w]:
                continue
            f = inst.edge_by_id[e].firm
            row = unit(f, len(wh[w])) if f in fh and e in fh[f] else [0] * n
            add(add_raises(row, w), len(wh[w]) * (height[w] - y[e]))
    for f in firms:
        for e in fh[f]:
            w = inst.edge_by_id[e].worker
            if w in wh and (e in wh[w] or inst.tie_index[(w, e)] > outcomes[w].critical_tie):
                add(unit(f), F(0))
                break
    for w in inst.workers:
        if w not in wh:
            add(add_raises([0] * n, w), inst.quota[w] - vertex_load(inst, y, w))

    res = simplex_maximize(lp)
    if res.status != "optimal":
        raise InvariantError(f"aggregation LP {res.status}")
    firm_head = {f: state.outcomes[f].head for f in _filled(state, inst.firms)}
    worker_head = {w: state.outcomes[w].head for w in _filled(state, inst.workers)}
    raise_of = dict(zip(firm_head, res.solution))
    delta = {}
    for f, head in firm_head.items():
        for e in head:
            delta[e] = raise_of[f]
    inflow = {}
    for e, d in delta.items():
        w = inst.edge_by_id[e].worker
        inflow[w] = inflow.get(w, F(0)) + d
    for w, head in worker_head.items():
        cut = inflow.get(w, F(0)) / len(head)
        for e in head:
            if delta.get(e, 0) != 0:
                raise InvariantError(f"edge {e!r} raised and cut at once")
            delta[e] = -cut
    yp = {eid: state.y[eid] for eid in inst.edge_ids}
    for e, d in delta.items():
        yp[e] += d
    if res.value > 0:
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
    new = SimpleNamespace(
        round=state.round + 1,
        bounds=bounds,
        x=yp,
        y=yp,
        outcomes={w: choose(inst, w, yp) for w in worker_head},
        cut=frozenset(),
    )
    return new, lp


def test_aggregation_step_matches_the_two_function_reference(monkeypatch):
    """Every aggregation step of the acceptance pools and of the tied bench
    family writes the reference's state, bounds included, and hands
    `simplex_maximize` the reference's LP, row for row, built on the
    state's numerators over D: the rows are the reference's and each
    right-hand side is D times the reference's."""
    steps, lps = [], []
    real_big, real_simplex = smp.iteration._big_iteration, smp.iteration.simplex_maximize

    def big(inst, state):
        new = real_big(inst, state)
        steps.append((inst, state, new, lps[-1]))
        return new

    def solve(lp):
        lps.append(lp)
        return real_simplex(lp)

    monkeypatch.setattr(smp.iteration, "_big_iteration", big)
    monkeypatch.setattr(smp.iteration, "simplex_maximize", solve)
    tied = [rand_marriage(random.Random(s), 4, cap=2, tie_prob=0.5) for s in range(40)]
    for inst in smp_pool() + sap_pool() + sdp_pool() + tied:
        solve_xmin_modified(inst)
    assert len(steps) >= 30 and len(lps) == len(steps)
    for inst, state, new, lp in steps:
        ref, ref_lp = reference_big_iteration(inst, exact_state(state))
        new = exact_state(new)
        for name in REFERENCE_FIELDS:
            assert getattr(new, name) == getattr(ref, name), name
        assert (lp.objective, lp.a_le) == (ref_lp.objective, ref_lp.a_le)
        assert lp.b_le == [state.den * rhs for rhs in ref_lp.b_le]


def test_aggregation_step_rescales_only_what_it_keeps(monkeypatch):
    """An aggregation step builds its successor from the capacities, quotas
    and bounds times k; the x, y and stored outcomes that its point replaces
    are never rescaled (`_rescaled` serves the round retry alone)."""
    inside, rescaled = [], []
    real_big, real_rescaled = smp.iteration._big_iteration, smp.iteration._rescaled

    def big(inst, state):
        inside.append(state)
        try:
            return real_big(inst, state)
        finally:
            inside.pop()

    def spy(state, k):
        if inside:
            rescaled.append(k)
        return real_rescaled(state, k)

    monkeypatch.setattr(smp.iteration, "_big_iteration", big)
    monkeypatch.setattr(smp.iteration, "_rescaled", spy)
    steps = []
    for s in range(40):
        inst = rand_marriage(random.Random(s), 4, cap=2, tie_prob=0.5)
        trace: list = []
        solve_xmin_modified(inst, trace)
        steps += [kind for kind, _, _ in trace if kind == "aggregated"]
    assert len(steps) == 21 and rescaled == []


def _final_attempt_calls(monkeypatch):
    """Record the vertex of every kernel call in the rounds, dropping the
    calls of an attempt that asked for a larger D (the round runs again)."""
    calls = []
    kernel = smp.iteration._choose_scaled

    def counting(inst, v, a, quota):
        out = kernel(inst, v, a, quota)
        if type(out) is int:
            calls.clear()
        else:
            calls.append(v)
        return out

    monkeypatch.setattr(smp.iteration, "_choose_scaled", counting)
    return calls


@pytest.mark.parametrize("family", ["tied", "strict", "chain"])
def test_rounds_compare_values_past_the_identity_shortcut(monkeypatch, family):
    """A round compares a firm's fresh choice with x, y with x, and the
    progress test x and the bounds with the capacity, as `int` numerators
    over the state's D; no comparison is settled by object identity.  From
    the same state held over 2·D, the round must choose at the same
    vertices, write the same values and get the same progress verdict."""
    inst = _family_instance(family, 1)
    calls = _final_attempt_calls(monkeypatch)

    def step(state):
        calls.clear()
        return ordinary_iteration_step(inst, state), list(calls)

    state = initial_state(inst)
    for _ in range(30):
        copied = _rescaled(state, 2)
        after, chosen = step(state)
        again, chosen_again = step(copied)
        assert chosen_again == chosen
        for name in REFERENCE_FIELDS:
            assert getattr(exact_state(again), name) == getattr(exact_state(after), name), name
        if not after.cut:
            break
        if state.round >= 0:
            verdict = reference_is_productive(
                reference_marker(inst, exact_state(state)), reference_marker(inst, exact_state(after))
            )
            assert smp.iteration._progressed(inst, state, after) == verdict
            assert smp.iteration._progressed(inst, copied, again) == verdict
        state = after
    assert not after.cut


def test_reduced_edges_compare_values_past_the_identity_shortcut():
    """A bound is reduced when it is below the capacity over the state's D:
    a bound at the capacity over a grown D is not, and a lowered one is."""
    inst = triangle_instance(F(8), F(15))
    f = inst.firms[0]
    kept, lowered = inst.incident[f][:2]
    state = _rescaled(initial_state(inst), 3)
    assert state.bounds[kept] == state.capacity[kept] == 3 * initial_state(inst).capacity[kept]
    state.bounds[lowered] -= 1
    assert _reduced_edges(inst, state, f) == {lowered}


def test_round_check_covers_the_edges_of_fresh_workers(monkeypatch):
    """A worker choice above its offer breaks x >= y on an edge whose firm did
    not choose again this round; the round itself must reject it."""
    inst = rand_marriage(random.Random(1), 6, cap=1)
    real = smp.iteration._choose_scaled
    seen = {"firms": set(), "last": None, "planted": None}

    def planted(inst, v, z, quota):
        out = real(inst, v, z, quota)
        if v in inst.firm_set:
            if seen["planted"] is not None:
                pytest.fail(f"round with a raised choice on {seen['planted']!r} was accepted")
            if seen["last"] == "worker":
                seen["firms"] = set()  # a new round starts
            seen["firms"].add(v)
            seen["last"] = "firm"
            return out
        seen["last"] = "worker"
        if seen["planted"] is None:
            for e in inst.incident[v]:
                if inst.edge_by_id[e].firm not in seen["firms"]:
                    seen["planted"] = e
                    result = dict(out.result)
                    result[e] = z[e] + 1
                    return out._replace(result=result)
        return out

    monkeypatch.setattr(smp.iteration, "_choose_scaled", planted)
    with pytest.raises(InvariantError, match="round breaks b >= x >= y >= 0") as exc:
        solve_xmin_modified(inst)
    assert seen["planted"] is not None and repr(seen["planted"]) in str(exc.value)


@pytest.mark.parametrize("plant", ["x above b", "y above x", "negative y"])
def test_round_check_compares_values_past_the_identity_shortcut(monkeypatch, plant):
    """The round check compares b >= x >= y >= 0 as numerators over D.  A
    firm choice above its bound, a worker choice above x on an edge where
    the firm kept its bound (b and x equal), or a negative worker choice
    must fail it."""
    inst = rand_marriage(random.Random(1), 6, cap=1)
    real = smp.iteration._rechoose_scaled
    seen = {"bounds": None, "planted": None}

    def plant_at(out, fresh, pick, value):
        for v in fresh:
            if seen["planted"] is not None:
                continue
            for e in inst.incident[v]:
                if pick(e):
                    result = dict(out[v].result)
                    result[e] = value(e)
                    out[v] = out[v]._replace(result=result)
                    seen["planted"] = e
                    return

    def planted(inst, vertices, z, state, changed, out):
        fresh = real(inst, vertices, z, state, changed, out)
        if vertices is inst.firms:  # a round starts: z is its input bounds
            if seen["planted"] is not None:
                pytest.fail(f"round with a planted choice on {seen['planted']!r} was accepted")
            seen["bounds"] = z
            if plant == "x above b":
                plant_at(out, fresh, lambda e: True, lambda e: z[e] + 1)
        elif plant == "y above x":
            b = seen["bounds"]
            plant_at(out, fresh, lambda e: z[e] == b[e], lambda e: z[e] + 1)
        elif plant == "negative y":
            plant_at(out, fresh, lambda e: True, lambda e: -1)
        return fresh

    monkeypatch.setattr(smp.iteration, "_rechoose_scaled", planted)
    with pytest.raises(InvariantError, match="round breaks b >= x >= y >= 0") as exc:
        solve_xmin_modified(inst)
    assert seen["planted"] is not None and repr(seen["planted"]) in str(exc.value)
