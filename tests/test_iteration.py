"""Side-optimal solvers: proposal/cut rounds, LP aggregation, quota filling."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import smp.choice
import smp.iteration
from smp import (
    InstanceError,
    build_extended_instance,
    compare_stable,
    initial_state,
    ordinary_iteration_step,
    solve_quota_filling,
    solve_xmax,
    solve_xmin,
    solve_xmin_modified,
    stability_report,
    vertex_load,
)
from smp.choice import choose
from smp.bruteforce import oracle_enumerate_stable

from gen import (
    SIX_CYCLE_STABLE_EVEN,
    SIX_CYCLE_STABLE_ODD,
    rand_marriage,
    random_instance,
    six_cycle_instance,
    triangle_instance,
)


def test_ordinary_iteration_monotone_and_terminal_on_triangle():
    inst = triangle_instance(F(8), F(15))
    state = initial_state(inst)
    prev_bounds = dict(state.bounds)
    for _ in range(5):
        state = ordinary_iteration_step(inst, state)
        assert all(state.bounds[e] <= prev_bounds[e] for e in inst.edge_ids)
        prev_bounds = dict(state.bounds)
        if state.terminal:
            break
    assert state.terminal
    assert stability_report(inst, state.x).stable


def test_solve_xmin_triangle_is_uniform():
    inst = triangle_instance(F(8), F(15))
    assert solve_xmin(inst) == {e: F(8) for e in inst.edge_ids}


def test_xmin_and_xmax_bracket_the_six_cycle():
    inst = six_cycle_instance()
    xmin = solve_xmin(inst)
    xmax = solve_xmax(inst)
    assert {tuple(sorted(xmin.items())), tuple(sorted(xmax.items()))} == {
        tuple(sorted(SIX_CYCLE_STABLE_ODD.items())),
        tuple(sorted(SIX_CYCLE_STABLE_EVEN.items())),
    }
    assert compare_stable(inst, xmin, xmax, side="firms").holds
    assert compare_stable(inst, xmax, xmin, side="workers").holds


def test_xmin_is_firm_optimal_against_enumeration():
    for seed in range(25):
        rng = random.Random(f"fopt{seed}")
        inst = random_instance(
            rng, max_edges=6, singleton_ties=True, integral=True, max_value=2
        )
        xmin = solve_xmin(inst)
        assert stability_report(inst, xmin).stable
        for other in oracle_enumerate_stable(inst):
            assert compare_stable(inst, xmin, other, side="firms").holds


def test_xmax_is_worker_optimal_against_enumeration():
    for seed in range(15):
        rng = random.Random(f"wopt{seed}")
        inst = random_instance(
            rng, max_edges=6, singleton_ties=True, integral=True, max_value=2
        )
        xmax = solve_xmax(inst)
        for other in oracle_enumerate_stable(inst):
            assert compare_stable(inst, xmax, other, side="workers").holds


def test_solver_handles_ties_families():
    for seed in range(20):
        rng = random.Random(f"fam{seed}")
        inst = random_instance(rng, max_edges=12)
        xmin = solve_xmin_modified(inst)
        assert stability_report(inst, xmin).stable


def test_initial_state_requires_finite_capacities():
    # only the internal depot construction ever creates an unbounded edge,
    # so reuse it to exercise the guard
    ext = build_extended_instance(six_cycle_instance()).ext
    with pytest.raises(InstanceError, match="finite"):
        initial_state(ext)


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
        res = solve_quota_filling(inst)
        assert res.quota_filling
        rep = stability_report(inst, res.assignment)
        assert rep.stable and rep.deficit == frozenset()
        # the returned point is the worker-optimal assignment
        assert res.assignment == solve_xmax(inst)


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
    res = solve_quota_filling(inst)
    assert not res.quota_filling
    assert res.assignment is None


def test_extended_instance_layout():
    inst = six_cycle_instance()
    extended = build_extended_instance(inst)
    ext = extended.ext
    # one depot edge per real vertex plus the root
    assert len(ext.edges) == len(inst.edges) + len(inst.vertices()) + 1
    # each firm ranks its depot edge best, each worker ranks its depot worst
    for f in inst.firms:
        assert ext.corteges[f][0] == (f"__b_{f}",)
    for w in inst.workers:
        assert ext.corteges[w][-1] == (f"__a_{w}",)
    # depot quotas absorb the whole opposite side
    assert ext.quota[extended.depot_firm] == sum(
        (inst.quota[w] for w in inst.workers), F(0)
    )
    seed = extended.seed()
    assert all(seed[e] == 0 for e in inst.edge_ids)


def test_solver_respects_step_cap_env(monkeypatch):
    inst = triangle_instance(F(8), F(15))
    monkeypatch.setenv("SMP_MAX_STEPS", "50")
    assert solve_xmin_modified(inst) == {e: F(8) for e in inst.edge_ids}


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
        if kind == "aggregated":
            assert set(state.outcomes) == state.fully_workers
            for w in state.fully_workers:
                assert state.outcomes[w] == choose(inst, w, state.y)
            continue
        assert state.fully_firms == {
            f for f in inst.firms if vertex_load(inst, state.x, f) == inst.quota[f]
        }
        assert state.fully_workers == {
            w for w in inst.workers if vertex_load(inst, state.y, w) == inst.quota[w]
        }
        # every vertex's stored outcome is, in every field, a fresh choice from
        # its input: the round's input bounds for a firm, x for a worker
        assert set(state.outcomes) == set(inst.vertices())
        for f in inst.firms:
            assert state.outcomes[f] == choose(inst, f, before.bounds)
        for w in inst.workers:
            assert state.outcomes[w] == choose(inst, w, state.x)
        for f in state.fully_firms:
            assert state.outcomes[f].head == choose(inst, f, state.x).head
        for w in state.fully_workers:
            fresh = choose(inst, w, state.y)
            stored = state.outcomes[w]
            assert (stored.head, stored.critical_tie) == (fresh.head, fresh.critical_tie)


def test_rounds_rechoose_only_where_the_input_changed(monkeypatch):
    """An ordinary round chooses at the vertices whose input changed since their
    stored choice or that have none, an aggregation step at the fully filled
    workers it carries over, and nothing else chooses outside the stability
    tests and the normalising route (their calls are tagged apart; the carry
    tests in test_poset.py count them)."""
    inst = rand_marriage(random.Random(0), 4, cap=2, tie_prob=0.5)
    rounds = _recorded_rounds(monkeypatch)
    calls = []  # the index of the round each call is made in
    analysing = []

    def counting_choose(inst, v, z):
        calls.append("analysis" if analysing else len(rounds))
        return choose(inst, v, z)

    def tagged(fn):
        def run(*args, **kwargs):
            analysing.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                analysing.pop()

        return run

    # the rounds choose through `choice._rechoose`, the aggregation step directly
    monkeypatch.setattr(smp.choice, "choose", counting_choose)
    monkeypatch.setattr(smp.iteration, "choose", counting_choose)
    for name in ("stability_report", "run_route"):
        monkeypatch.setattr(smp.iteration, name, tagged(getattr(smp.iteration, name)))
    solve_xmin_modified(inst)
    expected = []
    firm_input = None  # the bounds the stored firm choices were made from
    for kind, before, after in rounds:
        if kind == "aggregated":
            expected.append(len(after.fully_workers))
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
    carried = [len(after.fully_workers) for kind, _, after in rounds if kind == "aggregated"]
    ordinary = len(rounds) - len(carried)
    assert carried
    rounds_calls = len(calls) - calls.count("analysis")
    assert rounds_calls < ordinary * len(inst.vertices()) + sum(carried)
