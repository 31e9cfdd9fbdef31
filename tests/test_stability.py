"""Stability reports and side-wise comparison of stable assignments."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

import smp.choice

from smp import (
    Edge,
    Instance,
    InstanceError,
    compare_stable,
    full_assignment,
    solve_xmin_modified,
    stability_report,
)
from smp.choice import choose

from gen import (
    SIX_CYCLE_STABLE_EVEN,
    SIX_CYCLE_STABLE_ODD,
    rand_marriage,
    random_instance,
    six_cycle_instance,
    triangle_instance,
)


def test_triangle_uniform_assignment_is_stable():
    inst = triangle_instance(F(8), F(15))
    rep = stability_report(inst, {e: F(8) for e in inst.edge_ids})
    assert rep.stable
    assert rep.blocking_edges == []
    assert rep.fully_filled == frozenset(inst.vertices())
    assert frozenset(inst.vertices()) - rep.fully_filled == frozenset()


def test_six_cycle_both_matchings_stable():
    inst = six_cycle_instance()
    for x in (SIX_CYCLE_STABLE_ODD, SIX_CYCLE_STABLE_EVEN):
        rep = stability_report(inst, x)
        assert rep.stable
        assert rep.blocking_edges == []
        assert rep.fully_filled == frozenset(inst.vertices())


def test_six_cycle_half_sum_is_blocked_by_the_chord():
    # the average of two stable assignments need not be stable
    inst = six_cycle_instance()
    half = {
        e: (SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2
        for e in inst.edge_ids
    }
    rep = stability_report(inst, half)
    assert not rep.stable
    assert rep.blocking_edges == ["a"]


def test_inadmissible_assignment_raises():
    inst = triangle_instance(F(8), F(15))
    with pytest.raises(InstanceError, match="not admissible"):
        stability_report(inst, {"f1w1": F(99)})


def test_admissible_assignments_are_stationary():
    # once the box and quota constraints hold, every vertex keeps exactly what
    # it is given (the quota boundary never truncates), so the report's
    # stationarity guard cannot fire -- partial assignments just get analyzed
    inst = six_cycle_instance()
    x = full_assignment(inst, {"e1": F(1, 2)})
    rep = stability_report(inst, x)
    assert not rep.stable
    # every vertex is in deficit, so every unsaturated edge blocks
    assert rep.blocking_edges == sorted(inst.edge_ids)


def test_compare_stable_six_cycle_sides():
    inst = six_cycle_instance()
    odd, even = SIX_CYCLE_STABLE_ODD, SIX_CYCLE_STABLE_EVEN
    pref_odd = compare_stable(inst, odd, even, side="firms")
    pref_even = compare_stable(inst, even, odd, side="firms")
    assert pref_odd != pref_even  # exactly one direction wins
    better = odd if pref_odd else even
    worse = even if pref_odd else odd
    # the workers prefer the opposite one
    assert compare_stable(inst, worse, better, side="workers")
    assert not compare_stable(inst, better, worse, side="workers")


def test_compare_stable_rejects_unstable_input():
    inst = six_cycle_instance()
    half = {
        e: (SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2
        for e in inst.edge_ids
    }
    with pytest.raises(InstanceError, match="not stable"):
        compare_stable(inst, half, SIX_CYCLE_STABLE_ODD)
    with pytest.raises(ValueError, match="side"):
        compare_stable(inst, SIX_CYCLE_STABLE_ODD, SIX_CYCLE_STABLE_EVEN, side="both")


def test_dual_route_blocking_check_on_random_assignments():
    # the report internally cross-checks two blocking formulations per edge;
    # exercise it broadly on random admissible points
    count = 0
    for seed in range(200):
        rng = random.Random(f"stab{seed}")
        inst = random_instance(rng, max_edges=8)
        x = {}
        for e in inst.edges:
            cap = e.capacity
            x[e.id] = cap * F(rng.randint(0, 4), 4)
        try:
            stability_report(inst, x)
            count += 1
        except InstanceError:
            continue
    assert count > 10  # enough admissible, stationary samples actually ran


def _rejection(inst, x, known=None):
    with pytest.raises(InstanceError) as exc:
        stability_report(inst, x, known)
    return str(exc.value)


@pytest.mark.parametrize("flaw", ["overflow", "negative", "over capacity"])
@pytest.mark.parametrize("known_at", ["every vertex", "firms", "workers", "one endpoint"])
def test_known_outcomes_reject_like_a_full_validation(monkeypatch, flaw, known_at):
    """Admissibility derived from known outcomes rejects exactly what the full
    validation rejects, with the same message.  An overflow within the box
    is not stationary at a known endpoint (its choice truncates) and fails
    the load sum at a fresh one; a point outside the box, or overloaded at a
    fresh vertex, is rejected before any choice."""
    inst = rand_marriage(random.Random(3), 4, cap=2, tie_prob=0.5)
    x = solve_xmin_modified(inst)
    e = min(eid for eid in inst.edge_ids if x[eid] == 0)
    edge = inst.edge_by_id[e]
    x[e] = {"overflow": F(1), "negative": F(-1), "over capacity": F(3)}[flaw]
    vertices = {
        "every vertex": inst.vertices(),
        "firms": inst.firms,
        "workers": inst.workers,
        "one endpoint": [edge.firm],
    }[known_at]
    # a choice is defined only on nonnegative offers
    choosable = [v for v in vertices if flaw != "negative" or e not in inst.incident[v]]
    known = {v: choose(inst, v, x) for v in choosable}
    expected = _rejection(inst, x)
    assert expected.startswith("assignment not admissible: ")
    calls = []
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: calls.append(v) or choose(inst, v, z))
    assert _rejection(inst, x, known) == expected
    fresh_overload = any(
        v not in known and sum(x[e] for e in inst.incident[v]) > inst.quota[v]
        for v in inst.vertices()
    )
    if flaw != "overflow" or fresh_overload:
        assert calls == []


@pytest.mark.parametrize("flaw", ["negative", "over capacity"])
def test_box_screen_compares_values_past_the_identity_shortcut(flaw):
    """The box screen takes a value that is the capacity object as in the box;
    a negative value, or one above a capacity it is not, must still be
    rejected with the full validation's message, even where every known
    outcome is planted as stationary so that nothing else catches it."""
    inst = rand_marriage(random.Random(3), 4, cap=2, tie_prob=0.5)
    x = solve_xmin_modified(inst)
    report = stability_report(inst, x)
    e = min(eid for eid in inst.edge_ids if x[eid] == 0)
    cap = inst.edge_by_id[e].capacity
    x[e] = {"negative": F(-1), "over capacity": cap + 1}[flaw]
    assert x[e] is not cap
    known = {
        v: dataclasses.replace(out, result={eid: x[eid] for eid in inst.incident[v]})
        for v, out in report.outcomes.items()
    }
    expected = _rejection(inst, x)
    assert expected.startswith("assignment not admissible: ")
    assert _rejection(inst, x, known) == expected


def test_saturation_compares_values_past_the_identity_shortcut():
    """An edge at its capacity cannot block, also where its value is not the
    capacity object: both endpoints of this one edge have room to spare, so
    the edge sits in both tails and only its saturation excuses it."""
    cap = F(7, 2)
    inst = Instance(
        ["f"], ["w"], [Edge("e", "f", "w", cap)], {"f": F(5), "w": F(5)}, {"f": [["e"]], "w": [["e"]]}
    )
    x = {"e": F(7, 2)}
    assert x["e"] is not inst.edge_by_id["e"].capacity
    report = stability_report(inst, x)
    assert report.stable and report.blocking_edges == []
    assert frozenset(inst.vertices()) - report.fully_filled == {"f", "w"}
    below = stability_report(inst, {"e": F(3)})
    assert below.blocking_edges == ["e"]
