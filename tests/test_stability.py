"""Stability reports and side-wise comparison of stable assignments."""

import collections
import random
from fractions import Fraction as F

import pytest

import smp.choice
import smp.stability

from smp import (
    Edge,
    Instance,
    InstanceError,
    InvariantError,
    build_poset,
    compare_stable,
    enumerate_fully_closed,
    full_assignment,
    gamma,
    solve_xmin_modified,
    stability_report,
)
from smp.choice import choose
from smp.model import validate_assignment
from smp.stability import StabilityReport, _stability_report

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
    pref_odd = compare_stable(inst, odd, even)
    pref_even = compare_stable(inst, even, odd)
    assert pref_odd != pref_even  # exactly one direction wins
    better = odd if pref_odd else even
    worse = even if pref_odd else odd
    # the workers prefer the opposite one
    assert compare_stable(inst.swapped(), worse, better)
    assert not compare_stable(inst.swapped(), better, worse)


def test_compare_stable_rejects_unstable_input():
    inst = six_cycle_instance()
    half = {
        e: (SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2
        for e in inst.edge_ids
    }
    with pytest.raises(InstanceError, match="not stable"):
        compare_stable(inst, half, SIX_CYCLE_STABLE_ODD)


def test_compare_stable_checks_the_polarity_of_the_workers(monkeypatch):
    # every firm prefers x and no worker prefers y: the converse relation on
    # the workers fails, and with it the comparison
    monkeypatch.setattr(smp.stability, "prefers", lambda inst, v, z, zp: v in inst.firm_set)
    with pytest.raises(InvariantError, match="^polarity violated"):
        compare_stable(six_cycle_instance(), SIX_CYCLE_STABLE_ODD, SIX_CYCLE_STABLE_EVEN)


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
        _stability_report(inst, x, known=known or {})
    return str(exc.value)


@pytest.mark.parametrize("flaw", ["overflow", "negative", "over capacity"])
@pytest.mark.parametrize("known_at", ["every vertex", "firms", "workers", "one endpoint"])
def test_known_outcomes_reject_like_a_full_validation(monkeypatch, flaw, known_at):
    """Admissibility read off the box screen and the choices rejects exactly
    what the full validation rejects, with the same message.  An overflow
    within the box is not stationary at its vertex, known or fresh (its
    choice truncates); a point outside the box is rejected before any
    choice."""
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
    if flaw != "overflow":
        assert calls == []


@pytest.mark.parametrize("with_known", [True, False], ids=["known", "fresh"])
def test_admissible_points_sum_no_load(monkeypatch, with_known):
    """On an admissible point the box screen and the choices settle
    admissibility: `validate_assignment` and `vertex_load` never run, with
    or without known outcomes."""
    calls = []
    monkeypatch.setattr(smp.stability, "validate_assignment", lambda *a: calls.append(a))
    # `stability_report` sums no load, so `smp.stability` need not bind it
    monkeypatch.setattr(smp.stability, "vertex_load", lambda *a: calls.append(a), raising=False)
    checked = 0
    for seed in range(40):
        rng = random.Random(f"noload{seed}")
        inst = random_instance(rng, max_edges=8)
        for x in (_admissible_point(rng, inst), solve_xmin_modified(inst)):
            if with_known:
                known = {v: choose(inst, v, x) for v in inst.vertices()}
                _stability_report(inst, full_assignment(inst, x), known=known)
            else:
                stability_report(inst, x)
            checked += 1
    assert checked == 80 and calls == []


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
        v: out._replace(result={eid: x[eid] for eid in inst.incident[v]})
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


def _reference_report(inst, x):
    """`stability_report` as it stood with the full validation up front: its
    validate-first path (no known outcomes), kept verbatim but for the
    inlined `_require_admissible` and the below-capacity set, compared by
    plain `Fraction` order, as the reference for admissibility read off the
    choices."""
    x = full_assignment(inst, x)
    violations = validate_assignment(inst, x)
    if violations:
        raise InstanceError("assignment not admissible: " + "; ".join(violations))
    outcomes = {v: choose(inst, v, x) for v in inst.vertices()}
    for v, out in outcomes.items():
        xv = {e: x[e] for e in inst.incident[v]}
        if out.result != xv:
            raise InstanceError(f"assignment not stationary at vertex {v!r}")

    blocking = []
    for eid in inst.edge_ids:
        e = inst.edge_by_id[eid]
        val, cap = x[eid], e.capacity
        if val is cap or (val.numerator and val >= cap):
            continue
        in_both_tails = eid in outcomes[e.firm].tail and eid in outcomes[e.worker].tail
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

    return StabilityReport(
        stable=not blocking,
        blocking_edges=blocking,
        fully_filled=frozenset(v for v in inst.vertices() if not outcomes[v].deficit),
        outcomes=outcomes,
        unsaturated=frozenset(e.id for e in inst.edges if 0 <= x[e.id] < e.capacity),
    )


def _admissible_point(rng, inst):
    """A random point of the box within every quota; edges are filled in a
    random order, each to a random share of what its capacity and both
    endpoints' remaining quotas allow, so many vertices end at their quota."""
    room = dict(inst.quota)
    x = {}
    edges = list(inst.edges)
    rng.shuffle(edges)
    for e in edges:
        top = min(e.capacity, room[e.firm], room[e.worker])
        share = rng.choice([F(0), F(1, 3), F(1, 2), F(1), F(1), F(1)])
        x[e.id] = e.capacity if top is e.capacity and share == 1 else top * share
        room[e.firm] -= x[e.id]
        room[e.worker] -= x[e.id]
    return x


def _screened_point(rng, inst):
    """An admissible point with some values lowered, to 0 or below the
    capacity, and some capacity objects swapped for an equal `Fraction`;
    every third point then takes one negative or over-capacity value.
    Lowering a value keeps the point within every quota."""
    x = _admissible_point(rng, inst)
    for e in inst.edges:
        move = rng.choice(["keep", "keep", "zero", "lower", "copy"])
        if move == "zero":
            x[e.id] = F(0)
        elif move == "lower":
            x[e.id] = x[e.id] * F(rng.randint(1, 3), 4)
        elif move == "copy" and x[e.id] == e.capacity:
            x[e.id] = F(e.capacity.numerator, e.capacity.denominator)
    if rng.randrange(3) == 0:
        e = rng.choice(inst.edges)
        x[e.id] = rng.choice([-e.capacity / 2, -F(1), e.capacity + F(1, 3), e.capacity * 2])
    return x


def test_box_screen_collects_the_edges_below_capacity():
    """The one-pass box screen against plain `Fraction` order: the report's
    below-capacity set is {e : 0 <= x_e < cap_e} on 0, on the capacity
    object, on a value equal to the capacity but another object and on
    values strictly between, and a point outside the box raises the full
    validation's exception and message."""
    seen = collections.Counter()
    for seed in range(150):
        rng = random.Random(f"screen{seed}")
        inst = (
            random_instance(rng, max_edges=8)
            if seed % 2
            else rand_marriage(rng, 3, cap=2, tie_prob=0.4)
        )
        x = full_assignment(inst, _screened_point(rng, inst))
        expected = _verdict(lambda: _reference_report(inst, x))
        assert _verdict(lambda: stability_report(inst, x)) == expected, seed
        if expected[0] is InstanceError:
            assert expected[1].startswith("assignment not admissible: "), seed
            seen["outside the box"] += 1
            continue
        for e in inst.edges:
            val, cap = x[e.id], e.capacity
            if val is cap:
                seen["capacity object"] += 1
            elif val == cap:
                seen["equal copy"] += 1
            else:
                seen["zero" if val == 0 else "between"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def _flawed_points(rng, inst):
    """Admissible, negative, over-capacity and, at each vertex whose edges
    can carry more than its quota, overloaded points (a label and x); then
    one edge at a value equal to its capacity but another `Fraction`, and
    one just below its capacity over a larger denominator, which the box
    screen's cross-multiplied comparison tells apart."""
    base = _admissible_point(rng, inst)
    yield "admissible", base
    e = rng.choice(inst.edges)
    yield "negative", {**base, e.id: -rng.choice([F(1, 2), F(1), e.capacity])}
    yield "over capacity", {**base, e.id: e.capacity + rng.choice([F(1, 3), F(1)])}
    for v in inst.vertices():
        if sum(inst.edge_by_id[eid].capacity for eid in inst.incident[v]) > inst.quota[v]:
            over = dict(base)
            for eid in inst.incident[v]:
                over[eid] = inst.edge_by_id[eid].capacity
            yield f"overload at {v}", over
    e = rng.choice(inst.edges)
    cap = e.capacity
    copy = F(cap.numerator, cap.denominator)
    assert copy is not cap and copy == cap
    yield "equal copy", {**base, e.id: copy}
    below = cap - F(1, 97 * cap.denominator)
    assert below.denominator > cap.denominator
    yield "just below", {**base, e.id: below}


def _verdict(report_fn):
    """The report's fields, or the exception's type and message."""
    try:
        rep = report_fn()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return rep.stable, rep.blocking_edges, rep.fully_filled, rep.outcomes, rep.unsaturated


def test_report_matches_the_validate_first_reference():
    """Admissibility read off the box screen and the choices gives the same
    report, or the same exception with the same message, as a full
    validation up front, for every set of known outcomes."""
    seen = collections.Counter()
    for seed in range(60):
        rng = random.Random(f"ref{seed}")
        inst = (
            random_instance(rng, max_edges=8)
            if seed % 2
            else rand_marriage(rng, 3, cap=2, tie_prob=0.4)
        )
        for label, x in _flawed_points(rng, inst):
            x = full_assignment(inst, x)
            expected = _verdict(lambda: _reference_report(inst, x))
            known_at = {
                "every vertex": inst.vertices(),
                "firms": inst.firms,
                "workers": inst.workers,
                "one endpoint": [inst.edges[0].firm],
            }
            for name, vertices in known_at.items():
                # a choice is defined only on nonnegative offers
                known = {
                    v: choose(inst, v, x)
                    for v in vertices
                    if all(x[eid] >= 0 for eid in inst.incident[v])
                }
                assert _verdict(lambda: _stability_report(inst, x, known=known)) == expected, (seed, label, name)
            assert _verdict(lambda: stability_report(inst, x)) == expected, (seed, label)
            kind = label.split(" at ")[0]
            seen[kind, expected[0] is InstanceError] += 1
    # every kind of point ran, and the overloads and box violations were
    # rejected while admissible points were reported
    assert seen["admissible", False] == 60
    assert seen["negative", True] == seen["over capacity", True] == 60
    assert seen["overload", True] >= 100 and not seen["overload", False]


def test_another_points_outcomes_are_rejected_or_give_the_fresh_report():
    """`_stability_report` trusts the outcomes it is handed.  Each stable
    point of these tied marriages, given another stable point's outcomes at
    every vertex where their results agree, is rejected or gets the report
    it gets with nothing known: never another report."""
    pairs = 0
    for seed in range(180):
        inst = rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.3)
        poset = build_poset(inst)
        points = [gamma(inst, poset, lam) for lam in enumerate_fully_closed(poset)]
        reports = [stability_report(inst, x) for x in points]
        for x, fresh in zip(points, reports):
            for other in reports:
                if other is fresh:
                    continue
                known = {
                    v: out for v, out in other.outcomes.items() if out.result == fresh.outcomes[v].result
                }
                pairs += 1
                try:
                    report = _stability_report(inst, x, known=known)
                except InstanceError:
                    continue
                assert report == fresh, seed
    assert pairs >= 400, pairs
