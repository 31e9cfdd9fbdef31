"""Active structure, rotation extraction, maximal shift weights, routing."""

import random
import sys
from fractions import Fraction as F

import pytest

import smp.rotations
from smp import (
    InvariantError,
    apply_shift,
    build_active_structure,
    build_poset,
    choose,
    compare_stable,
    enumerate_fully_closed,
    extract_rotation,
    full_assignment,
    gamma,
    max_weight,
    maximal_components,
    run_route,
    solve_xmin_modified,
    stability_report,
)
from smp.rotations import ActiveStructure, Rotation, _check_rotation_invariants, endpoints

from gen import (
    TRIANGLE_ROTATION,
    chained_instance,
    chained_rotation,
    rand_marriage,
    random_instance,
    six_cycle_instance,
    triangle_instance,
)
from test_kernels import chain_family


def triangle_setup(a, b):
    inst = triangle_instance(a, b)
    x = full_assignment(inst, {e: a for e in inst.edge_ids})
    act = build_active_structure(inst, stability_report(inst, x))
    comps = maximal_components(inst, act)
    return inst, x, act, comps


def test_triangle_active_structure_spans_all_vertices():
    inst, x, act, comps = triangle_setup(F(8), F(15))
    assert len(comps) == 1
    assert set(comps[0]) == set(inst.vertices())


def test_triangle_rotation_matches_frozen_vector():
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    assert rot.values == TRIANGLE_ROTATION
    assert min(rot.values.values()) == F(-8)
    assert max(rot.values.values()) == F(7)
    assert rot.tau == F(1)


@pytest.mark.parametrize(
    "a,b,expected_tau",
    [(F(8), F(15), F(1)), (F(8), F(100), F(1)), (F(16), F(17), F(1, 7))],
)
def test_triangle_tau_is_min_of_load_and_capacity_slack(a, b, expected_tau):
    inst, x, act, comps = triangle_setup(a, b)
    rot = extract_rotation(inst, x, comps[0], act)
    assert rot.values == TRIANGLE_ROTATION
    # binding terms: dropping 8 units per step from a stock of a, and raising
    # 7 units per step into headroom b - a
    assert rot.tau == min(a / 8, (b - a) / 7) == expected_tau
    assert max_weight(inst, x, rot.values, act) == rot.tau


@pytest.mark.parametrize("k", [1, 2, 3, 8, 10])
def test_chained_instance_rotation_recurrence(k):
    inst = chained_instance(k, F(8 * 4 ** (k - 1)), F(15 * 4 ** (k - 1)))
    a = F(8 * 4 ** (k - 1))
    x = full_assignment(inst, {e: a for e in inst.edge_ids})
    assert stability_report(inst, x).stable
    act = build_active_structure(inst, stability_report(inst, x))
    comps = maximal_components(inst, act)
    assert len(comps) == 1
    rot = extract_rotation(inst, x, comps[0], act)
    assert rot.values == chained_rotation(k)
    assert len(inst.vertices()) == 5 * k + 1


def test_apply_shift_partial_weight_keeps_rotation_applicable():
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    y = apply_shift(inst, x, [rot], [rot.tau / 2])  # verify=True checks stability
    assert y["f2w1"] == F(8) - F(4)
    act2 = build_active_structure(inst, stability_report(inst, y))
    comps2 = maximal_components(inst, act2)
    assert len(comps2) == 1
    rot2 = extract_rotation(inst, y, comps2[0], act2)
    assert rot2.values == rot.values
    assert rot2.tau == rot.tau / 2


def test_apply_shift_rejects_bad_weights_and_overlaps():
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    with pytest.raises(ValueError, match="outside"):
        apply_shift(inst, x, [rot], [F(0)])
    with pytest.raises(ValueError, match="outside"):
        apply_shift(inst, x, [rot], [rot.tau * 2])
    with pytest.raises(ValueError, match="disjoint"):
        apply_shift(inst, x, [rot, rot], [rot.tau / 2, rot.tau / 2])
    with pytest.raises(ValueError, match="one weight"):
        apply_shift(inst, x, [rot], [])


@pytest.mark.parametrize("weight", [0.5, 1.0, True], ids=["half-float", "tau-float", "bool"])
def test_apply_shift_rejects_inexact_weights(weight):
    """A float or `bool` weight inside (0, τ] is refused: it would turn the
    shifted values into floats, or pass a truth value off as a weight."""
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    assert rot.tau == 1
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        apply_shift(inst, x, [rot], [weight])


def test_full_shift_exhausts_the_triangle_rotation():
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    y = apply_shift(inst, x, [rot], [rot.tau])
    assert not maximal_components(inst, build_active_structure(inst, stability_report(inst, y)))
    # the shift moved weight the firms' way down and the workers' way up
    assert compare_stable(inst, x, y)
    assert compare_stable(inst.swapped(), y, x)


def test_run_route_is_order_invariant():
    for seed in range(8):
        inst = rand_marriage(random.Random(f"route{seed}"), 4, cap=2, tie_prob=0.3)
        start = solve_xmin_modified(inst)
        baseline = None
        for order_seed in range(3):
            route = run_route(inst, start, rng=random.Random(order_seed))
            # every shift lands on a stable point strictly worse for the firms
            for prev, nxt in zip(route.states, route.states[1:]):
                assert stability_report(inst, nxt).stable
                assert compare_stable(inst, prev, nxt)
                assert nxt != prev
            omega = sorted((rot.key(), rot.tau) for rot in route.steps)
            if baseline is None:
                baseline = (route.states[-1], omega)
            else:
                assert (route.states[-1], omega) == baseline


def test_build_active_structure_chooses_once_per_vertex(monkeypatch):
    import smp.choice

    real = smp.choice.choose
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    # patch every module that bound `choose` by name
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "smp" and getattr(mod, "choose", None) is real:
            monkeypatch.setattr(mod, "choose", counting)
    inst, x, _, _ = triangle_setup(F(8), F(15))
    calls.clear()
    build_active_structure(inst, stability_report(inst, x))
    assert sorted(calls) == sorted(inst.vertices())


def test_rotation_invariants_on_random_marriage_instances():
    # circulation (loads preserved), integer gcd-1 values, positive tau
    for seed in range(10):
        inst = rand_marriage(random.Random(f"inv{seed}"), 4, cap=2, tie_prob=0.25)
        x = solve_xmin_modified(inst)
        act = build_active_structure(inst, stability_report(inst, x))
        for comp in maximal_components(inst, act):
            rot = extract_rotation(inst, x, comp, act)
            assert rot.tau > 0
            assert all(v.denominator == 1 for v in rot.values.values())
            for v in comp:
                change = sum(
                    (rot.values.get(e, F(0)) for e in inst.incident[v]), F(0)
                )
                assert change == 0, "rotation must preserve every vertex load"


def test_nonpositive_max_weight_is_an_invariant_error():
    # a rotation dropping on an edge that carries nothing admits no shift
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    dropped = next(e for e, v in rot.values.items() if v < 0)
    y = dict(full_assignment(inst, x), **{dropped: F(0)})
    with pytest.raises(InvariantError, match="maximal admissible weight must be positive"):
        max_weight(inst, y, rot.values, act)


def test_rotation_values_hold_exactly_the_support():
    # the raise side D_f and the drop side H_w of each vertex are the support
    insts = [six_cycle_instance()]
    insts += [rand_marriage(random.Random(s), 5, cap=1) for s in (2, 6, 7)]
    for inst in insts:
        rotations = build_poset(inst).rotations
        assert len(rotations) >= 2
        for rot in rotations:
            assert all(v != 0 for v in rot.values.values())
            assert len(rot.values) < len(inst.edges)
        # at every state of the base route, each rotation's support is the
        # union of the heads over its sink component, and the support's
        # endpoints are that component
        for x in run_route(inst, solve_xmin_modified(inst)).states:
            act = build_active_structure(inst, stability_report(inst, x))
            for comp in maximal_components(inst, act):
                rot = extract_rotation(inst, x, comp, act)
                assert set(rot.values) == set().union(*(act.heads[v] for v in comp))
                assert endpoints(inst, rot.values) == list(comp)


@pytest.mark.parametrize(
    "inst",
    [
        six_cycle_instance(),
        triangle_instance(F(8), F(15)),
        chained_instance(4, F(8), F(15)),
        rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.5),
    ],
    ids=["six_cycle", "triangle", "chain", "tied marriage"],
)
def test_rotation_values_are_ints(inst):
    # the balance solve's integer generator is stored as it is
    rotations = build_poset(inst).rotations
    assert rotations
    for rot in rotations:
        assert all(type(v) is int for v in rot.values.values())


# Hand-built vectors on the complete 4x4 graph (edge "fiwj" joins f_i and
# w_j), each breaking one rotation invariant, with the check's exact message.
SIX_CYCLE = {"f0w0": 1, "f1w0": -1, "f1w1": 1, "f2w1": -1, "f2w2": 1, "f0w2": -1}
BROKEN_ROTATIONS = {
    "conservation": ({"f0w0": 1}, "rotation not conserved at 'f0'"),
    # f0 raises by 1 and by 2
    "firm alignment": (
        {"f0w0": 1, "f0w1": 2, "f0w2": -3, "f1w0": -1, "f1w1": -2, "f1w2": 3},
        "rotation not aligned at firm 'f0'",
    ),
    # w0 drops by 1 and by 2
    "worker alignment": (
        {"f0w0": -1, "f1w0": -2, "f2w0": 3, "f0w1": 1, "f1w1": 2, "f2w1": -3},
        "rotation not aligned at worker 'w0'",
    ),
    # a zero between f0, which raises, and w1, which drops: no side takes it
    "zero value": (
        {**SIX_CYCLE, "f0w1": 0},
        "rotation value on edge 'f0w1' not a nonzero integer",
    ),
    # a conserved, aligned and coprime support whose values are not integers
    "fractional value": (
        {e: F(v, 2) for e, v in SIX_CYCLE.items()},
        "rotation value on edge 'f0w0' not a nonzero integer",
    ),
    "connectivity": (
        {"f0w0": 1, "f0w1": -1, "f1w1": 1, "f1w0": -1,
         "f2w2": 1, "f2w3": -1, "f3w3": 1, "f3w2": -1},
        "rotation support is disconnected",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_ROTATIONS))
def test_rotation_checks_name_the_broken_invariant(name):
    # the checks raise InvariantError, so they hold under `python -O` too
    inst = rand_marriage(random.Random(0), 4)
    _check_rotation_invariants(inst, dict(SIX_CYCLE))
    values, message = BROKEN_ROTATIONS[name]
    with pytest.raises(InvariantError) as exc:
        _check_rotation_invariants(inst, dict(values))
    assert str(exc.value) == message


@pytest.mark.parametrize("extra", [0, 1], ids=["at the bound", "past the bound"])
def test_route_guard_is_twice_the_edge_count(monkeypatch, extra):
    # a planted analysis offers the same rotation 2·|E| + extra times
    inst, x, act, comps = triangle_setup(F(8), F(15))
    rot = extract_rotation(inst, x, comps[0], act)
    bound = 2 * len(inst.edges)
    idle = ActiveStructure({}, {}, frozenset())
    calls = []

    def planted(inst, x, *, cache, known):
        calls.append(x)
        return (act, [rot]) if len(calls) <= bound + extra else (idle, [])

    monkeypatch.setattr(smp.rotations, "_applicable_rotations", planted)
    if extra:
        with pytest.raises(InvariantError, match=f"route exceeded {bound} shifts"):
            run_route(inst, x)
    else:
        assert len(run_route(inst, x).steps) == bound


def _reference_sink_components(inst, act):
    """Sink strong components from the boolean transitive closure of the heads."""
    verts = sorted(act.regular)
    arcs = {(v, inst.edge_by_id[e].other(v)) for v in verts for e in act.heads[v]}
    closure = [[v == u or (v, u) in arcs for u in verts] for v in verts]
    for k in range(len(verts)):
        for i in range(len(verts)):
            if closure[i][k]:
                closure[i] = [a or b for a, b in zip(closure[i], closure[k])]
    comps = set()
    for i, v in enumerate(verts):
        reached = [j for j in range(len(verts)) if closure[i][j]]
        if all(closure[j][i] for j in reached):
            comps.add(tuple(verts[j] for j in reached))
    return sorted(comps)


def _reference_regular(inst, x, act):
    """The cleaning as a fixpoint: drop fully filled vertices whose head is
    empty or leaves the remaining set, until none is left to drop."""
    remaining = set(stability_report(inst, x).fully_filled)
    while True:
        dropped = {
            v for v in remaining
            if not act.heads[v]
            or any(inst.edge_by_id[e].other(v) not in remaining for e in act.heads[v])
        }
        if not dropped:
            return remaining
        remaining -= dropped


ROUTE_FAMILIES = {
    "marriage": [
        rand_marriage(random.Random(s), n, cap=2, tie_prob=p)
        for n in range(4, 8) for p in (0, 0.3, 0.5) for s in range(2)
    ] + [
        # strict marriages with two sink components at x_min
        rand_marriage(random.Random(s), n) for n, s in ((5, 38), (6, 35), (7, 11))
    ],
    "chain": [chained_instance(k, F(8), F(15)) for k in range(2, 7)],
    "six_cycle": [six_cycle_instance()],
    "triangle": [triangle_instance(F(8), F(15))],
}


@pytest.mark.parametrize("family", sorted(ROUTE_FAMILIES))
def test_walks_match_closure_and_fixpoint_references(family):
    # at every state of the route from x_min, the sink components equal those
    # of the transitive closure and the regular set equals the cleaning's
    # fixpoint; neither reference uses the library's `_reach`
    most = 0
    for inst in ROUTE_FAMILIES[family]:
        for x in run_route(inst, solve_xmin_modified(inst)).states:
            act = build_active_structure(inst, stability_report(inst, x))
            assert act.regular == _reference_regular(inst, x, act)
            comps = maximal_components(inst, act)
            assert comps == _reference_sink_components(inst, act)
            most = max(most, len(comps))
    assert most == (2 if family == "marriage" else 1)


def _reference_heads(inst, x):
    """H_w and D_f from their definitions, in two passes over each tie,
    with every choice made afresh and the edges below capacity found by
    `Fraction` order: H_w is the head of w's choice; D_f is f's best tie
    holding an edge below capacity that its worker keeps in its tail, and a
    tie with an edge below capacity to a worker in deficit blocks that tie
    and every worse one.  Also returns the firms whose blocked tie hides
    such an edge in a worse tie."""
    outcomes = {v: choose(inst, v, x) for v in inst.vertices()}
    fully = {v for v, out in outcomes.items() if not out.deficit}
    below = {e.id for e in inst.edges if x[e.id] < e.capacity}

    def welcome(tie):
        return frozenset(
            e for e in tie
            if e in below and e in outcomes[inst.edge_by_id[e].worker].tail
        )

    heads = {w: outcomes[w].head for w in inst.workers if w in fully}
    hidden = set()
    for f in inst.firms:
        if f not in fully:
            continue
        heads[f] = frozenset()
        ties = inst.corteges[f]
        for i, tie in enumerate(ties):
            if any(e in below and inst.edge_by_id[e].worker not in fully for e in tie):
                if any(welcome(worse) for worse in ties[i + 1:]):
                    hidden.add(f)
                break
            candidates = welcome(tie)
            if candidates:
                heads[f] = candidates
                break
    return heads, hidden


# rational capacities and quotas; 5 of these 240 reach a state where a
# blocked tie hides a welcomed edge in a worse tie, none of ROUTE_FAMILIES does
HEAD_POOL = [random_instance(random.Random(f"heads{s}"), max_edges=12) for s in range(240)]


@pytest.mark.parametrize("family", sorted(ROUTE_FAMILIES) + ["random"])
def test_heads_match_the_definition(family):
    # the potential heads D_f, and H_w, at every state of the route from x_min
    firm_heads = hidden = 0
    for inst in ROUTE_FAMILIES.get(family, HEAD_POOL):
        for x in run_route(inst, solve_xmin_modified(inst)).states:
            heads, cut = _reference_heads(inst, x)
            assert build_active_structure(inst, stability_report(inst, x)).heads == heads
            firm_heads += sum(1 for f in inst.firms if heads.get(f))
            hidden += len(cut)
    assert firm_heads > 0
    if family == "random":
        assert hidden > 0


def _sink_walks(monkeypatch, inst, x):
    """The `_reach` walks that `maximal_components` makes at x."""
    act = build_active_structure(inst, stability_report(inst, x))
    real, walks = smp.rotations._reach, []
    with monkeypatch.context() as m:
        m.setattr(smp.rotations, "_reach", lambda succ, start: walks.append(1) or real(succ, start))
        maximal_components(inst, act)
    return len(walks)


def test_sink_pass_walks_once_per_component(monkeypatch):
    # a walk from every regular vertex makes 31 walks on the chain, whose one
    # sink component holds all of them, and 102 on the strict route states
    inst = chained_instance(6, F(8), F(15))
    assert _sink_walks(monkeypatch, inst, solve_xmin_modified(inst)) == 2
    walks = 0
    for s in range(10):
        inst = rand_marriage(random.Random(s), 7)
        for x in run_route(inst, solve_xmin_modified(inst)).states:
            walks += _sink_walks(monkeypatch, inst, x)
    assert walks == 87


def reference_max_weight(inst, x, rot, act):
    """Reference: `max_weight` as it was before it held the candidates as
    `int` numerators over one denominator, each candidate a `Fraction`."""
    candidates = []
    for e, v in rot.values.items():
        edge = inst.edge_by_id[e]
        if v > 0:
            candidates.append((edge.capacity - x[e]) / v)
            continue
        candidates.append(x[e] / -v)
        out = act.report.outcomes[edge.worker]
        for ep in inst.corteges[edge.worker][out.critical_tie]:
            if ep not in out.head:
                candidates.append((x[e] - x[ep]) / (rot.values.get(ep, 0) - v))
    return min(candidates)


def reference_shift(x, rotations, lam):
    """Reference: the shift as `apply_shift` and `gamma` made it before they
    built each new value over lcm(d_x, d_λ): `Fraction` arithmetic per edge."""
    xp = dict(x)
    for rot, l in zip(rotations, lam):
        for e, v in rot.values.items():
            xp[e] = xp[e] + l * v
    return xp


SHIFT_FAMILIES = {
    "tied": [rand_marriage(random.Random(s), 4, cap=2, tie_prob=0.5) for s in range(40)],
    "strict": [rand_marriage(random.Random(s), 7, cap=1) for s in range(40)],
    "chain": chain_family(range(3, 9)),
}


@pytest.mark.parametrize("family", sorted(SHIFT_FAMILIES))
def test_tau_and_shift_match_fraction_references(monkeypatch, family):
    """At every state whose rotations `build_poset` extracts, τ equals the
    `Fraction` reference, and so do the shifts by τ, τ/3 and 2τ/5; every
    shifted value, and every value `gamma` gives on the fully closed
    functions and on 2τ/5 at the minimal rotations, is a `Fraction` equal to
    the reference's.  On some tied states the fifths give λ a denominator
    prime to x's, so that the new value's denominator exceeds both."""
    seen = []
    real = smp.rotations.max_weight

    def spy(inst, x, values, act):
        tau = real(inst, x, values, act)
        seen.append((inst, x, Rotation(values, tau), act, tau))
        return tau

    monkeypatch.setattr(smp.rotations, "max_weight", spy)
    posets = [(inst, build_poset(inst)) for inst in SHIFT_FAMILIES[family]]
    monkeypatch.undo()
    assert len(seen) >= 18
    for inst, x, rot, act, tau in seen:
        assert type(tau) is F and tau == reference_max_weight(inst, x, rot, act)
        for lam in (tau, tau / 3, 2 * tau / 5):
            xp = apply_shift(inst, x, [rot], [lam], verify=False)
            assert xp == reference_shift(x, [rot], [lam])
            assert all(type(v) is F for v in xp.values())
    for inst, poset in posets:
        fifths = {
            i: 2 * rot.tau / 5 for i, rot in enumerate(poset.rotations)
            if not any(b == i for _, b in poset.less)
        }
        for lam in enumerate_fully_closed(poset) + [fifths]:
            x = gamma(inst, poset, lam, verify=False)
            ids = sorted(lam)
            assert x == reference_shift(
                poset.xmin, [poset.rotations[i] for i in ids], [lam[i] for i in ids]
            )
            assert all(type(v) is F for v in x.values())
