"""End-to-end acceptance suite.

One test per acceptance criterion; the conftest prints a PASS/FAIL line per
criterion in the terminal summary.  Everything is exact Fraction arithmetic
with zero tolerance.
"""

import itertools
import random
from fractions import Fraction as F

from smp import (
    apply_shift,
    assignment_cost,
    build_active_structure,
    build_poset,
    choose,
    compare_stable,
    enumerate_fully_closed,
    extract_rotation,
    full_assignment,
    gamma,
    is_closed,
    maximal_components,
    min_cost_stable,
    omega,
    run_route,
    solve_quota_filling,
    solve_xmax,
    solve_xmin_modified,
    stability_report,
    stable_join_workers,
    stable_meet_workers,
)
from smp.bruteforce import oracle_enumerate_stable, oracle_min_cost_ideal
from smp.model import InstanceError

from gen import (
    SIX_CYCLE_STABLE_EVEN,
    SIX_CYCLE_STABLE_ODD,
    TRIANGLE_ROTATION,
    chained_instance,
    chained_rotation,
    rand_marriage,
    random_instance,
    rotation_weights,
    six_cycle_instance,
    triangle_instance,
    wide_unions,
)

# --- shared instance pools (built once, reused across criteria) -------------

_CACHE: dict = {}


def smp_pool():
    """50 general instances (ties, rational data), |E| <= 25."""
    if "smp" not in _CACHE:
        pool = []
        for i in range(25):
            pool.append(random_instance(random.Random(f"smp{i}"), max_edges=25))
        for i in range(25):
            rng = random.Random(f"smp-m{i}")
            pool.append(
                rand_marriage(
                    rng,
                    rng.randint(3, 5),
                    cap=rng.choice([1, 2, 2]),
                    tie_prob=rng.choice([0.0, 0.25, 0.4]),
                )
            )
        _CACHE["smp"] = pool
    return _CACHE["smp"]


def sap_pool():
    """50 strict-order instances with integral data."""
    if "sap" not in _CACHE:
        pool = []
        for i in range(30):
            pool.append(
                random_instance(
                    random.Random(f"sap{i}"),
                    max_edges=8,
                    singleton_ties=True,
                    integral=True,
                    max_value=3,
                )
            )
        for i in range(20):
            rng = random.Random(f"sap-m{i}")
            pool.append(rand_marriage(rng, rng.randint(3, 4), cap=rng.choice([1, 2])))
        _CACHE["sap"] = pool
    return _CACHE["sap"]


def sdp_pool():
    """50 instances with a single tie per vertex (unique stable solution)."""
    if "sdp" not in _CACHE:
        _CACHE["sdp"] = [
            random_instance(
                random.Random(f"sdp{i}"), max_edges=25, single_tie_per_vertex=True
            )
            for i in range(50)
        ]
    return _CACHE["sdp"]


def posets_for(pool_name):
    key = f"posets-{pool_name}"
    if key not in _CACHE:
        pool = {"smp": smp_pool, "sap": sap_pool}[pool_name]()
        _CACHE[key] = [(inst, build_poset(inst)) for inst in pool]
    return _CACHE[key]


def _random_closed(poset, rng):
    """A random closed weight function: a random ideal, optionally one
    fractional weight on a maximal element of the ideal."""
    lams = enumerate_fully_closed(poset)
    lam = dict(rng.choice(lams))
    support = [i for i, v in lam.items() if v]
    maximal = [
        i
        for i in support
        if not any((i, j) in poset.less and j in support for j in range(len(lam)))
    ]
    if maximal and rng.random() < 0.5:
        i = rng.choice(maximal)
        lam[i] = poset.rotations[i].tau * F(rng.randint(1, 3), 3)
    assert is_closed(poset, lam)
    return lam


# --- criterion 1: choice-function axioms ------------------------------------


def test_criterion_01_choice_axioms():
    for family, pool in (("smp", smp_pool()), ("sap", sap_pool()), ("sdp", sdp_pool())):
        rng = random.Random(f"axioms-{family}")
        cases = 0
        while cases < 1000:
            inst = rng.choice(pool)
            v = rng.choice(sorted(inst.vertices()))

            def offer():
                return {
                    e: F(rng.randint(0, 12), rng.choice([1, 1, 2, 3]))
                    for e in inst.incident[v]
                }

            z, zp = offer(), offer()
            q = inst.quota[v]
            chosen = choose(inst, v, z).result
            # quota acceptability: |C(z)| = min(|z|, q)
            assert sum(chosen.values(), F(0)) == min(sum(z.values(), F(0)), q)
            # idempotence
            assert choose(inst, v, chosen).result == chosen
            # A1 consistence: z >= z'' >= C(z) implies C(z'') = C(z)
            between = {e: max(chosen[e], min(z[e], zp[e])) for e in z}
            assert choose(inst, v, between).result == chosen
            # A2 persistence: z >= z'' implies C(z) ∧ z'' <= C(z'')
            smaller = {e: min(z[e], zp[e]) for e in z}
            small = choose(inst, v, smaller).result
            assert all(min(chosen[e], smaller[e]) <= small[e] for e in z)
            cases += 1
        assert cases == 1000


# --- criterion 2: the 3x3 reference instance --------------------------------


def test_criterion_02_reference_rotation():
    inst = triangle_instance(F(8), F(15))
    xmin = solve_xmin_modified(inst)
    assert xmin == {e: F(8) for e in inst.edge_ids}
    assert stability_report(inst, xmin).stable
    act = build_active_structure(inst, xmin)
    comps = maximal_components(inst, act)
    assert len(comps) == 1
    assert set(comps[0]) == set(inst.vertices())  # spans all 6 vertices
    rot = extract_rotation(inst, xmin, comps[0], act)
    assert rot.values["f2w1"] == F(-8)
    assert rot.values["f1w3"] == rot.values["f3w3"] == F(-2)
    assert all(F(-8) <= v <= F(7) for v in rot.values.values())
    import math

    assert math.gcd(*(abs(int(v)) for v in rot.values.values())) == 1
    assert rot.tau == min(F(8) / 8, (F(15) - F(8)) / 7) == F(1)
    for a, b in ((F(8), F(15)), (F(8), F(100)), (F(16), F(17))):
        inst = triangle_instance(a, b)
        x = full_assignment(inst, {e: a for e in inst.edge_ids})
        act = build_active_structure(inst, x)
        comps = maximal_components(inst, act)
        rot = extract_rotation(inst, x, comps[0], act)
        assert rot.tau == min(a / 8, (b - a) / 7)


# --- criterion 3: exponentially growing rotation values ---------------------


def test_criterion_03_exponential_rotations():
    for k in range(1, 7):
        scale = 4 ** (k - 1)
        a, b = F(8 * scale), F(15 * scale)
        inst = chained_instance(k, a, b)
        assert len(inst.vertices()) == 5 * k + 1
        x = full_assignment(inst, {e: a for e in inst.edge_ids})
        assert stability_report(inst, x).stable
        act = build_active_structure(inst, x)
        comps = maximal_components(inst, act)
        assert len(comps) == 1
        rot = extract_rotation(inst, x, comps[0], act)
        # copy j of the chain carries 4^(j-1) times the base rotation
        assert rot.values == chained_rotation(k)
        # the last copy's two tied head edges carry value -(2 * 4^(k-1)) ...
        assert -rot.values[f"f1w3.{k}"] == -rot.values[f"f3w3.{k}"] == 2 * scale
        assert 2 * scale == [2, 8, 32, 128, 512, 2048][k - 1]
        # ... while the largest absolute value overall is 8 * 4^(k-1)
        assert max(abs(v) for v in rot.values.values()) == 8 * scale


# --- criterion 4: route bounds and order invariance -------------------------


def test_criterion_04_route_bounds_and_invariance():
    for inst, poset in posets_for("smp"):
        xmin = poset.xmin
        baseline = None
        for seed in range(5):
            route = run_route(inst, xmin, rng=random.Random(seed))
            assert len(route.steps) <= 2 * len(inst.edges)
            omega_multiset = sorted(
                (rot.key(), rot.tau) for rot in route.steps
            )
            if baseline is None:
                baseline = (route.states[-1], omega_multiset)
            else:
                assert route.states[-1] == baseline[0]
                assert omega_multiset == baseline[1]


# --- criterion 5: single-tie instances are degenerate -----------------------


def test_criterion_05_single_tie_degeneracy():
    for inst in sdp_pool():
        xmin = solve_xmin_modified(inst)
        act = build_active_structure(inst, xmin)
        assert maximal_components(inst, act) == []
        assert solve_xmax(inst) == xmin


# --- criterion 6: strict orders give unit simple-cycle rotations ------------


def test_criterion_06_strict_order_specialization():
    oracle_checked = 0
    for inst, poset in posets_for("sap"):
        for rot in poset.rotations:
            support = sorted(rot.values)
            assert all(rot.values[e] in (F(1), F(-1)) for e in support)
            # simple cycle: every touched vertex meets exactly two support edges
            degree: dict[str, int] = {}
            for e in support:
                edge = inst.edge_by_id[e]
                degree[edge.firm] = degree.get(edge.firm, 0) + 1
                degree[edge.worker] = degree.get(edge.worker, 0) + 1
            assert degree and all(d == 2 for d in degree.values())
        xmin = poset.xmin
        if all(
            e.capacity.denominator == 1 for e in inst.edges
        ) and all(q.denominator == 1 for q in inst.quota.values()):
            assert all(v.denominator == 1 for v in xmin.values())
            try:
                everything = oracle_enumerate_stable(inst)
            except InstanceError:
                continue  # box beyond the enumeration cap
            assert any(x == xmin for x in everything)
            for other in everything:
                assert compare_stable(inst, xmin, other)
            oracle_checked += 1
    assert oracle_checked >= 20


# --- criterion 7: instability of a convex combination -----------------------


def test_criterion_07_nonconvexity():
    inst = six_cycle_instance()
    for x in (SIX_CYCLE_STABLE_ODD, SIX_CYCLE_STABLE_EVEN):
        report = stability_report(inst, x)
        assert report.stable
        assert report.blocking_edges == []
    half = {
        e: (SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2
        for e in inst.edge_ids
    }
    report = stability_report(inst, half)
    assert not report.stable
    assert report.blocking_edges == ["a"]


# --- criterion 8: bijection, lattice and the precedence order ---------------


def test_criterion_08_bijection_and_lattice():
    """On the smp pool, and on 12 disjoint unions whose posets are not chains."""
    from smp.poset import _verify_hasse_edge

    unions = [(union, build_poset(union)) for union in wide_unions("criterion 8", 12)]
    for inst, poset in posets_for("smp") + unions:
        n = len(poset.rotations)
        assert n <= 20
        # the closed-function <-> stable-assignment bijection on all ideals
        for lam in enumerate_fully_closed(poset):
            x = gamma(inst, poset, lam)
            assert omega(inst, poset, x) == lam
        # Hasse reachability reproduces the avoidance-run order
        reach = set(poset.hasse)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(reach):
                for (c, d) in poset.hasse:
                    if c == b and (a, d) not in reach:
                        reach.add((a, d))
                        changed = True
        assert frozenset(reach) == poset.less
        # every covering pair has a direct witness
        cache: dict = {}
        for (a, b) in poset.hasse:
            _verify_hasse_edge(inst, poset, a, b, cache)
        # lattice homomorphism on 20 sampled stable pairs
        rng = random.Random("pairs")
        for _ in range(20):
            lam1 = _random_closed(poset, rng)
            lam2 = _random_closed(poset, rng)
            x = gamma(inst, poset, lam1)
            y = gamma(inst, poset, lam2)
            up = {i: max(lam1.get(i, F(0)), lam2.get(i, F(0))) for i in range(n)}
            dn = {i: min(lam1.get(i, F(0)), lam2.get(i, F(0))) for i in range(n)}
            assert stable_join_workers(inst, x, y) == gamma(inst, poset, up)
            assert stable_meet_workers(inst, x, y) == gamma(inst, poset, dn)


# --- criterion 9: minimum cost via min-cut ----------------------------------


def test_criterion_09_min_cost():
    built = 0
    for seed in itertools.count():
        if built == 30:
            break
        rng = random.Random(f"cost{seed}")
        inst = rand_marriage(rng, rng.randint(3, 4), cap=rng.choice([1, 2]), tie_prob=0.2)
        poset = build_poset(inst)
        if len(poset.rotations) > 15:
            continue
        costs = {e: F(rng.randint(-9, 9)) for e in inst.edge_ids}
        zeta = rotation_weights(poset, costs)
        res = min_cost_stable(inst, costs, poset)
        best_weight, _ = oracle_min_cost_ideal(zeta, poset.less, len(poset.rotations))
        base = assignment_cost(costs, full_assignment(inst, poset.xmin))
        assert res.cost == base + best_weight
        assert sum((zeta[i] for i in res.ideal), F(0)) == best_weight
        assert stability_report(inst, res.assignment).stable
        # constant costs: every rotation is cost-neutral and the optimum is
        # just the constant times the total size of the assignment
        const = F(rng.randint(1, 5))
        assert all(z == 0 for z in rotation_weights(poset, {e: const for e in inst.edge_ids}))
        res2 = min_cost_stable(inst, {e: const for e in inst.edge_ids}, poset)
        assert res2.cost == const * sum(poset.xmin.values(), F(0))
        built += 1


# --- criterion 10: the finite solver and the quota-filling procedure --------


def test_criterion_10_modified_solver():
    for pool in (smp_pool(), sap_pool(), sdp_pool()):
        for inst in pool:
            trace = []
            xmin = solve_xmin_modified(inst, trace=trace)
            assert len(trace) <= 10 * len(inst.edges)
            assert stability_report(inst, xmin).stable
            # after normalization nothing rotates toward the firm side anymore
            swapped = inst.swapped()
            act = build_active_structure(swapped, xmin)
            assert maximal_components(swapped, act) == []
    # on quota-filling instances the depot construction agrees with the
    # route-derived worker optimum
    filled = 0
    for seed in range(12):
        rng = random.Random(f"qfagree{seed}")
        inst = rand_marriage(rng, rng.randint(3, 4), cap=rng.choice([1, 2]), tie_prob=0.25)
        x = solve_quota_filling(inst)
        assert x is not None
        assert x == solve_xmax(inst)
        filled += 1
    assert filled == 12
    # and it recognizes instances that cannot fill their quotas
    from smp import Edge, Instance

    slack = Instance(
        firms=["f"],
        workers=["w"],
        edges=[Edge("e", "f", "w", F(1))],
        quota={"f": F(5), "w": F(5)},
        corteges={"f": [["e"]], "w": [["e"]]},
    )
    assert solve_quota_filling(slack) is None
