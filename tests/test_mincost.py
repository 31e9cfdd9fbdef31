"""Minimum-cost stable assignment vs exhaustive ideal enumeration."""

import random
from fractions import Fraction as F

import pytest

from smp import (
    Instance,
    InstanceError,
    assignment_cost,
    build_poset,
    full_assignment,
    min_cost_stable,
    stability_report,
)
from smp.bruteforce import oracle_min_cost_ideal

from gen import disjoint_union, rand_marriage, rotation_weights, triangle_instance, wide_unions


def _random_costs(rng, inst):
    return {e: F(rng.randint(-9, 9)) for e in inst.edge_ids}


def test_costed_poset_requires_complete_costs():
    inst = triangle_instance(F(8), F(15))
    with pytest.raises(InstanceError, match="no edge costs"):
        min_cost_stable(inst)
    with pytest.raises(InstanceError, match="missing"):
        min_cost_stable(inst, {"f1w1": F(1)})


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
def test_min_cost_rejects_a_cost_of_the_wrong_type(bad):
    # the check `Instance` makes on the costs of a document: a float has no
    # exact value, and a bool is not taken as 0 or 1
    inst = triangle_instance(F(8), F(15))
    costs = {e: 0 for e in inst.edge_ids}
    costs["f3w1"] = bad
    with pytest.raises(InstanceError, match=r"^edge 'f3w1': cost must be an int or a Fraction$"):
        min_cost_stable(inst, costs)


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
def test_cost_checks_run_unknown_then_type_then_missing(bad):
    # `Instance` and `min_cost_stable` share one check of the ids, then of
    # the types; `min_cost_stable` alone then requires a cost on every edge
    inst = triangle_instance(F(8), F(15))

    def instance(costs):
        return Instance(inst.firms, inst.workers, inst.edges, inst.quota, inst.corteges, costs)

    unknown = "^costs given for unknown edges: \\['bogus'\\]$"
    wrong_type = "^edge 'f1w1': cost must be an int or a Fraction$"
    for call in (instance, lambda costs: min_cost_stable(inst, costs)):
        with pytest.raises(InstanceError, match=unknown):
            call({"bogus": 1, "f1w1": bad})
        with pytest.raises(InstanceError, match=wrong_type):
            call({"f1w1": bad})
    assert instance({"f1w1": 1}).costs == {"f1w1": F(1)}
    with pytest.raises(InstanceError, match="^costs missing for edges: "):
        min_cost_stable(inst, {"f1w1": 1})


def test_triangle_min_cost_picks_the_cheaper_end():
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    # make the rotation's direction expensive: rotation raises f3w1 by 7,
    # so a positive cost there keeps the firm-optimal point optimal
    costs = {e: F(0) for e in inst.edge_ids}
    costs["f3w1"] = F(1)
    res = min_cost_stable(inst, costs, poset)
    assert res.ideal == frozenset()
    assert res.assignment == poset.xmin
    # flip the sign: now the fully rotated point is cheaper
    costs["f3w1"] = F(-1)
    res = min_cost_stable(inst, costs, poset)
    assert res.ideal == frozenset({0})
    assert res.assignment == full_assignment(inst, poset.xmax)
    assert res.cost == assignment_cost(costs, res.assignment)


def test_constant_costs_make_all_rotations_free():
    inst = triangle_instance(F(8), F(15))
    costs = {e: F(3) for e in inst.edge_ids}
    poset = build_poset(inst)
    assert all(z == 0 for z in rotation_weights(poset, costs))
    res = min_cost_stable(inst, costs, poset)
    assert res.cost == F(3) * sum(poset.xmin.values(), F(0))


def _min_cost_cases():
    """30 tied 4 x 4 marriages, then 12 unions whose posets are not chains,
    each with the generator that draws its costs."""
    for seed in range(30):
        rng = random.Random(f"mc{seed}")
        yield rng, rand_marriage(rng, 4, cap=2, tie_prob=0.25)
    rng = random.Random("mc unions")
    for union in wide_unions("mc unions", 12):
        yield rng, union


def test_min_cost_matches_exhaustive_ideal_enumeration():
    checked = wide = 0
    for rng, inst in _min_cost_cases():
        poset = build_poset(inst)
        if not poset.rotations:
            continue
        costs = _random_costs(rng, inst)
        res = min_cost_stable(inst, costs, poset)
        best_weight, _ = oracle_min_cost_ideal(
            rotation_weights(poset, costs), poset.less, len(poset.rotations)
        )
        base = assignment_cost(costs, full_assignment(inst, poset.xmin))
        assert res.cost == base + best_weight
        assert stability_report(inst, res.assignment).stable
        # every other fully closed choice costs at least as much
        from smp import enumerate_fully_closed, gamma

        for lam in enumerate_fully_closed(poset):
            x = gamma(inst, poset, lam)
            assert assignment_cost(costs, x) >= res.cost
        checked += 1
        n = len(poset.rotations)
        wide += len(poset.less) < n * (n - 1) // 2  # two rotations incomparable
    assert checked >= 22 and wide >= 12


def test_costs_from_the_instance_document():
    inst = triangle_instance(F(8), F(15))
    from smp import Instance

    with_costs = Instance(
        inst.firms,
        inst.workers,
        inst.edges,
        inst.quota,
        inst.corteges,
        costs={e: F(1) for e in inst.edge_ids},
    )
    res = min_cost_stable(with_costs)
    assert res.cost == sum(res.assignment.values(), F(0))


def test_assignment_cost_matches_the_fraction_sum():
    """The integer sum over a running common denominator equals the plain
    `Fraction` sum, with costs negative, zero and fractional and values of
    mixed denominators, zero and negative (a rotation's vector) included."""
    rng = random.Random("cost")
    for _ in range(300):
        edges = [f"e{i}" for i in range(rng.randint(0, 12))]
        costs = {e: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for e in edges}
        x = {
            e: F(rng.randint(-6, 12), rng.choice([1, 2, 3, 4, 5, 6, 9, 11]))
            for e in edges
            if rng.random() < 0.9
        }
        cost = assignment_cost(costs, x)
        assert type(cost) is F
        assert cost == sum((costs[e] * v for e, v in x.items()), F(0))


def test_min_cost_of_a_disjoint_union_is_the_sum_over_its_parts():
    """The union's rotation poset is the disjoint union of its parts' posets,
    so it is not a chain whenever two parts have rotations, and its minimum
    cost under any costs is the sum of the parts' minima.  A cut network
    that treats every poset as a chain fails here."""
    rng = random.Random("union")
    wide = 0
    for _ in range(30):
        parts = [
            rand_marriage(rng, 4, cap=2, tie_prob=0.3),
            rand_marriage(rng, 4, cap=2, tie_prob=0.3),
            triangle_instance(F(8), F(15)),
        ]
        union = disjoint_union(*parts)
        posets = [build_poset(part) for part in parts]
        poset = build_poset(union)
        assert len(poset.rotations) == sum(len(q.rotations) for q in posets)
        # each rotation moves the edges of one part, and `less` relates no two parts
        part_of = [{e.split(".")[0] for e, v in rot.values.items() if v} for rot in poset.rotations]
        assert all(len(ids) == 1 for ids in part_of)
        assert all(part_of[a] == part_of[b] for (a, b) in poset.less)
        # the triangle's one rotation is incomparable to every other
        n = len(poset.rotations)
        assert (len(poset.less) < n * (n - 1) // 2) == (n > 1)
        wide += n > 1
        for _ in range(5):
            costs = [_random_costs(rng, part) for part in parts]
            union_costs = {f"{i}.{e}": c for i, part_costs in enumerate(costs) for e, c in part_costs.items()}
            want = sum(min_cost_stable(*args).cost for args in zip(parts, costs, posets))
            assert min_cost_stable(union, union_costs, poset).cost == want
    assert wide >= 20
