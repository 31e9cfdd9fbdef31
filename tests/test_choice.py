"""Per-vertex choice functions: hand-checked cuts plus property-based axioms."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import smp.choice
from smp import Edge, Instance, choose, full_assignment, prefers
from smp.choice import ChoiceOutcome, _choose_scaled, _cutting_height

from gen import random_instance, six_cycle_instance, triangle_instance


def star_instance(quota, ties, caps):
    """One firm `f` with the given quota, ties and capacities on edges a,b,..."""
    workers = [f"w{e}" for tie in ties for e in tie]
    edges = [
        Edge(e, "f", f"w{e}", caps[e]) for tie in ties for e in tie
    ]
    q = {"f": quota}
    q.update({f"w{e}": caps[e] for tie in ties for e in tie})
    corteges = {"f": [list(t) for t in ties]}
    corteges.update({f"w{e}": [[e]] for tie in ties for e in tie})
    return Instance(["f"], workers, edges, q, corteges)


def test_deficit_branch_takes_everything():
    inst = star_instance(F(10), [["a"], ["b"]], {"a": F(5), "b": F(5)})
    out = choose(inst, "f", {"a": F(2), "b": F(3)})
    assert out.deficit
    assert out.result == {"a": F(2), "b": F(3)}
    assert out.head == frozenset()
    assert out.tail == frozenset({"a", "b"})
    assert out.critical_tie is None


def test_quota_branch_cuts_critical_tie_at_common_height():
    inst = star_instance(
        F(5),
        [["a"], ["b", "c"], ["d"]],
        {"a": F(7), "b": F(7), "c": F(7), "d": F(7)},
    )
    out = choose(inst, "f", {"a": F(2), "b": F(3), "c": F(1), "d": F(7)})
    assert not out.deficit
    assert out.critical_tie == 1
    assert {out.result[e] for e in out.head} == {F(2)}
    assert out.result == {"a": F(2), "b": F(2), "c": F(1), "d": F(0)}
    assert out.head == frozenset({"b"})
    assert out.tail == frozenset({"a", "c"})
    assert sum(out.result.values()) == F(5)


def test_boundary_offer_has_nonempty_head():
    # the offer meets the quota exactly: the maximal entries form the head
    inst = star_instance(F(4), [["a", "b"]], {"a": F(5), "b": F(5)})
    out = choose(inst, "f", {"a": F(3), "b": F(1)})
    assert not out.deficit
    assert {out.result[e] for e in out.head} == {F(3)}
    assert out.result == {"a": F(3), "b": F(1)}
    assert out.head == frozenset({"a"})
    assert out.tail == frozenset({"b"})


def test_fractional_cut():
    inst = star_instance(F(2), [["a", "b", "c"]], {e: F(5) for e in "abc"})
    out = choose(inst, "f", {"a": F(1), "b": F(1), "c": F(1)})
    assert {out.result[e] for e in out.head} == {F(2, 3)}
    assert out.result == {e: F(2, 3) for e in "abc"}
    assert out.head == frozenset({"a", "b", "c"})
    # over D = 1 the height 2/3 is no numerator, so the kernel asks for D = 3
    assert _choose_scaled(inst, "f", {e: 1 for e in "abc"}, 2) == 3
    assert _choose_scaled(inst, "f", {e: 3 for e in "abc"}, 6).result == {e: 2 for e in "abc"}


def test_negative_offer_rejected():
    # the same error in the deficit branch (the offer sums to 2, below the
    # quota 10) and in the quota branch (it sums to 8/21, above 1/5)
    for quota, offer in [
        (F(10), {"a": F(-1), "b": F(3)}),
        (F(1, 5), {"a": F(5, 7), "b": F(-1, 3)}),
    ]:
        inst = star_instance(quota, [["a"], ["b"]], {"a": F(5), "b": F(5)})
        with pytest.raises(ValueError, match="^negative offer at 'f'$"):
            choose(inst, "f", offer)


def test_edge_at_the_height_is_head_but_not_cut():
    # 1/3 + 2r = 11/3 puts the height at b's offer 5/3 exactly
    inst = star_instance(F(11, 3), [["a", "b", "c"]], {e: F(5) for e in "abc"})
    z = {"a": F(1, 3), "b": F(5, 3), "c": F(5, 2)}
    out = choose(inst, "f", z)
    assert {out.result[e] for e in out.head} == {F(5, 3)}
    assert out.head == frozenset({"b", "c"})
    assert out.tail == frozenset({"a"})
    assert out.result == {"a": F(1, 3), "b": F(5, 3), "c": F(5, 3)}
    assert out.result["b"] is z["b"]
    assert out == reference_choose(inst, "f", z)


def test_target_equal_to_full_tie_sum():
    # the better tie takes 1/2, and the critical tie sums to the other 19/6
    inst = star_instance(F(11, 3), [["a"], ["b", "c"], ["d"]], {e: F(5) for e in "abcd"})
    z = {"a": F(1, 2), "b": F(7, 5), "c": F(53, 30), "d": F(1)}
    out = choose(inst, "f", z)
    assert out.critical_tie == 1
    assert {out.result[e] for e in out.head} == {F(53, 30)}
    assert out.head == frozenset({"c"})
    assert out.tail == frozenset({"a", "b"})
    assert out.result == {"a": F(1, 2), "b": F(7, 5), "c": F(53, 30), "d": F(0)}
    assert out == reference_choose(inst, "f", z)


def test_prefers_is_reflexive_and_orders_offers():
    inst = triangle_instance(F(8), F(15))
    z = {e: F(8) for e in inst.incident["w1"]}
    assert prefers(inst, "w1", z, z)
    # w1 ranks f1w1 best: all quota on f1w1 beats all quota on f2w1
    best = {"f1w1": F(24), "f3w1": F(0), "f2w1": F(0)}
    worst = {"f1w1": F(0), "f3w1": F(0), "f2w1": F(24)}
    assert prefers(inst, "w1", best, worst)
    assert not prefers(inst, "w1", worst, best)


def test_prefers_chooses_each_offer_once(monkeypatch):
    """One choice per offer and one from the join: the tail of the first
    offer is read off the choice that checked it is kept."""
    inst = triangle_instance(F(8), F(15))
    best = {"f1w1": F(24), "f3w1": F(0), "f2w1": F(0)}
    worst = {"f1w1": F(0), "f3w1": F(0), "f2w1": F(24)}
    calls = []
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: calls.append(v) or choose(inst, v, z))
    assert prefers(inst, "w1", best, worst)
    assert calls == ["w1"] * 3


def breakpoint_cutting_height(values, target):
    """Reference: scan the distinct values ascending, recounting at each one."""
    total = sum(values, F(0))
    if target == total:
        return max(values)
    taken = F(0)
    below = 0
    n = len(values)
    for bp in sorted(set(values)):
        at_bp = taken + (n - below) * bp
        if at_bp >= target:
            return (target - taken) / (n - below)
        for val in values:
            if val == bp:
                taken += val
                below += 1
    raise AssertionError("target above total offer")


@st.composite
def cut_cases(draw):
    small = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3]))
    values = draw(st.lists(small, min_size=1, max_size=8).filter(lambda v: sum(v) > 0))
    total = sum(values, F(0))
    fraction = draw(st.builds(F, st.integers(1, 12), st.just(12)))
    return values, total * fraction


@settings(max_examples=200, deadline=None)
@given(cut_cases())
def test_cutting_height_matches_breakpoint_reference(case):
    # the kernel's search runs on the values and target scaled to integers
    # over their common denominator D and returns the height as rn / rd
    values, target = case
    den = lcm(target.denominator, *[val.denominator for val in values])
    rn, rd = _cutting_height([int(val * den) for val in values], int(target * den))
    assert F(rn, rd * den) == breakpoint_cutting_height(values, target)


def reference_choose(inst, v, z):
    """Reference: the kernel as it was, converting every value with Fraction()."""
    zv = {e: F(z.get(e, 0)) for e in inst.incident[v]}
    q = inst.quota[v]
    size = sum(zv.values(), F(0))
    if size < q:
        return ChoiceOutcome(zv, frozenset(), frozenset(inst.incident[v]), None, True)
    ties = inst.corteges[v]
    prefix = F(0)
    critical = None
    for i, tie in enumerate(ties):
        tie_sum = sum((zv[e] for e in tie), F(0))
        if prefix < q <= prefix + tie_sum:
            critical = i
            break
        prefix += tie_sum
    assert critical is not None, "quota not reached despite sufficient offer"
    tie = ties[critical]
    r = breakpoint_cutting_height([zv[e] for e in tie], q - prefix)
    result = dict(zv)
    for i, t in enumerate(ties):
        if i < critical:
            continue
        for e in t:
            result[e] = min(r, zv[e]) if i == critical else F(0)
    head = frozenset(e for e in tie if zv[e] >= r)
    better = [e for t in ties[:critical] for e in t]
    tail = frozenset(better) | (frozenset(tie) - head)
    return ChoiceOutcome(result, head, tail, critical, False)


# pairwise coprime denominators, the last a large prime, so that the common
# denominator of an offer and its quota grows with every distinct one drawn
DENOMINATORS = [1, 2, 3, 5, 7, 11, 13, 2**31 - 1]


@st.composite
def star_offers(draw):
    """A star with random ties, capacities and quota, and an offer mixing
    Fractions on coprime denominators, ints and missing edges; the quota's
    denominator is one that no Fraction of the offer uses."""
    names = "abcdef"[: draw(st.integers(1, 6))]
    ranks = {e: draw(st.integers(0, 3)) for e in names}
    ties = [[e for e in names if ranks[e] == r] for r in sorted(set(ranks.values()))]
    caps = {e: F(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3]))) for e in names}
    offer = {}
    used = set()
    for e in names:
        kind = draw(st.sampled_from(["fraction", "int", "missing"]))
        if kind == "fraction":
            den = draw(st.sampled_from(DENOMINATORS))
            used.add(den)
            offer[e] = F(draw(st.integers(0, 12 * den)), den)
        elif kind == "int":
            offer[e] = draw(st.integers(0, 8))
    qden = draw(st.sampled_from([d for d in DENOMINATORS if d not in used]))
    quota = F(draw(st.integers(qden, 20 * qden)), qden)
    return star_instance(quota, ties, caps), offer


@settings(max_examples=300, deadline=None)
@given(star_offers())
def test_choose_matches_reference_kernel(case):
    inst, z = case
    out = choose(inst, "f", z)
    assert out == reference_choose(inst, "f", z)
    assert all(type(val) is F for val in out.result.values())


def test_full_assignment_returns_fractions():
    inst = star_instance(F(5), [["a"], ["b", "c"]], {e: F(5) for e in "abc"})
    x = full_assignment(inst, {"a": 2, "b": F(1, 2)})
    assert x == {"a": F(2), "b": F(1, 2), "c": F(0)}
    assert all(type(val) is F for val in x.values())


# --- property-based axioms --------------------------------------------------

_POOL = [triangle_instance(F(8), F(15)), six_cycle_instance()] + [
    random_instance(random.Random(f"choice{i}"), max_edges=10, **kw)
    for i, kw in enumerate(
        [{}, {"singleton_ties": True}, {"single_tie_per_vertex": True}, {}, {}]
    )
]


@st.composite
def vertex_and_offers(draw):
    inst = draw(st.sampled_from(_POOL))
    v = draw(st.sampled_from(sorted(inst.vertices())))
    def offer():
        return {
            e: F(draw(st.integers(0, 12)), draw(st.sampled_from([1, 1, 2, 3])))
            for e in inst.incident[v]
        }
    return inst, v, offer(), offer()


@settings(max_examples=200, deadline=None)
@given(vertex_and_offers())
def test_axiom_quota_acceptability(case):
    inst, v, z, _ = case
    out = choose(inst, v, z)
    assert sum(out.result.values(), F(0)) == min(sum(z.values(), F(0)), inst.quota[v])
    # chosen vector never exceeds the offer
    assert all(out.result[e] <= z[e] for e in z)


@settings(max_examples=200, deadline=None)
@given(vertex_and_offers())
def test_axiom_idempotence(case):
    inst, v, z, _ = case
    once = choose(inst, v, z).result
    assert choose(inst, v, once).result == once


@settings(max_examples=200, deadline=None)
@given(vertex_and_offers())
def test_axiom_consistence(case):
    # for z >= z' >= C(z), choosing from z' returns C(z) unchanged
    inst, v, z, zp = case
    chosen = choose(inst, v, z).result
    between = {e: max(chosen[e], min(z[e], zp[e])) for e in z}
    assert choose(inst, v, between).result == chosen


@settings(max_examples=200, deadline=None)
@given(vertex_and_offers())
def test_axiom_persistence(case):
    # shrinking the offer never discards anything still on offer:
    # z >= z' implies C(z) ∧ z' <= C(z')
    inst, v, z, zp = case
    smaller = {e: min(z[e], zp[e]) for e in z}
    big = choose(inst, v, z).result
    small = choose(inst, v, smaller).result
    assert all(min(big[e], smaller[e]) <= small[e] for e in z)


@settings(max_examples=100, deadline=None)
@given(vertex_and_offers())
def test_preference_characterizations_agree(case):
    # `prefers` internally evaluates two formulations and asserts agreement;
    # its domain is chosen vectors, so compare what the vertex keeps
    inst, v, z, zp = case
    a = choose(inst, v, z).result
    b = choose(inst, v, zp).result
    prefers(inst, v, a, b)
    prefers(inst, v, b, a)


def test_prefers_rejects_unchosen_vectors():
    inst = star_instance(F(1), [["a"], ["b"]], {"a": F(5), "b": F(5)})
    kept = {"a": F(0), "b": F(1)}
    too_much = {"a": F(0), "b": F(2)}  # exceeds the quota, never kept
    with pytest.raises(ValueError, match="chosen vector"):
        prefers(inst, "f", too_much, kept)
    with pytest.raises(ValueError, match="chosen vector"):
        prefers(inst, "f", kept, too_much)
