"""The exhaustive stable-point oracle: its search against a full box scan,
and its input guards at their edge."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import smp.bruteforce
from smp import Edge, Instance, InstanceError, stability_report
from smp.bruteforce import ENUMERATION_CAP, oracle_enumerate_stable

from gen import random_instance
from test_acceptance import sap_pool

# The box scan costs one `stability_report` per box point; the larger boxes of
# the sap pool (19,683 and 65,536 points) take seconds each, so the scan is
# compared on the boxes up to this size and on every box over the cap.
SCAN_LIMIT = 4096


def _box_scan(inst: Instance) -> list[dict[str, Fraction]]:
    """The oracle as a full scan of the integer box, one report per point."""
    for v, ties in inst.corteges.items():
        if any(len(t) != 1 for t in ties):
            raise InstanceError(f"vertex {v!r} has a tie; oracle needs strict orders")
    for e in inst.edges:
        if e.capacity.denominator != 1:
            raise InstanceError(f"edge {e.id!r}: oracle needs integral capacity")
    for v, q in inst.quota.items():
        if q.denominator != 1:
            raise InstanceError(f"vertex {v!r}: oracle needs integral quota")
    space = 1
    for e in inst.edges:
        space *= int(e.capacity) + 1
        if space > ENUMERATION_CAP:
            raise InstanceError(f"search space exceeds {ENUMERATION_CAP}")
    ranges = [range(int(e.capacity) + 1) for e in inst.edges]
    ids = [e.id for e in inst.edges]
    out = []
    for combo in itertools.product(*ranges):
        x = {eid: Fraction(v) for eid, v in zip(ids, combo)}
        try:
            if stability_report(inst, x).stable:
                out.append(x)
        except InstanceError:
            continue  # inadmissible or non-stationary
    return out


def _box(inst):
    return math.prod(int(e.capacity) + 1 for e in inst.edges)


def _strict(seed, **kw):
    return random_instance(
        random.Random(seed), singleton_ties=True, integral=True, **kw
    )


def _orc_instances(n=20):
    """The first n strict integral instances with a box of 257..2048."""
    found = []
    for s in itertools.count():
        inst = _strict(f"orc{s}", max_value=3)
        if 257 <= _box(inst) <= 2048:
            found.append(inst)
            if len(found) == n:
                return found


def _outcome(enumerate_, inst):
    try:
        return enumerate_(inst)
    except InstanceError as exc:
        return str(exc)


def test_search_returns_the_box_scan_list_in_order():
    sap = [i for i in sap_pool() if _box(i) <= SCAN_LIMIT or _box(i) > ENUMERATION_CAP]
    families = {
        "sap": sap,
        "fopt": [_strict(f"fopt{s}", max_edges=6, max_value=2) for s in range(25)],
        "wopt": [_strict(f"wopt{s}", max_edges=6, max_value=2) for s in range(15)],
        "orc": _orc_instances(),
    }
    for name, insts in families.items():
        for k, inst in enumerate(insts):
            found = _outcome(oracle_enumerate_stable, inst)
            assert found == _outcome(_box_scan, inst), (name, k)
            assert found, (name, k)  # stable points exist, or the cap raised
    assert sum(_box(i) > ENUMERATION_CAP for i in sap) == 6


def _disjoint_edges(capacities, quota=1):
    """One edge per firm-worker pair, with no pair sharing a vertex."""
    n = len(capacities)
    firms = [f"f{i}" for i in range(n)]
    workers = [f"w{i}" for i in range(n)]
    edges = [Edge(f"e{i}", f"f{i}", f"w{i}", cap) for i, cap in enumerate(capacities)]
    quotas = {v: Fraction(quota) for v in firms + workers}
    corteges = {v: [[f"e{v[1:]}"]] for v in firms + workers}
    return Instance(firms, workers, edges, quotas, corteges)


def test_guards_raise_their_messages():
    tied = Instance(
        ["f0"],
        ["w0", "w1"],
        [Edge("a", "f0", "w0", Fraction(1)), Edge("b", "f0", "w1", Fraction(1))],
        {"f0": Fraction(1), "w0": Fraction(1), "w1": Fraction(1)},
        {"f0": [["a", "b"]], "w0": [["a"]], "w1": [["b"]]},
    )
    with pytest.raises(InstanceError) as exc:
        oracle_enumerate_stable(tied)
    assert str(exc.value) == "vertex 'f0' has a tie; oracle needs strict orders"

    half_cap = _disjoint_edges([Fraction(1), Fraction(3, 2)])
    with pytest.raises(InstanceError) as exc:
        oracle_enumerate_stable(half_cap)
    assert str(exc.value) == "edge 'e1': oracle needs integral capacity"

    half_quota = _disjoint_edges([Fraction(1)], quota=Fraction(1, 2))
    with pytest.raises(InstanceError) as exc:
        oracle_enumerate_stable(half_quota)
    assert str(exc.value) == "vertex 'f0': oracle needs integral quota"


def test_cap_admits_a_box_of_exactly_the_cap():
    inst = _disjoint_edges([Fraction(9)] * 6)
    assert ENUMERATION_CAP == 10**6 == _box(inst)
    assert oracle_enumerate_stable(inst) == [{e: Fraction(1) for e in inst.edge_ids}]


def test_a_report_that_raises_stops_the_enumeration(monkeypatch):
    """Every point judged is in the box and within the quotas, so stationary;
    a report that raises on one of them is a fault, not a point to skip."""
    inst = _disjoint_edges([Fraction(1)] * 2)
    assert oracle_enumerate_stable(inst) == [{"e0": 1, "e1": 1}]

    def planted(inst, x):  # rejects the one stable point
        if x["e0"] == 1:
            raise InstanceError("planted rejection")
        return stability_report(inst, x)

    monkeypatch.setattr(smp.bruteforce, "stability_report", planted)
    with pytest.raises(InstanceError, match="planted rejection"):
        oracle_enumerate_stable(inst)


def test_cap_is_checked_before_any_report(monkeypatch):
    calls = []

    def counting(inst, x):
        calls.append(x)
        return stability_report(inst, x)

    monkeypatch.setattr(smp.bruteforce, "stability_report", counting)
    inst = _disjoint_edges([Fraction(10)] + [Fraction(9)] * 5)
    assert _box(inst) == 11 * 10**5
    with pytest.raises(InstanceError) as exc:
        oracle_enumerate_stable(inst)
    assert str(exc.value) == f"search space exceeds {ENUMERATION_CAP}"
    assert calls == []
