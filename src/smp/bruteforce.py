"""Exhaustive oracles used as ground truth in the test-suite.

Only practical on tiny instances; every cap is enforced before enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .model import Instance, InstanceError
from .stability import stability_report

ENUMERATION_CAP = 10**6


def oracle_enumerate_stable(inst: Instance) -> list[dict[str, Fraction]]:
    """All integral stable allocations of a small strict-order instance.

    Requires singleton ties everywhere and integral capacities and quotas;
    the search space is the full integer box, so its size (product of
    capacity+1 over the edges) is capped.
    """
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


def oracle_min_cost_ideal(
    zeta: Mapping[int, Fraction], less: frozenset, n: int
) -> tuple[Fraction, frozenset[int]]:
    """Cheapest downward-closed rotation set by trying all subsets.

    The empty set is an ideal and the first subset tried, so `best` starts
    there.
    """
    best = (Fraction(0), frozenset())
    elements = list(range(n))
    for bits in itertools.product((0, 1), repeat=n):
        subset = frozenset(i for i, b in zip(elements, bits) if b)
        if any(b in subset and a not in subset for (a, b) in less):
            continue
        weight = sum((zeta[i] for i in subset), Fraction(0))
        if weight < best[0]:
            best = (weight, subset)
    return best
