"""Exhaustive oracles used as ground truth in the test-suite.

Only practical on tiny instances; every cap is enforced before enumeration.
`oracle_enumerate_stable` walks the integer box depth first and skips only
points that exceed a quota; every other point goes to `stability_report`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping

from .model import Instance, InstanceError
from .stability import stability_report

ENUMERATION_CAP = 10**6


def oracle_enumerate_stable(inst: Instance) -> list[dict[str, Fraction]]:
    """All integral stable allocations of a small strict-order instance.

    Requires singleton ties everywhere and integral capacities and quotas.
    The cap is on the full integer box, pruning aside: its size (the product
    of capacity+1 over the edges) may not exceed `ENUMERATION_CAP`, checked
    before any enumeration.

    The box is searched depth first: edges in `inst.edges` order, each
    edge's values ascending from 0 to its capacity, with each vertex's load
    kept as an `int`.  An edge's value loop stops at the first value that
    takes an endpoint over its quota; larger values overload it too, and so
    does every completion, since values are nonnegative.  The points skipped
    are exactly those that `validate_assignment` rejects for a quota
    overload, no point leaves the box, and every other point is judged by
    `stability_report` with no known outcomes.  A point in the box and
    within every quota is stationary (see `stability_report`), so a report
    that raises is a fault and propagates: no point is dropped unjudged.
    The order is the scan's (`itertools.product` over the box), so the list
    is the one a full scan returns, order included.
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
    ids = [e.id for e in inst.edges]
    out = []
    for combo in _within_quotas(inst):
        x = {eid: Fraction(v) for eid, v in zip(ids, combo)}
        if stability_report(inst, x).stable:
            out.append(x)
    return out


def _within_quotas(inst: Instance) -> Iterator[tuple[int, ...]]:
    """The integer box points within every quota, in `itertools.product` order."""
    edges = inst.edges
    quota = {v: int(q) for v, q in inst.quota.items()}
    load = dict.fromkeys(quota, 0)
    combo = [0] * len(edges)

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(edges):
            yield tuple(combo)
            return
        f, w = edges[i].firm, edges[i].worker
        for v in range(int(edges[i].capacity) + 1):
            if load[f] + v > quota[f] or load[w] + v > quota[w]:
                break
            combo[i] = v
            load[f] += v
            load[w] += v
            yield from extend(i + 1)
            load[f] -= v
            load[w] -= v

    return extend(0)


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
