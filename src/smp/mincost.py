"""Minimum-cost stable assignment via a closure/min-cut reduction.

Every stable assignment is x_min plus a closed combination of rotations, so
its cost is c·x_min plus the summed rotation weights ζ(ρ) = τ(ρ)·(c·ρ) over a
downward-closed set of rotations.  Minimizing a node-weight sum over closed
sets is the classical project-selection min-cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .flow import FlowNetwork, min_cut
from .model import Instance, InstanceError, InvariantError
from .poset import RotationPoset, _fully_closed, build_poset, gamma


@dataclass
class CostedPoset:
    poset: RotationPoset
    costs: dict[str, Fraction]
    zeta: dict[int, Fraction]            # τ(ρ)·(c·ρ)


def build_costed_poset(
    inst: Instance,
    costs: Optional[Mapping[str, Fraction]] = None,
    poset: Optional[RotationPoset] = None,
) -> CostedPoset:
    if costs is None:
        costs = inst.costs
    if costs is None:
        raise InstanceError("no edge costs given")
    missing = set(inst.edge_ids) - set(costs)
    if missing:
        raise InstanceError(f"costs missing for edges: {sorted(missing)}")
    if poset is None:
        poset = build_poset(inst)
    zeta = {
        i: rot.tau * sum((costs[e] * v for e, v in rot.values.items()), Fraction(0))
        for i, rot in enumerate(poset.rotations)
    }
    return CostedPoset(poset=poset, costs=dict(costs), zeta=zeta)


@dataclass
class MinCostResult:
    assignment: dict[str, Fraction]
    cost: Fraction
    ideal: frozenset[int]


def assignment_cost(costs: Mapping[str, Fraction], x: Mapping[str, Fraction]) -> Fraction:
    return sum((costs[e] * v for e, v in x.items()), Fraction(0))


def min_cost_stable(
    inst: Instance,
    costs: Optional[Mapping[str, Fraction]] = None,
    poset: Optional[RotationPoset] = None,
) -> MinCostResult:
    """The cheapest stable assignment under the given edge costs.

    Network: source feeds each positive-ζ rotation with capacity ζ, each
    negative-ζ rotation drains |ζ| to the sink, and each covering relation
    ρ ⋖ ρ' carries an infinite arc ρ → ρ'.  A finite source-side cut A is then
    up-closed, so its complement X is an ideal, and the cut capacity equals
    ζ(X) minus the (constant) total negative weight — minimal cut, minimal
    ideal weight.  Ties are broken deterministically by taking A = the nodes
    reachable from the source in the final residual network (the unique
    smallest min cut).
    """
    cp = build_costed_poset(inst, costs, poset)
    poset = cp.poset
    n = len(poset.rotations)
    net = FlowNetwork(source="s", sink="t")
    for i in range(n):
        z = cp.zeta[i]
        if z > 0:
            net.add_edge("s", i, z)
        elif z < 0:
            net.add_edge(i, "t", -z)
    for (a, b) in poset.hasse:
        net.add_edge(a, b, None)
    cut = min_cut(net)
    if cut.value is None:
        raise InvariantError("cut network cannot be unbounded")
    source_side = cut.source_side
    ideal = frozenset(i for i in range(n) if i not in source_side)
    if any(a in source_side and b not in source_side for (a, b) in poset.hasse):
        raise InvariantError("a covering arc leaves the source side of the cut")
    zeta_neg = sum((z for z in cp.zeta.values() if z < 0), Fraction(0))
    zeta_ideal = sum((cp.zeta[i] for i in ideal), Fraction(0))
    if zeta_ideal != cut.value + zeta_neg:
        raise InvariantError("cut capacity does not match ideal weight")
    x = gamma(inst, poset, _fully_closed(poset, ideal))
    cost = assignment_cost(cp.costs, x)
    base = assignment_cost(cp.costs, poset.xmin)
    if cost != base + zeta_ideal:
        raise InvariantError("cost decomposition mismatch")
    return MinCostResult(assignment=x, cost=cost, ideal=ideal)
