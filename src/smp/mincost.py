"""Minimum-cost stable assignment via a closure/min-cut reduction.

Every stable assignment is x_min plus a closed combination of rotations, so
its cost is c·x_min plus the summed rotation weights ζ(ρ) = τ(ρ)·(c·ρ) over a
downward-closed set of rotations.  Minimizing a node-weight sum over closed
sets is the classical project-selection min-cut.  `min_cost_stable` checks
the costs with `Instance`'s check (no unknown edge, then each an int or a
Fraction), then that no edge lacks one, computes ζ as a list indexed by
rotation id and solves the cut.  Every arc of the cut network has a finite
capacity: a covering arc gets one above the total positive weight, which no
flow reaches (see `min_cost_stable`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Optional

from .flow import FlowNetwork, min_cut
from .model import Instance, InstanceError, InvariantError, _checked_costs
from .poset import RotationPoset, _closed_of_ideal, build_poset, gamma


class MinCostResult(NamedTuple):
    assignment: dict[str, Fraction]
    cost: Fraction
    ideal: frozenset[int]


def assignment_cost(costs: Mapping[str, Fraction], x: Mapping[str, Fraction]) -> Fraction:
    """c·x, summed in integers over a running common denominator.

    The sum is num / den; den grows to the lcm of the denominators of the
    products c_e·x_e seen so far, as `choose` scales its offer, and one
    `Fraction` is made at the end.  Zero values are skipped.
    """
    num, den = 0, 1
    for e, v in x.items():
        if v:
            c = costs[e]
            d = c.denominator * v.denominator
            if den % d:
                grown = lcm(den, d)
                num, den = num * (grown // den), grown
            num += c.numerator * v.numerator * (den // d)
    return Fraction(num, den)


def min_cost_stable(
    inst: Instance,
    costs: Optional[Mapping[str, Fraction]] = None,
    poset: Optional[RotationPoset] = None,
) -> MinCostResult:
    """The cheapest stable assignment under the given edge costs.

    Network: source feeds each positive-ζ rotation with capacity ζ, each
    negative-ζ rotation drains |ζ| to the sink, and each covering relation
    ρ ⋖ ρ' carries an arc ρ → ρ' that no cut of minimal capacity crosses
    (see the bound below).  The minimal cut's source side A is then
    up-closed, so its complement X is an ideal, and the cut capacity equals
    ζ(X) minus the (constant) total negative weight — minimal cut, minimal
    ideal weight.  Ties are broken deterministically by taking A = the nodes
    reachable from the source in the final residual network (the unique
    smallest min cut).
    """
    if costs is None:
        costs = inst.costs
    if costs is None:
        raise InstanceError("no edge costs given")
    costs = _checked_costs(inst.edge_by_id, costs)
    missing = set(inst.edge_ids) - costs.keys()
    if missing:
        raise InstanceError(f"costs missing for edges: {sorted(missing)}")
    cache: dict = {}  # the states build_poset analyses, for gamma's check
    if poset is None:
        poset = build_poset(inst, cache=cache)
    zeta = [rot.tau * assignment_cost(costs, rot.values) for rot in poset.rotations]
    net = FlowNetwork(source="s", sink="t")
    for i, z in enumerate(zeta):
        if z > 0:
            net.add_edge("s", i, z)
        elif z < 0:
            net.add_edge(i, "t", -z)
    # A covering arc gets capacity C = 1 + Σζ⁺ and acts as if unbounded.  The
    # network is a DAG, so the flow on any arc is at most the total flow
    # F ≤ Σζ⁺ < C: a covering arc is never saturated, and BFS sees a positive
    # residual on it exactly where it would on an unbounded arc.  Every
    # augmenting path starts with a source arc of residual at most Σζ⁺ − F,
    # below any covering arc's C − F, so a covering arc never sets the
    # bottleneck.  The cut value and its source side are therefore those of
    # the network with unbounded covering arcs.
    cover = sum((z for z in zeta if z > 0), Fraction(1))
    for (a, b) in poset.hasse:
        net.add_edge(a, b, cover)
    cut = min_cut(net)
    ideal = frozenset(range(len(zeta))) - cut.source_side
    # a covering arc (a, b) leaving the source side puts b in the ideal
    # without its predecessor a, which `_closed_of_ideal` rejects
    lam = _closed_of_ideal(poset, ideal)
    zeta_neg = sum((z for z in zeta if z < 0), Fraction(0))
    zeta_ideal = sum((zeta[i] for i in ideal), Fraction(0))
    if zeta_ideal != cut.value + zeta_neg:
        raise InvariantError("cut capacity does not match ideal weight")
    x = gamma(inst, poset, lam, cache=cache)
    cost = assignment_cost(costs, x)
    base = assignment_cost(costs, poset.xmin)
    if cost != base + zeta_ideal:
        raise InvariantError("cost decomposition mismatch")
    return MinCostResult(assignment=x, cost=cost, ideal=ideal)
