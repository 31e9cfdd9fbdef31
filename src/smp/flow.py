"""Exact max-flow / min-cut on small networks (Edmonds–Karp).

Capacities are Fractions or None (= unbounded).  Used by the min-cost solver's
cut network, whose node count equals the number of rotations, so the simple
BFS augmenting-path scheme is more than fast enough.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional


Node = Hashable


@dataclass
class FlowNetwork:
    source: Node
    sink: Node

    def __post_init__(self) -> None:
        self.capacity: dict[tuple[Node, Node], Optional[Fraction]] = {}
        self.adj: dict[Node, list[Node]] = {self.source: [], self.sink: []}

    def add_edge(self, u: Node, v: Node, cap: Optional[Fraction]) -> None:
        if cap is not None and cap < 0:
            raise ValueError(f"negative capacity on {u!r}->{v!r}")
        for node in (u, v):
            self.adj.setdefault(node, [])
        if (u, v) in self.capacity:
            old = self.capacity[(u, v)]
            self.capacity[(u, v)] = None if (old is None or cap is None) else old + cap
            return
        self.capacity[(u, v)] = cap
        self.capacity.setdefault((v, u), Fraction(0))
        self.adj[u].append(v)
        if u not in self.adj[v]:
            self.adj[v].append(u)


@dataclass
class CutResult:
    value: Optional[Fraction]  # None = unbounded flow
    source_side: frozenset     # min cut nearest the source (residual reach)


def min_cut(net: FlowNetwork) -> CutResult:
    """Max flow and the unique minimal min cut of `net`.

    Returns the flow value (None if unbounded) and the set of nodes
    reachable from the source in the final residual network.
    """
    flow: dict[tuple[Node, Node], Fraction] = {k: Fraction(0) for k in net.capacity}

    def residual(u: Node, v: Node) -> Optional[Fraction]:
        cap = net.capacity.get((u, v), Fraction(0))
        if cap is None:
            return None
        return cap - flow[(u, v)]

    total = Fraction(0)
    while True:
        # BFS for a shortest augmenting path
        parent: dict[Node, Node] = {net.source: net.source}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            u = queue.popleft()
            for v in net.adj[u]:
                if v not in parent:
                    r = residual(u, v)
                    if r is None or r > 0:
                        parent[v] = u
                        queue.append(v)
        if net.sink not in parent:
            return CutResult(value=total, source_side=frozenset(parent))
        # bottleneck along the path
        bottleneck: Optional[Fraction] = None
        v = net.sink
        while v != net.source:
            r = residual(parent[v], v)
            if r is not None and (bottleneck is None or r < bottleneck):
                bottleneck = r
            v = parent[v]
        if bottleneck is None:
            return CutResult(value=None, source_side=frozenset())
        v = net.sink
        while v != net.source:
            u = parent[v]
            flow[(u, v)] += bottleneck
            flow[(v, u)] -= bottleneck
            v = u
        total += bottleneck
