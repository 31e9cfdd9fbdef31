"""Exact max-flow / min-cut on small networks (Edmonds–Karp).

Every capacity is a finite nonnegative Fraction.  Used by the min-cost
solver's cut network, whose node count equals the number of rotations, so the
simple BFS augmenting-path scheme is more than fast enough.  `min_cut` keeps
its flow as one residual map, copied from the network's capacities.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Hashable, NamedTuple


Node = Hashable


class FlowNetwork:
    def __init__(self, source: Node, sink: Node) -> None:
        self.source = source
        self.sink = sink
        self.capacity: dict[tuple[Node, Node], Fraction] = {}
        self.adj: dict[Node, list[Node]] = {self.source: [], self.sink: []}

    def add_edge(self, u: Node, v: Node, cap: Fraction) -> None:
        """Add the arc u -> v, which is not in the network yet; its reverse
        residual arc starts at 0 unless it is an arc of its own."""
        if cap < 0:
            raise ValueError(f"negative capacity on {u!r}->{v!r}")
        self.capacity[(u, v)] = cap
        self.capacity.setdefault((v, u), Fraction(0))
        self.adj.setdefault(u, []).append(v)
        self.adj.setdefault(v, []).append(u)


class CutResult(NamedTuple):
    value: Fraction          # max flow = min cut capacity
    source_side: frozenset   # min cut nearest the source (residual reach)


def min_cut(net: FlowNetwork) -> CutResult:
    """Max flow and the unique minimal min cut of `net`.

    The flow lives in one residual map, a copy of `net.capacity` that each
    augmenting path lowers along its arcs and raises against them; `net` is
    not changed.  Returns the flow value and the set of nodes reachable from
    the source in the final residual network.
    """
    residual = dict(net.capacity)
    total = Fraction(0)
    while True:
        # BFS for a shortest augmenting path
        parent: dict[Node, Node] = {net.source: net.source}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            u = queue.popleft()
            for v in net.adj[u]:
                if v not in parent and residual[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        if net.sink not in parent:
            return CutResult(value=total, source_side=frozenset(parent))
        path = []
        v = net.sink
        while v != net.source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[arc] for arc in path)
        for u, v in path:
            residual[u, v] -= bottleneck
            residual[v, u] += bottleneck
        total += bottleneck
