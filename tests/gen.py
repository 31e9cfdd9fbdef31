"""Shared fixtures and random instance generators for the test-suite."""

from __future__ import annotations

import random
from fractions import Fraction

from smp import Edge, Instance, build_poset

F = Fraction


def triangle_instance(a: Fraction, b: Fraction) -> Instance:
    """3x3 instance whose unique rotation has values ranging from -8 to 7.

    Firms are indifferent among all their edges; workers rank
    w1: f1>f3>f2, w2: f1>f2>f3, w3: f2>{f1,f3}.  Capacities b, quotas 3a,
    and x ≡ a is stable.
    """
    firms = ["f1", "f2", "f3"]
    workers = ["w1", "w2", "w3"]
    edges = [Edge(f + w, f, w, b) for f in firms for w in workers]
    quota = {v: 3 * a for v in firms + workers}
    corteges = {
        "f1": [["f1w1", "f1w2", "f1w3"]],
        "f2": [["f2w1", "f2w2", "f2w3"]],
        "f3": [["f3w1", "f3w2", "f3w3"]],
        "w1": [["f1w1"], ["f3w1"], ["f2w1"]],
        "w2": [["f1w2"], ["f2w2"], ["f3w2"]],
        "w3": [["f2w3"], ["f1w3", "f3w3"]],
    }
    return Instance(firms, workers, edges, quota, corteges)


# the rotation of the triangle instance, frozen (derived once from the balance
# system by hand, cross-checked against the aligned/conservation invariants)
TRIANGLE_ROTATION = {
    "f1w1": F(1),
    "f1w2": F(1),
    "f1w3": F(-2),
    "f2w1": F(-8),
    "f2w2": F(4),
    "f2w3": F(4),
    "f3w1": F(7),
    "f3w2": F(-5),
    "f3w3": F(-2),
}


def chained_instance(k: int, a: Fraction, b: Fraction) -> Instance:
    """k triangle copies glued in a chain: copy j's w1 is copy j+1's w3.

    The merged vertices get quota 6a and rank their six edges
    f1^j w1 > f3^j w1 > f2^{j+1} w3 > {f2^j w1, f1^{j+1} w3, f3^{j+1} w3},
    so the whole chain carries a single rotation whose restriction to copy j
    is 4^(j-1) times the triangle rotation.  5k+1 vertices.
    """
    assert k >= 1

    def fv(i: int, j: int) -> str:
        return f"f{i}.{j}"

    def wv(i: int, j: int) -> str:
        # merged vertex: w1 of copy j == w3 of copy j+1
        if i == 1 and j < k:
            return f"m.{j}"
        if i == 3 and j > 1:
            return f"m.{j - 1}"
        return f"w{i}.{j}"

    def eid(i: int, l: int, j: int) -> str:
        return f"f{i}w{l}.{j}"

    firms = [fv(i, j) for j in range(1, k + 1) for i in (1, 2, 3)]
    workers = sorted({wv(i, j) for j in range(1, k + 1) for i in (1, 2, 3)})
    edges = [
        Edge(eid(i, l, j), fv(i, j), wv(l, j), b)
        for j in range(1, k + 1)
        for i in (1, 2, 3)
        for l in (1, 2, 3)
    ]
    quota = {v: (6 * a if v.startswith("m.") else 3 * a) for v in firms + workers}
    corteges: dict[str, list[list[str]]] = {}
    for j in range(1, k + 1):
        for i in (1, 2, 3):
            corteges[fv(i, j)] = [[eid(i, 1, j), eid(i, 2, j), eid(i, 3, j)]]
        corteges[f"w2.{j}"] = [[eid(1, 2, j)], [eid(2, 2, j)], [eid(3, 2, j)]]
    corteges[f"w3.1"] = [[eid(2, 3, 1)], [eid(1, 3, 1), eid(3, 3, 1)]]
    corteges[f"w1.{k}"] = [[eid(1, 1, k)], [eid(3, 1, k)], [eid(2, 1, k)]]
    for j in range(1, k):
        corteges[f"m.{j}"] = [
            [eid(1, 1, j)],
            [eid(3, 1, j)],
            [eid(2, 3, j + 1)],
            [eid(2, 1, j), eid(1, 3, j + 1), eid(3, 3, j + 1)],
        ]
    return Instance(firms, workers, edges, quota, corteges)


def chained_rotation(k: int) -> dict[str, Fraction]:
    """The frozen rotation of `chained_instance`: copy j = 4^(j-1) · triangle."""
    out = {}
    for j in range(1, k + 1):
        scale = 4 ** (j - 1)
        for key, val in TRIANGLE_ROTATION.items():
            out[f"{key[:2]}{key[2:]}.{j}"] = scale * val
    return out


def six_cycle_instance() -> Instance:
    """Unit 6-cycle with a chord; strict orders; two integral stable points.

    Vertices v0..v5 around the cycle, chord a = v1v4.  Ranks (worst-to-best
    in the construction, stored best-first): e_i < e_{i+1} at the shared
    vertex, e1 < a < e2 at v1, e4 < a < e5 at v4.
    """
    # bipartition: even vertices as firms, odd as workers
    firms = ["v0", "v2", "v4"]
    workers = ["v1", "v3", "v5"]
    edges = [
        Edge("e1", "v0", "v1", F(1)),
        Edge("e2", "v2", "v1", F(1)),
        Edge("e3", "v2", "v3", F(1)),
        Edge("e4", "v4", "v3", F(1)),
        Edge("e5", "v4", "v5", F(1)),
        Edge("e6", "v0", "v5", F(1)),
        Edge("a", "v4", "v1", F(1)),
    ]
    quota = {v: F(1) for v in firms + workers}
    corteges = {
        # best tie first; at each vertex e_{i+1} is preferred to e_i (the
        # rank wraps around, so v0 prefers e1), and the chord sits between
        # its neighbours in rank
        "v0": [["e1"], ["e6"]],
        "v1": [["e2"], ["a"], ["e1"]],
        "v2": [["e3"], ["e2"]],
        "v3": [["e4"], ["e3"]],
        "v4": [["e5"], ["a"], ["e4"]],
        "v5": [["e6"], ["e5"]],
    }
    return Instance(firms, workers, edges, quota, corteges)


SIX_CYCLE_STABLE_ODD = {"e1": F(1), "e3": F(1), "e5": F(1), "e2": F(0), "e4": F(0), "e6": F(0), "a": F(0)}
SIX_CYCLE_STABLE_EVEN = {"e2": F(1), "e4": F(1), "e6": F(1), "e1": F(0), "e3": F(0), "e5": F(0), "a": F(0)}


def _random_partition(rng: random.Random, items: list[str], singletons: bool) -> list[list[str]]:
    rng.shuffle(items)
    if singletons:
        return [[e] for e in items]
    ties: list[list[str]] = []
    for e in items:
        if ties and rng.random() < 0.4:
            ties[-1].append(e)
        else:
            ties.append([e])
    return ties


def random_instance(
    rng: random.Random,
    max_edges: int = 25,
    singleton_ties: bool = False,
    single_tie_per_vertex: bool = False,
    integral: bool = False,
    max_value: int = 6,
    with_costs: bool = False,
) -> Instance:
    """Random connected-ish bipartite instance.

    `singleton_ties` gives strict orders; `single_tie_per_vertex` makes every
    vertex indifferent among all its edges (the unique-solution family);
    `integral` restricts capacities and quotas to integers.
    """
    nf = rng.randint(1, 4)
    nw = rng.randint(1, 4)
    firms = [f"f{i}" for i in range(nf)]
    workers = [f"w{i}" for i in range(nw)]
    pairs = [(f, w) for f in firms for w in workers]
    rng.shuffle(pairs)
    npairs = rng.randint(1, min(len(pairs), max_edges))
    pairs = pairs[:npairs]
    # drop isolated vertices
    firms = [f for f in firms if any(p[0] == f for p in pairs)]
    workers = [w for w in workers if any(p[1] == w for p in pairs)]

    def rand_value() -> Fraction:
        n = rng.randint(1, max_value)
        if integral:
            return F(n)
        return F(n, rng.choice([1, 1, 2, 3, 4]))

    edges = [Edge(f"{f}{w}", f, w, rand_value()) for f, w in pairs]
    quota = {v: rand_value() for v in firms + workers}
    corteges = {}
    for v in firms + workers:
        incident = [
            e.id for e in edges if v in (e.firm, e.worker)
        ]
        if single_tie_per_vertex:
            corteges[v] = [incident]
        else:
            corteges[v] = _random_partition(rng, incident, singleton_ties)
    costs = None
    if with_costs:
        costs = {e.id: F(rng.randint(-9, 9)) for e in edges}
    return Instance(firms, workers, edges, quota, corteges, costs)


def rand_marriage(
    rng: random.Random,
    n: int,
    cap: int = 1,
    tie_prob: float = 0.0,
) -> Instance:
    """Full n x n bipartite instance with shuffled preference lists.

    Unlike `random_instance` this family regularly produces several
    rotations, so it is the workhorse for poset-level tests.  `cap` sets
    every capacity and quota; `tie_prob` merges adjacent ranks into ties.
    """
    firms = [f"f{i}" for i in range(n)]
    workers = [f"w{i}" for i in range(n)]
    edges = [Edge(f"{f}{w}", f, w, F(cap)) for f in firms for w in workers]
    quota = {v: F(cap) for v in firms + workers}

    def prefs(v: str, others: list[str], fmt) -> list[list[str]]:
        order = others[:]
        rng.shuffle(order)
        ties: list[list[str]] = []
        for u in order:
            if ties and rng.random() < tie_prob:
                ties[-1].append(fmt(u))
            else:
                ties.append([fmt(u)])
        return ties

    corteges = {}
    for f in firms:
        corteges[f] = prefs(f, workers, lambda w: f"{f}{w}")
    for w in workers:
        corteges[w] = prefs(w, firms, lambda f: f"{f}{w}")
    return Instance(firms, workers, edges, quota, corteges)


def random_offer(rng: random.Random, inst: Instance, v: str) -> dict[str, Fraction]:
    """Random nonnegative offer on the edges at v (0 elsewhere)."""
    z = {}
    for e in inst.incident[v]:
        num = rng.randint(0, 12)
        den = rng.choice([1, 1, 2, 3])
        z[e] = F(num, den)
    return z


def rotation_weights(poset, costs) -> list[Fraction]:
    """ζ(ρ) = τ(ρ)·Σ_e c_e·ρ_e per rotation id, summed in plain `Fraction`s:
    a reference for the weights `min_cost_stable` sums in integers."""
    return [
        rot.tau * sum((F(costs[e]) * v for e, v in rot.values.items()), F(0))
        for rot in poset.rotations
    ]


def disjoint_union(*parts: Instance) -> Instance:
    """The instances side by side, with the ids of part i prefixed "i.".

    No edge joins two parts, so the stable assignments of the union are the
    tuples of the parts' stable assignments: its lattice is the product of
    theirs, and its rotation poset the disjoint union of their posets.  The
    union has costs when every part has them.
    """

    def rename(i: int, name: str) -> str:
        return f"{i}.{name}"

    firms, workers, edges, quota, corteges, costs = [], [], [], {}, {}, {}
    for i, part in enumerate(parts):
        firms += [rename(i, v) for v in part.firms]
        workers += [rename(i, v) for v in part.workers]
        edges += [
            Edge(rename(i, e.id), rename(i, e.firm), rename(i, e.worker), e.capacity)
            for e in part.edges
        ]
        quota.update((rename(i, v), q) for v, q in part.quota.items())
        for v, ties in part.corteges.items():
            corteges[rename(i, v)] = [[rename(i, e) for e in tie] for tie in ties]
        if part.costs is not None:
            costs.update((rename(i, e), c) for e, c in part.costs.items())
    with_costs = all(part.costs is not None for part in parts)
    return Instance(firms, workers, edges, quota, corteges, costs if with_costs else None)


def wide_unions(tag: str, count: int) -> list[Instance]:
    """`count` unions of two tied 4 x 4 marriages and the triangle.

    Each marriage has a rotation, drawn from `random.Random(tag)`.  A
    union's rotation poset is the disjoint union of its parts' posets, so it
    has at least three rotations and the triangle's is incomparable to every
    other: the poset is never a chain.
    """
    rng = random.Random(tag)
    marriages: list[Instance] = []
    while len(marriages) < 2 * count:
        inst = rand_marriage(rng, 4, cap=2, tie_prob=0.3)
        if build_poset(inst).rotations:
            marriages.append(inst)
    triangle = triangle_instance(F(8), F(15))
    return [disjoint_union(a, b, triangle) for a, b in zip(marriages[::2], marriages[1::2])]
