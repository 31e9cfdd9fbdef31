"""Seeded instance corpora, one per workload, built from the families in tests/gen.py.

Each workload has a fixed pool of `pool_size` instances generated from the
families in tests/gen.py with a fixed pool seed.  `pool.json` records,
per pool instance, the digest of every op's output and a stratification key:
the counts that set its cost on the reference commit (aggregation LP calls,
rotations, chain length or enumeration box), then the number of `smp`
function calls its op sequence made.
Each workload fixes how many corpus instances come from each class of its
key (LP calls, rotations, chain length), chosen so that the median and the
tail percentile fall inside a class rather than on the edge between two.
The corpus of `--seed` sorts each class by key, cuts it into as many blocks
of neighbours as the class has corpus places, and draws one instance per
block.  Different seeds thus give different instances with the same mix of
easy and hard cases, and every output of every seed has a golden digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


@dataclass
class Case:
    name: str
    instance: object  # smp.Instance
    costs: dict[str, int]
    stratum: list[int] = field(default_factory=list)  # cost-setting counts known from generation


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[str, ...]
    pool_size: int   # instances in the fixed pool the corpus is drawn from
    classify: Callable[[list[int]], int]  # recorded key -> class
    quotas: dict[int, int]  # class -> instances per corpus
    trace_size: int  # leading corpus instances used by the traced passes
    params: str
    why: str

    @property
    def size(self) -> int:
        """Instances per corpus, which is also the latency sample count per op."""
        return sum(self.quotas.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tied", ("solve", "poset", "mincost", "check"), 400,
            lambda key: key[0], {1: 40}, 20,
            "rand_marriage(n=4, cap=2, tie_prob=0.5), only instances whose solve runs one aggregation LP",
            "ties stall ordinary rounds, so solve runs aggregation LPs and simplex dominates solve",
        ),
        Workload(
            "strict", ("solve", "poset", "mincost", "check"), 400,
            lambda key: min(key[0], 3), {0: 8, 1: 16, 2: 10, 3: 6}, 20,
            "rand_marriage(n=7, cap=1, tie_prob=0); rotations 0/1/2/3+: 8/16/10/6",
            "strict orders never stall (zero LP calls) and give several rotations: route-engine load, LP control",
        ),
        Workload(
            "chain", ("solve", "poset", "mincost", "check"), 160,
            lambda key: key[0], {3: 10, 4: 14, 5: 12, 6: 4}, 20,
            "chained_instance(k, r*8*4^(k-1), r*{15,17}*4^(k-1)); k 3/4/5/6: 10/14/12/4",
            "one rotation with coefficients up to 4^(k-1), so the exact balance solve dominates poset",
        ),
        Workload(
            "oracle", ("oracle", "solve", "poset", "mincost", "check"), 400,
            lambda key: 0, {0: 40}, 20,
            "rand_marriage(3, cap=1) alternating with random_instance(strict, integral, max_value=3), box 257..2048",
            "brute-force enumeration calls stability_report once per box point; check calls it once",
        ),
    )
}

CHAIN_LENGTHS = {3: 40, 4: 56, 5: 48, 6: 16}  # chain length k -> pool instances
ORACLE_BOX = (256, 2048)


def _box(inst) -> int:
    size = 1
    for e in inst.edges:
        size *= int(e.capacity) + 1
    return size


def pool(gen, workload: str) -> list[Case]:
    """The fixed instance pool of `workload`; `gen` is the tests/gen.py module."""
    wl = WORKLOADS[workload]
    n = wl.pool_size
    rng = random.Random(f"perfbench/pool/{workload}")
    insts: list[tuple[object, list[int]]] = []
    if workload == "tied":
        insts = [(gen.rand_marriage(rng, 4, cap=2, tie_prob=0.5), []) for _ in range(n)]
    elif workload == "strict":
        insts = [(gen.rand_marriage(rng, 7, cap=1, tie_prob=0.0), []) for _ in range(n)]
    elif workload == "chain":
        for k, count in CHAIN_LENGTHS.items():
            for _ in range(count):
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * 4 ** (k - 1)
                inst = gen.chained_instance(k, 8 * scale, rng.choice((15, 17)) * scale)
                insts.append((inst, [k]))
    elif workload == "oracle":
        lo, hi = ORACLE_BOX
        for i in range(n):
            if i % 2 == 0:
                inst = gen.rand_marriage(rng, 3, cap=1)
            else:
                inst = gen.random_instance(rng, singleton_ties=True, integral=True, max_value=3)
                while not lo < _box(inst) <= hi:
                    inst = gen.random_instance(rng, singleton_ties=True, integral=True, max_value=3)
            insts.append((inst, [_box(inst)]))
    else:
        raise KeyError(workload)
    if len(insts) != n:
        raise ValueError(f"{workload}: pool has {len(insts)} instances, expected {n}")
    return [
        Case(f"{workload}-{i:04d}", inst, {e: rng.randint(-9, 9) for e in inst.edge_ids}, stratum)
        for i, (inst, stratum) in enumerate(insts)
    ]


def select(workload: Workload, keys: list[list[int]], seed: int) -> list[int]:
    """Pool indices of the corpus for `seed`: one per block of key-sorted class members."""
    rng = random.Random(f"perfbench/select/{seed}")
    picks = []
    for cls, count in workload.quotas.items():
        members = sorted((i for i, k in enumerate(keys) if workload.classify(k) == cls), key=lambda i: (keys[i], i))
        if len(members) < count:
            raise ValueError(f"{workload.name}: class {cls} has {len(members)} pool instances, needs {count}")
        bounds = [j * len(members) // count for j in range(count + 1)]
        picks += [members[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(picks)
    return picks


def serialize(cases: list[Case], serialize_instance) -> list[tuple[str, str]]:
    """(instance JSON, costs JSON) per case, byte-stable."""
    return [
        (json.dumps(serialize_instance(c.instance), sort_keys=True), json.dumps(c.costs, sort_keys=True))
        for c in cases
    ]


def fingerprint(cases: list[Case], serialized: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for case, parts in zip(cases, serialized):
        for part in (case.name, *parts):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()
