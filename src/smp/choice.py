"""Per-vertex choice functions and the revealed preference order they induce.

Each vertex v chooses from an offered vector z on its incident edges: if the
offer does not reach the quota, everything is taken; otherwise edges are taken
greedily tie by tie, and the tie that straddles the quota (the *critical* tie)
is truncated at a common cutting height r.  The edges of the critical tie that
hit the height form the *head*; the better ties together with the rest of the
critical tie form the *tail*.  The head/tail split drives everything else:
stability, the active digraph, rotations.

Value contract: an offer maps edge ids to exact rationals, a missing edge
reading as 0.  A `Fraction` value passes through untouched and any other value
(an int, say) is converted once on entry, so every `result` value and every
`height` of a `ChoiceOutcome` is a `Fraction`.  Quotas are `Fraction`s by the
`Instance` contract.

Integer kernel: `choose` scales the vertex's offer and quota to integers over
the lcm D of their denominators, and does the negativity check, the sums, the
critical-tie search and the cutting-height pass in `int`s.  Like `linalg`'s
fraction-free elimination it is exact and uses no floats.  The height r is
kept as rn / rd, so an edge with scaled offer a is in the head when
a·rd >= rn and is cut to r when a·rd > rn.  `Fraction`s are made only at the
kernel's boundary: the one height `Fraction(rn, rd·D)`, and `result`, which
holds the input `Fraction`s (the same objects) on every edge kept whole, the
height on every cut edge and 0 after the critical tie.

A choice reads only the vertex's incident edges, quota and ties (which
`Instance.swapped` keeps) and the offer on its edges, so an outcome stays
valid for as long as that offer does.  `_rechoose` is the one place that
decides between a stored outcome and a fresh `choose`; the proposal rounds,
`stability_report` and the routes all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Mapping, Optional

from .model import ZERO, Instance, InvariantError


@dataclass(frozen=True)
class ChoiceOutcome:
    result: dict[str, Fraction]       # chosen vector on the incident edges
    head: frozenset[str]
    tail: frozenset[str]
    critical_tie: Optional[int]       # tie index, None when in deficit
    height: Optional[Fraction]        # cutting height r, None when in deficit
    deficit: bool


def _restrict(inst: Instance, v: str, z: Mapping[str, Fraction]) -> dict[str, Fraction]:
    zv = {}
    for e in inst.incident[v]:
        val = z.get(e, ZERO)
        zv[e] = val if type(val) is Fraction else Fraction(val)
    return zv


def _cutting_height(values: list[int], target: int) -> tuple[int, int]:
    """Smallest r = rn/rd with sum(min(r, val) for val in values) == target.

    Requires 0 < target <= sum(values).  If target equals the full sum every
    r >= max(values) works; the maximum value is returned so that the values
    attaining it form a nonempty head.
    """
    total = sum(values)
    if target == total:
        return max(values), 1
    # one pass over the values, ascending: for r up to the i-th value the sum
    # is taken + (n - i) * r, taken being the sum of the first i values.  At
    # a later copy of a value this sum at r = val equals the one at its first
    # copy, so the test below passes first at a first copy, as a scan over
    # the distinct values would find.
    taken = 0
    n = len(values)
    for i, val in enumerate(sorted(values)):
        if taken + (n - i) * val >= target:
            return target - taken, n - i
        taken += val
    raise InvariantError("target above total offer")  # pragma: no cover


def choose(inst: Instance, v: str, z: Mapping[str, Fraction]) -> ChoiceOutcome:
    """Apply v's choice function to the offer z (restricted to E_v).

    The kernel runs on the offer and the quota scaled to integers over the
    lcm `den` of their denominators (module docstring).
    """
    zv = _restrict(inst, v, z)
    q = inst.quota[v]
    den = q.denominator
    ratios = []
    for e, val in zv.items():
        n, d = val.as_integer_ratio()
        if n < 0:
            raise ValueError(f"negative offer at {v!r}")
        if den % d:
            den = lcm(den, d)
        ratios.append((e, n, d))
    a = {e: n * (den // d) for e, n, d in ratios}
    quota = q.numerator * (den // q.denominator)
    if sum(a.values()) < quota:
        return ChoiceOutcome(
            result=zv,
            head=frozenset(),
            tail=frozenset(inst.incident[v]),
            critical_tie=None,
            height=None,
            deficit=True,
        )
    ties = inst.corteges[v]
    prefix = 0
    critical = None
    for i, tie in enumerate(ties):
        tie_sum = sum([a[e] for e in tie])
        if prefix < quota <= prefix + tie_sum:
            critical = i
            break
        prefix += tie_sum
    if critical is None:
        raise InvariantError(f"quota of {v!r} not reached despite sufficient offer")
    tie = ties[critical]
    rn, rd = _cutting_height([a[e] for e in tie], quota - prefix)
    r = Fraction(rn, rd * den)
    result = dict(zv)
    head = []
    tail = [e for t in ties[:critical] for e in t]
    for e in tie:
        scaled = a[e] * rd
        if scaled < rn:
            tail.append(e)
        else:
            head.append(e)
            if scaled > rn:
                result[e] = r
    for t in ties[critical + 1:]:
        for e in t:
            result[e] = ZERO
    return ChoiceOutcome(
        result=result,
        head=frozenset(head),
        tail=frozenset(tail),
        critical_tie=critical,
        height=r,
        deficit=False,
    )


def _rechoose(
    inst: Instance,
    vertices: Iterable[str],
    z: Mapping[str, Fraction],
    prev: Mapping[str, ChoiceOutcome],
    changed: Collection[str] = (),
) -> dict[str, ChoiceOutcome]:
    """Each vertex's choice from z, reusing its stored outcome where it can.

    `prev[v]`, where present, is v's choice from an input that equals z on
    every edge at v unless v is in `changed`.  A choice reads nothing but the
    vertex's incident edges, quota and ties and its input there, so an equal
    input gives an equal outcome; a vertex that changed or has no stored
    outcome chooses afresh.
    """
    out = {}
    for v in vertices:
        old = prev.get(v)
        out[v] = old if old is not None and v not in changed else choose(inst, v, z)
    return out


def prefers(inst: Instance, v: str, z: Mapping[str, Fraction], zp: Mapping[str, Fraction]) -> bool:
    """Whether v weakly prefers offer z to offer zp (revealed preference).

    Defined only for vectors v would actually keep (fixed points of the
    choice function, e.g. restrictions of admissible assignments); on
    anything else the two characterizations below genuinely diverge.

    Two independent characterizations are evaluated — choosing from the join
    must return z, and z must dominate zp on the tail of z — and checked to
    agree (`InvariantError` otherwise).
    """
    zv = _restrict(inst, v, z)
    zpv = _restrict(inst, v, zp)
    tails = []
    for name, vec in (("first", zv), ("second", zpv)):
        chosen = choose(inst, v, vec)
        if chosen.result != vec:
            raise ValueError(
                f"{name} offer at {v!r} is not a chosen vector; the preference "
                "order is only defined on fixed points of the choice function"
            )
        tails.append(chosen.tail)
    join = {e: max(zv[e], zpv[e]) for e in zv}
    via_join = choose(inst, v, join).result == zv
    via_tail = all(zv[e] >= zpv[e] for e in tails[0])
    if via_join != via_tail:
        raise InvariantError(
            f"preference characterizations disagree at {v!r}: join={via_join} tail={via_tail}"
        )
    return via_join
