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
(an int, say) is converted once on entry, so every `result` value of a
`ChoiceOutcome` is a `Fraction`.  Quotas are `Fraction`s by the `Instance`
contract.

Integer kernel: `_choose_scaled` takes v's offer and quota as `int`
numerators over one common denominator D and does the sums, the
critical-tie search and the cutting-height pass in `int`s.  Like `linalg`'s
fraction-free elimination it is exact and uses no floats.  It returns the
outcome with every `result` value a numerator over the same D, or, when the
cutting height r is not one, the factor by which D must grow for it to be.
r is found as rn / rd; the head holds the edges with a·rd >= rn and the
cut ones are those with a·rd > rn.  If rd does not divide rn no edge of the
critical tie sits exactly at r, so some edge is cut and D must grow; if it
does, r is a numerator over D and the pass compares `int`s.  `choose` is
scale → kernel → `Fraction`s: it scales the offer and the quota over the lcm
of their denominators, reruns the kernel once over the grown D if asked,
and rewrites the kernel's result in place, with the input `Fraction`s (the
same objects) on every edge kept whole, one height `Fraction` on every cut
edge and 0 after the critical tie.  The proposal rounds call the kernel
directly on their scaled state (`iteration`).

A choice reads only the vertex's incident edges, quota and ties (which
`Instance.swapped` keeps) and the offer on its edges, so an outcome stays
valid for as long as that offer does.  `_rechoose` is the one place that
decides between a stored outcome and a fresh `choose`; `stability_report` and
the routes go through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional

from .model import ZERO, Instance, InvariantError


class ChoiceOutcome(NamedTuple):
    # chosen vector on the incident edges; from the kernel, numerators over D
    result: dict[str, Fraction]
    head: frozenset[str]
    tail: frozenset[str]
    critical_tie: Optional[int]       # tie index, None when in deficit
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


def _choose_scaled(
    inst: Instance, v: str, a: Mapping[str, int], quota: int
) -> ChoiceOutcome | int:
    """v's choice from the offer a[e] / D on its edges, its quota being quota / D.

    `a` holds a nonnegative `int` on every edge at v.  Returns the outcome,
    every `result` value a numerator over the same D, or the factor k > 1 by
    which D must grow for the cutting height to be one (module docstring).
    """
    result = {e: a[e] for e in inst.incident[v]}
    if sum(result.values()) < quota:
        return ChoiceOutcome(
            result=result,
            head=frozenset(),
            tail=frozenset(inst.incident[v]),
            critical_tie=None,
            deficit=True,
        )
    ties = inst.corteges[v]
    prefix = 0
    critical = None
    for i, tie in enumerate(ties):
        tie_sum = sum([result[e] for e in tie])
        if prefix < quota <= prefix + tie_sum:
            critical = i
            break
        prefix += tie_sum
    if critical is None:
        raise InvariantError(f"quota of {v!r} not reached despite sufficient offer")
    tie = ties[critical]
    rn, rd = _cutting_height([result[e] for e in tie], quota - prefix)
    r, rest = divmod(rn, rd)
    if rest:
        return rd // gcd(rn, rd)
    head = []
    tail = [e for t in ties[:critical] for e in t]
    for e in tie:
        if result[e] < r:
            tail.append(e)
        else:
            head.append(e)
            result[e] = r
    for t in ties[critical + 1:]:
        for e in t:
            result[e] = 0
    return ChoiceOutcome(
        result=result,
        head=frozenset(head),
        tail=frozenset(tail),
        critical_tie=critical,
        deficit=False,
    )


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
    out = _choose_scaled(inst, v, a, quota)
    if type(out) is int:
        den *= out
        a = {e: n * out for e, n in a.items()}
        out = _choose_scaled(inst, v, a, quota * out)
    # the kernel's result is this call's own dict: rewrite it in Fractions
    result = out.result
    height = None
    for e, n in result.items():
        if n == a[e]:
            result[e] = zv[e]
        elif n:
            if height is None:
                height = Fraction(n, den)
            result[e] = height
        else:
            result[e] = ZERO
    return out


def _rechoose(
    inst: Instance,
    vertices: Iterable[str],
    z: Mapping[str, Fraction],
    prev: Mapping[str, ChoiceOutcome],
) -> dict[str, ChoiceOutcome]:
    """Each vertex's choice from z, reusing its stored outcome where it has one.

    `prev[v]`, where present, is v's choice from an input that equals z on
    every edge at v.  A choice reads nothing but the vertex's incident edges,
    quota and ties and its input there, so an equal input gives an equal
    outcome; a vertex with no stored outcome chooses afresh.
    """
    out = {}
    for v in vertices:
        old = prev.get(v)
        out[v] = old if old is not None else choose(inst, v, z)
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
