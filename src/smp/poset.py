"""The rotation poset and the lattice of stable assignments.

Running full-weight shifts from the firm-optimal assignment to the
worker-optimal one always consumes the same set of rotations with the same
weights, regardless of order.  Imposing "ρ must be applied before ρ'" gives a
partial order whose ideals — equivalently, the closed weight functions λ —
are in bijection with the stable assignments via x = x_min + Σ λ(ρ)·ρ.

A closed function is a plain dict from rotation id to λ in [0, τ]; a
missing id reads as 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .choice import choose
from .iteration import _solve_xmin
from .model import ZERO, Instance, InstanceError, InvariantError, _exact
from .rotations import (
    Rotation,
    _add_shift,
    _carried_outcomes,
    _state_key,
    applicable_rotations,
    apply_shift,
    run_route,
)
from .stability import stability_report

# the most rotations `enumerate_fully_closed` takes, and the most points of
# a `grid_sublattice` grid
POSET_CAP = 20
GRID_CAP = 10**6


class RotationPoset(NamedTuple):
    rotations: list[Rotation]            # canonical representatives, stable ids 0..n-1
    less: frozenset[tuple[int, int]]     # (i, j) with ρ_i strictly before ρ_j
    hasse: list[tuple[int, int]]         # transitive reduction of `less`
    xmin: dict[str, Fraction]
    xmax: dict[str, Fraction]

    def downset(self, i: int) -> frozenset[int]:
        return frozenset({i} | {a for (a, j) in self.less if j == i})


def is_closed(poset: RotationPoset, lam: Mapping[int, Fraction]) -> bool:
    """Whether λ names only the poset's rotations, each with an `int` or
    `Fraction` weight (never a float or a `bool`), lies in [0, τ] on each, and
    is closed: a rotation is used only once its predecessors are exhausted."""
    n = len(poset.rotations)
    if not all(i in range(n) and _exact(l) is not None for i, l in lam.items()):
        return False
    if not all(0 <= lam.get(i, ZERO) <= rot.tau for i, rot in enumerate(poset.rotations)):
        return False
    for (a, b) in poset.less:
        if lam.get(b, Fraction(0)) > 0 and lam.get(a, Fraction(0)) != poset.rotations[a].tau:
            return False
    return True


def _fully_closed(poset: RotationPoset, ideal: frozenset[int]) -> dict[int, Fraction]:
    """The closed function with λ = τ on `ideal` and 0 elsewhere."""
    return {i: (rot.tau if i in ideal else Fraction(0)) for i, rot in enumerate(poset.rotations)}


def _closed_of_ideal(poset: RotationPoset, ideal: frozenset[int]) -> dict[int, Fraction]:
    """`_fully_closed(poset, ideal)` for an ideal that the library found
    itself, so a function that is not closed is an `InvariantError`, not the
    caller's `InstanceError` from `gamma`."""
    lam = _fully_closed(poset, ideal)
    if not is_closed(poset, lam):
        raise InvariantError(f"fully closed function of ideal {sorted(ideal)} not closed")
    return lam


def build_poset(
    inst: Instance, xmin: Optional[Mapping[str, Fraction]] = None, cache: Optional[dict] = None
) -> RotationPoset:
    """Collect the rotation set and its precedence order.

    The order is found by avoidance runs: forbidding ρ and applying everything
    else leaves unapplied exactly ρ and the rotations that need ρ first.  The
    Hasse diagram is the transitive reduction, and every Hasse edge (ρ, ρ')
    is re-verified directly: at the assignment realizing all of ρ's strict
    predecessors except ρ, the successor ρ' is not applicable, but it becomes
    applicable after the full shift along ρ.

    The avoidance run for the i-th base-route rotation starts at the base
    route's i-th state: before it the base route applied other rotations,
    each first in line, so the run from x_min would repeat that prefix.  The
    base route, the avoidance runs and the Hasse checks share one state cache
    (see `applicable_rotations`), so each distinct state is analysed once.
    A given `cache` is the caller's, who owns it for one command on `inst`
    and may read it after the call; without one, the call makes its own and
    drops it when it returns.  Without a given `xmin`, the base route starts
    from the solver's stability report at x_min, and every route and Hasse
    witness carries its choices past each shift (`rotations` module
    docstring, (b) and (c)).
    """
    known = None
    if xmin is None:
        xmin, known = _solve_xmin(inst)
    cache = {} if cache is None else cache
    base = run_route(inst, xmin, cache=cache, known=known)
    rotations = base.steps
    keys = [rot.key() for rot in rotations]
    if len(set(keys)) != len(keys):
        raise InvariantError("full-shift route repeated a rotation")
    xmin, xmax = base.states[0], base.states[-1]

    upsets: dict[int, frozenset[int]] = {}
    for i, key in enumerate(keys):
        partial = run_route(inst, base.states[i], avoid=key, cache=cache)
        applied = set(keys[:i]) | {rot.key() for rot in partial.steps}
        unapplied = frozenset(j for j, k in enumerate(keys) if k not in applied)
        if i not in unapplied:
            raise InvariantError(f"avoidance run applied the avoided rotation {i}")
        upsets[i] = unapplied
    # every (i, j) has i < j, since the base route's first i keys count as
    # applied and the keys are distinct: the order is antisymmetric as built
    less = frozenset(
        (i, j) for i, up in upsets.items() for j in up if j != i
    )
    for (a, b) in less:
        if not upsets[b] <= upsets[a]:
            raise InvariantError(f"precedence not transitive at rotations {a} < {b}")
    hasse = sorted(
        (a, b)
        for (a, b) in less
        if not any((a, c) in less and (c, b) in less for c in range(len(keys)))
    )
    poset = RotationPoset(rotations=rotations, less=less, hasse=hasse, xmin=xmin, xmax=xmax)
    for (a, b) in hasse:
        _verify_hasse_edge(inst, poset, a, b, cache)
    return poset


def _verify_hasse_edge(inst: Instance, poset: RotationPoset, a: int, b: int, cache: dict) -> None:
    """Direct witness that ρ_a immediately precedes ρ_b, at the point of the
    ideal below ρ_b without ρ_a; a set that is not an ideal fails
    `_closed_of_ideal`."""
    x = gamma(inst, poset, _closed_of_ideal(poset, poset.downset(b) - {a, b}), verify=False)
    act, rots = applicable_rotations(inst, x, cache)
    here = {r.key() for r in rots}
    pred, succ = poset.rotations[a], poset.rotations[b]
    if pred.key() not in here:
        raise InvariantError("predecessor not applicable at witness state")
    if succ.key() in here:
        raise InvariantError("successor applicable too early")
    x2 = apply_shift(inst, x, [pred], [pred.tau], verify=False)
    known = _carried_outcomes(inst, act.report.outcomes, pred.values)
    there = {r.key() for r in applicable_rotations(inst, x2, cache, known)[1]}
    if succ.key() not in there:
        raise InvariantError("successor not enabled by predecessor")


def gamma(
    inst: Instance,
    poset: RotationPoset,
    lam: Mapping[int, Fraction],
    verify: bool = True,
    cache: Optional[dict] = None,
) -> dict[str, Fraction]:
    """Stable assignment realizing the closed weight function λ.

    With `verify`, the image's stability is checked.  When `cache` (the
    state cache of `build_poset` on `inst`) holds the image, the check reads
    the choice outcomes analysed at that exact state, so no vertex chooses
    again.
    """
    if not is_closed(poset, lam):
        raise InstanceError("weight function is not closed")
    x = dict(poset.xmin)
    for i, rot in enumerate(poset.rotations):
        l = lam.get(i, 0)
        if l:
            _add_shift(x, rot.values, l)
    hit = cache.get(_state_key(inst, x)) if verify and cache else None
    if verify and not stability_report(inst, x, hit and hit[0].report.outcomes).stable:
        raise InvariantError("closed function image not stable")
    return x


def omega(
    inst: Instance, poset: RotationPoset, x: Mapping[str, Fraction], cache: Optional[dict] = None
) -> dict[int, Fraction]:
    """Closed weight function of a stable assignment (inverse of gamma).

    Computed by routing x the rest of the way to the worker optimum: the
    weight still consumed on each rotation there is τ minus the weight already
    spent reaching x.  `cache` is the route's state cache (see
    `applicable_rotations`).
    """
    rest = run_route(inst, x, cache=cache)
    if rest.states[-1] != poset.xmax:
        raise InvariantError("route from x did not reach the worker optimum")
    index = {rot.key(): i for i, rot in enumerate(poset.rotations)}
    lam = {i: rot.tau for i, rot in enumerate(poset.rotations)}
    for rot in rest.steps:
        i = index.get(rot.key())
        if i is None:
            raise InvariantError("route used a rotation outside the poset")
        lam[i] -= rot.tau
    if not is_closed(poset, lam):
        raise InvariantError("recovered weights are not closed")
    if gamma(inst, poset, lam, verify=False) != rest.states[0]:
        raise InvariantError("weights do not reproduce x")
    return lam


def _ideals(preds: dict[int, set[int]]) -> list[frozenset[int]]:
    """All downward-closed subsets; `preds[i]` = all strict predecessors of i.

    One pass over a linear extension, fewer predecessors first (a strict
    predecessor has fewer).  Nothing taken before e lies above it, so the
    ideals that gain e are those found so far that hold all of `preds[e]`.
    The list is sorted once, by size and then by sorted members.
    """
    ideals = [frozenset()]
    for e in sorted(preds, key=lambda e: len(preds[e])):
        ideals += [ideal | {e} for ideal in ideals if preds[e] <= ideal]
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


def enumerate_fully_closed(poset: RotationPoset) -> list[dict[int, Fraction]]:
    """One fully closed function (λ ∈ {0, τ} with downward-closed support) per
    ideal, for a poset of at most `POSET_CAP` rotations."""
    n = len(poset.rotations)
    if n > POSET_CAP:
        raise InstanceError(f"poset size {n} exceeds cap {POSET_CAP}")
    preds = {i: {a for (a, b) in poset.less if b == i} for i in range(n)}
    return [_closed_of_ideal(poset, ideal) for ideal in _ideals(preds)]


def grid_sublattice(inst: Instance, poset: RotationPoset, k: int) -> list[dict[str, Fraction]]:
    """Stable assignments whose weights sit on a k-point grid per rotation.

    τ > 0, so a rotation's k grid points differ, and so do the combinations:
    no assignment repeats.  k must be an `int` (`InstanceError` otherwise),
    so every grid weight is a `Fraction`; the grid has at most `GRID_CAP`
    points.  The grid is streamed in product order, the last rotation's
    level moving fastest, so one candidate weight dict is held at a time.
    """
    if type(k) is not int or k < 2:
        raise InstanceError("grid needs k >= 2")
    n = len(poset.rotations)
    if k**n > GRID_CAP:
        raise InstanceError(f"grid size {k}^{n} exceeds cap {GRID_CAP}")
    levels = [[rot.tau * j / (k - 1) for j in range(k)] for rot in poset.rotations]
    lams = (dict(enumerate(weights)) for weights in itertools.product(*levels))
    return [gamma(inst, poset, lam) for lam in lams if is_closed(poset, lam)]


def _choose_from_max(
    inst: Instance,
    x: Mapping[str, Fraction],
    y: Mapping[str, Fraction],
    choosers: Sequence[str],
    name: str,
) -> dict[str, Fraction]:
    for arg, z in (("x", x), ("y", y)):
        if not stability_report(inst, z).stable:
            raise InstanceError(f"stable_{name}_workers: assignment {arg} is not stable")
    top = {e: max(x.get(e, ZERO), y.get(e, ZERO)) for e in inst.edge_ids}
    # every edge has one endpoint among the choosers, so `out` is full
    out: dict[str, Fraction] = {}
    for v in choosers:
        out.update(choose(inst, v, top).result)
    if not stability_report(inst, out).stable:
        raise InvariantError(f"worker-side {name} not stable")
    return out


def stable_join_workers(
    inst: Instance, x: Mapping[str, Fraction], y: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Worker-side join: each worker chooses from the edgewise maximum.

    x and y must be stable (`InstanceError` otherwise).
    """
    return _choose_from_max(inst, x, y, inst.workers, "join")


def stable_meet_workers(
    inst: Instance, x: Mapping[str, Fraction], y: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Worker-side meet: each firm chooses from the edgewise maximum.

    x and y must be stable (`InstanceError` otherwise).
    """
    return _choose_from_max(inst, x, y, inst.firms, "meet")
