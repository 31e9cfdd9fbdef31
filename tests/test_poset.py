"""Rotation poset, closed weight functions and the lattice of stable points."""

import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import smp.choice
import smp.iteration
import smp.model
import smp.poset
import smp.rotations
from smp import (
    InstanceError,
    Rotation,
    RotationPoset,
    Route,
    StabilityReport,
    build_poset,
    compare_stable,
    enumerate_fully_closed,
    full_assignment,
    gamma,
    grid_sublattice,
    is_closed,
    omega,
    parse_assignment,
    run_route,
    serialize_assignment,
    serialize_instance,
    solve_quota_filling,
    solve_xmax,
    solve_xmin_modified,
    stability_report,
    stable_join_workers,
    stable_meet_workers,
    validate_assignment,
)
from smp.choice import choose
from smp.cli import main
from smp.iteration import initial_state
from smp.rotations import _run_route, _state_key

from gen import (
    chained_instance,
    disjoint_union,
    rand_marriage,
    random_instance,
    six_cycle_instance,
    triangle_instance,
    wide_unions,
)


def _marriage_posets(n_instances, n=4, cap=2, tie_prob=0.25, tag="poset"):
    out = []
    for seed in range(n_instances * 4):
        if len(out) == n_instances:
            break
        inst = rand_marriage(random.Random(f"{tag}{seed}"), n, cap=cap, tie_prob=tie_prob)
        poset = build_poset(inst)
        if poset.rotations:
            out.append((inst, poset))
    assert len(out) == n_instances, "generator failed to produce enough rotations"
    return out


def test_triangle_poset_is_a_single_rotation():
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    assert len(poset.rotations) == 1
    assert poset.less == frozenset()
    assert poset.hasse == []
    assert poset.rotations[0].tau == F(1)
    assert poset.xmin == {e: F(8) for e in inst.edge_ids}


def test_route_states_are_all_stable():
    inst = triangle_instance(F(8), F(15))
    route = run_route(inst, solve_xmin_modified(inst))
    assert len(route.steps) == 1
    keys = [rot.key() for rot in route.steps]
    assert len(set(keys)) == len(keys)
    for state in route.states:
        assert stability_report(inst, state).stable


def test_is_closed_enforces_box_and_precedence():
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    assert is_closed(poset, {0: F(0)})
    assert is_closed(poset, {0: F(1, 2)})
    assert is_closed(poset, {0: F(1)})
    assert not is_closed(poset, {0: F(2)})
    assert not is_closed(poset, {0: F(-1)})


@pytest.mark.parametrize("lam", [{99: F(1)}, {-1: F(5)}, {"x": 3}, {2: F(0)}])
def test_weights_on_unknown_rotations_are_not_closed(lam):
    """A weight function that names a rotation the poset lacks is not
    closed, and `gamma` refuses it instead of returning x_min."""
    inst = rand_marriage(random.Random(4), 4, cap=1)
    poset = build_poset(inst)
    assert len(poset.rotations) == 2
    assert is_closed(poset, {})
    assert not is_closed(poset, lam)
    with pytest.raises(InstanceError, match="weight function is not closed"):
        gamma(inst, poset, lam)


@pytest.mark.parametrize("weight", [0.5, 1.0, True], ids=["half-float", "tau-float", "bool"])
def test_inexact_weights_are_not_closed(weight):
    """A float or `bool` weight is not closed, so `gamma` refuses it instead
    of returning float values."""
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    assert [rot.tau for rot in poset.rotations] == [1]
    assert not is_closed(poset, {0: weight})
    with pytest.raises(InstanceError, match="weight function is not closed"):
        gamma(inst, poset, {0: weight})


def test_gamma_rejects_non_closed_weights():
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    with pytest.raises(InstanceError, match="not closed"):
        gamma(inst, poset, {0: F(5)})


def test_gamma_omega_inverse_on_fully_closed_functions():
    for inst, poset in _marriage_posets(6, tag="bij"):
        for lam in enumerate_fully_closed(poset):
            x = gamma(inst, poset, lam)
            assert stability_report(inst, x).stable
            assert omega(inst, poset, x) == lam


def test_omega_of_endpoints():
    for inst, poset in _marriage_posets(3, tag="ends"):
        n = len(poset.rotations)
        assert omega(inst, poset, poset.xmin) == {i: F(0) for i in range(n)}
        assert omega(inst, poset, poset.xmax) == {
            i: rot.tau for i, rot in enumerate(poset.rotations)
        }


def test_fully_closed_count_matches_ideal_structure():
    for inst, poset in _marriage_posets(4, tag="ideals"):
        lams = enumerate_fully_closed(poset)
        # distinct, each closed, and at least bottom and top are present
        keys = {tuple(sorted(lam.items())) for lam in lams}
        assert len(keys) == len(lams)
        n = len(poset.rotations)
        assert {i: F(0) for i in range(n)} in lams
        assert {i: rot.tau for i, rot in enumerate(poset.rotations)} in lams
        # supports are downward closed
        for lam in lams:
            support = {i for i, v in lam.items() if v}
            for (a, b) in poset.less:
                assert not (b in support and a not in support)
        if not poset.less:
            assert len(lams) == 2 ** n


# --- disjoint unions ---------------------------------------------------------
#
# The stable assignments of U = A ⊔ B are the pairs of those of A and B, so
# U's side optima, stability reports, rotations and lattice follow from the
# parts' without enumerating U's box.  The parts' denominators differ, so
# U's rounds run over the lcm of theirs.


def _union_cases():
    """Tied marriages beside rational random instances, pairs of rational
    random instances, and a triangle over D = 35 beside a chain over D = 3."""
    rng = random.Random("union parts")
    cases = [
        (rand_marriage(rng, 4, cap=2, tie_prob=0.3), random_instance(rng, max_edges=8))
        for _ in range(8)
    ]
    cases += [(random_instance(rng, max_edges=8), random_instance(rng, max_edges=8)) for _ in range(3)]
    cases.append((triangle_instance(F(8, 5), F(15, 7)), chained_instance(3, F(128, 9), F(240, 9))))
    return cases


def _part(values, i):
    """The entries of part i of a union, under the part's own ids."""
    prefix = f"{i}."
    return {k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}


def _check_report(capsys, tmp_path, inst, x):
    """The `smp check` document of x on inst."""
    (tmp_path / "inst.json").write_text(json.dumps(serialize_instance(inst)))
    (tmp_path / "x.json").write_text(json.dumps(serialize_assignment(x)))
    assert main(["check", str(tmp_path / "inst.json"), str(tmp_path / "x.json")]) == 0
    return json.loads(capsys.readouterr().out)


def _part_ids(ids, i):
    prefix = f"{i}."
    return [k[len(prefix):] for k in ids if k.startswith(prefix)]


def test_union_side_optima_and_check_restrict_to_the_parts(capsys, tmp_path):
    """x_min and x_max of U restrict to the parts' own, and `smp check` of U
    at x_min, x_max and their midpoint restricts to the parts' reports."""
    mixed = 0  # unions over a D that neither part has
    for parts in _union_cases():
        union = disjoint_union(*parts)
        dens = [initial_state(part).den for part in parts]
        assert initial_state(union).den == lcm(*dens) > 1
        mixed += lcm(*dens) > max(dens)
        ends = {"min": solve_xmin_modified(union), "max": solve_xmax(union)}
        for i, part in enumerate(parts):
            assert _part(ends["min"], i) == solve_xmin_modified(part)
            assert _part(ends["max"], i) == solve_xmax(part)
        mid = {e: (ends["min"][e] + ends["max"][e]) / 2 for e in union.edge_ids}
        for x in (ends["min"], ends["max"], mid):
            doc = _check_report(capsys, tmp_path, union, x)
            stable = True
            for i, part in enumerate(parts):
                own = _check_report(capsys, tmp_path, part, _part(x, i))
                stable &= own.pop("stable")
                assert {key: _part_ids(ids, i) for key, ids in doc.items() if key != "stable"} == own
            assert doc["stable"] == stable
    assert mixed


def test_union_rotations_are_the_parts_rotations():
    """U's rotations, vectors and weights, are the parts' under U's ids."""
    total = 0
    for parts in _union_cases():
        want = Counter(
            (frozenset((f"{i}.{e}", v) for e, v in rot.values.items()), rot.tau)
            for i, part in enumerate(parts)
            for rot in build_poset(part).rotations
        )
        got = Counter(
            (frozenset(rot.values.items()), rot.tau)
            for rot in build_poset(disjoint_union(*parts)).rotations
        )
        assert got == want
        total += len(want)
    assert total >= 10


def test_union_lattice_is_the_product_of_the_parts():
    counts = []
    for parts in _union_cases():
        union = disjoint_union(*parts)
        want = prod(len(enumerate_fully_closed(build_poset(part))) for part in parts)
        assert len(enumerate_fully_closed(build_poset(union))) == want
        counts.append(want)
    assert max(counts) >= 4


def test_enumeration_cap_enforced():
    # 21 unordered rotations: the size alone is checked, before any ideal
    rotations = [Rotation({f"e{i}": 1}, F(1)) for i in range(21)]
    poset = RotationPoset(rotations=rotations, less=frozenset(), hasse=[], xmin={}, xmax={}, cache={})
    with pytest.raises(InstanceError, match="^poset size 21 exceeds cap 20$"):
        enumerate_fully_closed(poset)


def test_grid_sublattice_contains_fully_closed_images():
    for inst, poset in _marriage_posets(3, tag="grid"):
        pts = grid_sublattice(inst, poset, 3)
        keys = {tuple(sorted(x.items())) for x in pts}
        for lam in enumerate_fully_closed(poset):
            assert tuple(sorted(gamma(inst, poset, lam).items())) in keys
        for x in pts:
            assert stability_report(inst, x).stable
    for k in (1, 3.0, 2.5, True):
        with pytest.raises(InstanceError, match="k >= 2"):
            grid_sublattice(inst, poset, k)


def _relabelled_order(rng, n):
    """A random strict order on 0..n-1, transitively closed, drawn on
    positions and relabelled by a random permutation, so that its pairs do
    not all run from low ids to high ids as `build_poset`'s do."""
    label = list(range(n))
    rng.shuffle(label)
    density = rng.random()
    below: list[set[int]] = []
    for j in range(n):
        below.append(set())
        for i in range(j):
            if rng.random() < density:
                below[j] |= {i} | below[i]
    return frozenset((label[i], label[j]) for j in range(n) for i in below[j])


def test_enumerate_fully_closed_matches_the_subset_filter():
    # every subset of the rotations, by size and then by members, kept when
    # it holds each predecessor of each member; the rotations' τ differ
    rng = random.Random("ideals")
    downward = 0
    for _ in range(1000):
        n = rng.randint(0, 10)
        less = _relabelled_order(rng, n)
        downward += any(a > b for a, b in less)
        rotations = [Rotation({f"e{i}": 1}, F(i + 1, 2)) for i in range(n)]
        poset = RotationPoset(rotations=rotations, less=less, hasse=[], xmin={}, xmax={}, cache={})
        ideals = [
            set(members)
            for size in range(n + 1)
            for members in itertools.combinations(range(n), size)
            if all(a in members for a, b in less if b in members)
        ]
        want = [{i: rot.tau if i in ideal else F(0) for i, rot in enumerate(rotations)} for ideal in ideals]
        assert enumerate_fully_closed(poset) == want, sorted(less)
    assert downward >= 500


def _eager_grid(inst, poset, k):
    """The grid as it was built before it was streamed: every weight dict
    first, the last rotation's level moving fastest, then the closed ones'
    images."""
    combos = [{}]
    for i, rot in enumerate(poset.rotations):
        combos = [{**c, i: rot.tau * j / (k - 1)} for c in combos for j in range(k)]
    return [gamma(inst, poset, lam) for lam in combos if is_closed(poset, lam)]


def test_grid_sublattice_equals_the_eager_grid_in_order():
    # two rotations in a chain: 5 of the 9 grid points are closed, from x_min
    # through (τ0 / 2, 0), (τ0, 0) and (τ0, τ1 / 2) to x_max
    inst = six_cycle_instance()
    poset = build_poset(inst)
    assert len(poset.rotations) == 2 and poset.less == {(0, 1)}
    grid = grid_sublattice(inst, poset, 3)
    assert grid == _eager_grid(inst, poset, 3)
    assert len(grid) == 5 and grid[0] == poset.xmin and grid[-1] == poset.xmax


def test_grid_sublattice_holds_one_candidate_at_a_time(monkeypatch):
    # a chain of 12 rotations: 2^12 candidate weight dicts, of which the 13
    # prefixes are closed.  Held at once, the candidates peak at about 4 MB;
    # streamed, at about 13 kB
    n = 12
    rotations = [Rotation({f"e{i}": 1}, F(1)) for i in range(n)]
    less = frozenset((a, b) for b in range(n) for a in range(b))
    poset = RotationPoset(rotations=rotations, less=less, hasse=[], xmin={}, xmax={}, cache={})
    monkeypatch.setattr(smp.poset, "gamma", lambda inst, poset, lam: lam)
    tracemalloc.start()
    try:
        grid = grid_sublattice(None, poset, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid == [{i: F(int(i < m)) for i in range(n)} for m in range(n + 1)]
    assert peak < 200_000, peak


def test_join_and_meet_realize_weightwise_max_and_min():
    for inst, poset in _marriage_posets(5, tag="lat"):
        lams = enumerate_fully_closed(poset)
        rng = random.Random("latpairs")
        n = len(poset.rotations)
        for _ in range(10):
            lam1, lam2 = rng.choice(lams), rng.choice(lams)
            x = gamma(inst, poset, lam1)
            y = gamma(inst, poset, lam2)
            join = stable_join_workers(inst, x, y)
            meet = stable_meet_workers(inst, x, y)
            up = {i: max(lam1.get(i, F(0)), lam2.get(i, F(0))) for i in range(n)}
            dn = {i: min(lam1.get(i, F(0)), lam2.get(i, F(0))) for i in range(n)}
            assert join == gamma(inst, poset, up)
            assert meet == gamma(inst, poset, dn)


@pytest.mark.parametrize(
    "func", [stable_join_workers, stable_meet_workers], ids=["join", "meet"]
)
def test_join_and_meet_reject_unstable_inputs(func):
    # at the zero assignment every edge of the six-cycle blocks: the caller's
    # input is at fault, not the solver
    inst = six_cycle_instance()
    x = solve_xmin_modified(inst)
    for args, name in (((x, {}), "y"), (({}, x), "x")):
        with pytest.raises(InstanceError, match=f"{func.__name__}: assignment {name} is not stable"):
            func(inst, *args)


def test_poset_invariance_under_solver_start():
    # building from a supplied x_min equals building from scratch
    for inst, poset in _marriage_posets(2, tag="start"):
        again = build_poset(inst, solve_xmin_modified(inst))
        assert [r.key() for r in again.rotations] == [r.key() for r in poset.rotations]
        assert again.less == poset.less
        assert again.hasse == poset.hasse


def _reference_poset(inst, xmin):
    """Keys, tau, order and Hasse diagram by the plain avoidance loop.

    Every avoidance run starts from x_min and nothing is cached: the direct
    reading of the definition, kept to cross-check `build_poset`.
    """
    base = run_route(inst, xmin)
    keys = [rot.key() for rot in base.steps]
    tau = {i: rot.tau for i, rot in enumerate(base.steps)}
    upsets = {}
    for i, key in enumerate(keys):
        route = _run_route(inst, xmin, known={}, cache=None, avoid=key, rng=None)
        applied = {rot.key() for rot in route.steps}
        upsets[i] = {j for j, k in enumerate(keys) if k not in applied}
    less = frozenset((i, j) for i, up in upsets.items() for j in up if j != i)
    hasse = sorted(
        (a, b)
        for (a, b) in less
        if not any((a, c) in less and (c, b) in less for c in range(len(keys)))
    )
    return keys, tau, less, hasse


def _multi_rotation_marriages(n, count):
    out = []
    for seed in range(200):
        inst = rand_marriage(random.Random(f"multi{n}.{seed}"), n, cap=1, tie_prob=0)
        if len(build_poset(inst).rotations) >= 2:
            out.append(inst)
            if len(out) == count:
                return out
    raise AssertionError("generator failed to produce enough multi-rotation instances")


def _differential_instances():
    insts = [inst for inst, _ in _marriage_posets(6, tag="diff")]
    for n in (5, 6, 7):
        insts += _multi_rotation_marriages(n, 4)
    for k in range(2, 6):
        scale = 4 ** (k - 1)
        insts.append(chained_instance(k, F(8 * scale), F(15 * scale)))
    insts.append(six_cycle_instance())
    return insts


def test_build_poset_matches_uncached_avoidance_runs():
    saw_order = False
    for inst in _differential_instances():
        xmin = solve_xmin_modified(inst)
        poset = build_poset(inst, xmin)
        keys, tau, less, hasse = _reference_poset(inst, xmin)
        assert [r.key() for r in poset.rotations] == keys
        assert {i: rot.tau for i, rot in enumerate(poset.rotations)} == tau
        assert poset.less == less
        assert poset.hasse == hasse
        saw_order = saw_order or bool(less)
    assert saw_order, "no instance with a nontrivial precedence order"


def test_build_poset_builds_each_state_once(monkeypatch):
    import smp.rotations

    real = smp.rotations.build_active_structure
    built = []

    def counting(inst, report):
        # a stable state is stationary: each edge's value is its firm's choice
        outcomes = report.outcomes
        built.append(tuple(outcomes[inst.edge_by_id[e].firm].result[e] for e in inst.edge_ids))
        return real(inst, report)

    monkeypatch.setattr(smp.rotations, "build_active_structure", counting)
    insts = [triangle_instance(F(8), F(15))] + _multi_rotation_marriages(7, 1)
    for inst in insts:
        xmin = solve_xmin_modified(inst)
        built.clear()
        poset = build_poset(inst, xmin)
        first = list(built)
        assert len(first) == len(set(first)), "a state's active structure was rebuilt"
        route = run_route(inst, xmin)
        assert {tuple(x.values()) for x in route.states} <= set(first)
        # no cache outlives a call: the same call repeats the same builds
        built.clear()
        again = build_poset(inst, xmin)
        assert built == first
        assert [r.key() for r in again.rotations] == [r.key() for r in poset.rotations]


def test_build_poset_keeps_its_state_cache():
    """The poset's cache holds the analysis of every state of its base
    route, x_min and x_max included."""
    insts = [triangle_instance(F(8), F(15))] + [inst for inst, _ in _marriage_posets(3, tag="kept")]
    for inst in insts:
        poset = build_poset(inst)
        for x in run_route(inst, poset.xmin).states:
            assert _state_key(inst, x) in poset.cache


def test_gamma_and_omega_do_not_depend_on_the_state_cache():
    """On every fully closed λ, `gamma` and `omega` give the same image and
    the same λ on a poset and on the same poset with an empty cache."""
    pairs = _marriage_posets(6, tag="fresh") + [
        (union, build_poset(union)) for union in wide_unions("fresh", 3)
    ]
    for inst, poset in pairs:
        fresh = poset._replace(cache={})
        for lam in enumerate_fully_closed(poset):
            x = gamma(inst, poset, lam)
            assert gamma(inst, fresh, lam) == x
            assert omega(inst, poset, x) == omega(inst, fresh, x) == lam


# -- an assignment is normalised where it enters ------------------------------


def _partial(x):
    """x with its zeros dropped and its integral values as ints."""
    return {e: int(v) if v.denominator == 1 else v for e, v in x.items() if v}


# Each entry function on (inst, poset, xmin, x, y), with x and y stable.
ENTRY_FUNCTIONS = {
    "parse_assignment": lambda inst, poset, xmin, x, y: parse_assignment(serialize_assignment(x), inst),
    "validate_assignment": lambda inst, poset, xmin, x, y: validate_assignment(inst, x),
    "stability_report": lambda inst, poset, xmin, x, y: stability_report(inst, x),
    "compare_stable": lambda inst, poset, xmin, x, y: compare_stable(inst, x, y),
    "run_route": lambda inst, poset, xmin, x, y: run_route(inst, x),
    "build_poset": lambda inst, poset, xmin, x, y: build_poset(inst, xmin),
    "omega": lambda inst, poset, xmin, x, y: omega(inst, poset, y),
    "stable_join_workers": lambda inst, poset, xmin, x, y: stable_join_workers(inst, x, y),
    "stable_meet_workers": lambda inst, poset, xmin, x, y: stable_meet_workers(inst, x, y),
}


def _assignments(result):
    if isinstance(result, dict):
        return [result]
    if isinstance(result, Route):
        return result.states
    if isinstance(result, RotationPoset):
        return [result.xmin, result.xmax]
    return []


@pytest.mark.parametrize("name", sorted(ENTRY_FUNCTIONS))
def test_entry_functions_read_missing_keys_as_zero(name):
    """Every public function an assignment enters by gives the same result
    on a partial dict (zeros dropped, integral values as ints) as on the
    full one, and hands back `Fraction`s only."""
    call = ENTRY_FUNCTIONS[name]
    insts = [
        rand_marriage(random.Random(4), 4, cap=1),
        rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3),
    ]
    for inst in insts:
        poset = build_poset(inst)
        lams = enumerate_fully_closed(poset)
        points = [poset.xmin, gamma(inst, poset, lams[1]), gamma(inst, poset, lams[-2])]
        partials = [_partial(z) for z in points]
        for z, pz in zip(points, partials):
            assert len(pz) < len(z) and any(type(v) is int for v in pz.values())
        full = call(inst, poset, *points)
        partial = call(inst, poset, *partials)
        assert partial == full
        for z in _assignments(partial):
            assert all(type(v) is F for v in z.values())


BAD_ASSIGNMENTS = [
    ("bogus", 5, "unknown edge ids in assignment: ['bogus']"),
    ("f1w1", 8.0, "edge 'f1w1': assignment value must be an int or a Fraction"),
    ("f1w1", True, "edge 'f1w1': assignment value must be an int or a Fraction"),
    ("f1w1", "8", "edge 'f1w1': assignment value must be an int or a Fraction"),
    ("f1w1", None, "edge 'f1w1': assignment value must be an int or a Fraction"),
]


@pytest.mark.parametrize("name", sorted(set(ENTRY_FUNCTIONS) - {"parse_assignment"}))
@pytest.mark.parametrize(
    "eid, value, message", BAD_ASSIGNMENTS, ids=["unknown", "float", "bool", "str", "None"]
)
def test_entry_functions_reject_unknown_ids_and_inexact_values(name, eid, value, message):
    """An assignment enters through `full_assignment`, which rejects an
    unknown edge id and a value that is not an `int` or a `Fraction`: on the
    triangle's x_min (8 on every edge) with one such entry, every entry
    function raises that error."""
    inst = triangle_instance(F(8), F(15))
    poset = build_poset(inst)
    bad = dict(poset.xmin, **{eid: value})
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        ENTRY_FUNCTIONS[name](inst, poset, bad, bad, bad)


def test_build_poset_normalises_at_route_starts_and_reports_only():
    """`build_poset` copies its given x_min over every edge once; its
    routes, their analyses and the per-state functions of the rotation layer
    take the full states as they are."""
    insts = _carry_count_instances()
    starts = [(inst, solve_xmin_modified(inst)) for inst in insts]
    counts = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        real = smp.model.full_assignment
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "smp" and getattr(mod, "full_assignment", None) is real:
                mp.setattr(mod, "full_assignment", counted("full_assignment", real))
        mp.setattr(smp.poset, "_run_route", counted("route", smp.poset._run_route))
        mp.setattr(
            smp.rotations,
            "build_active_structure",
            counted("state", smp.rotations.build_active_structure),
        )
        for inst, xmin in starts:
            counts.clear()
            build_poset(inst, xmin)
            assert counts["full_assignment"] == 1 and counts["route"] and counts["state"], counts



def _contract_instances():
    return [
        rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3),
        chained_instance(3, F(8), F(15)),
        six_cycle_instance(),
    ]


def test_private_analysis_receives_only_full_assignments(capsys, tmp_path):
    """The private analysis does not normalise: every command hands it
    states that hold exactly the instance's edge ids, in edge-id order, each
    value a `Fraction` (the solver builds its points in that order)."""
    real = smp.stability._stability_report
    received = []

    def recording(inst, x, *, known):
        received.append((inst.edge_ids, tuple(x), {type(v) for v in x.values()}))
        return real(inst, x, known=known)

    commands = [
        ["solve"], ["solve", "--side", "workers"], ["solve", "--method", "quota-filling"],
        ["poset"], ["mincost", "--costs", str(tmp_path / "costs.json")], ["enumerate"], ["verify"],
    ]
    with pytest.MonkeyPatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "smp" and getattr(mod, "_stability_report", None) is real:
                mp.setattr(mod, "_stability_report", recording)
        for inst in _contract_instances():
            (tmp_path / "inst.json").write_text(json.dumps(serialize_instance(inst)))
            costs = {e: i % 3 - 1 for i, e in enumerate(inst.edge_ids)}
            (tmp_path / "costs.json").write_text(json.dumps(costs))
            for args in commands:
                received.clear()
                assert main([args[0], str(tmp_path / "inst.json"), *args[1:]]) == 0, args
                assert received, args
                for edge_ids, keys, types in received:
                    assert keys == edge_ids and types == {F}, args
    capsys.readouterr()


def test_returned_assignments_iterate_in_edge_id_order():
    """Every assignment the solvers and the lattice return iterates in
    `inst.edge_ids` order, with one `Fraction` per edge."""
    for inst in _contract_instances():
        poset = build_poset(inst)
        points = [solve_xmin_modified(inst), solve_xmax(inst), poset.xmin, poset.xmax]
        points += [solve_quota_filling(side) for side in (inst, inst.swapped())]
        points += [gamma(inst, poset, lam) for lam in enumerate_fully_closed(poset)]
        for x in points:
            if x is not None:
                assert tuple(x) == inst.edge_ids
                assert {type(v) for v in x.values()} == {F}


# -- choice outcomes carried along solve -> route -> poset ---------------------


def _carry_instance(kind, seed, k):
    if kind == "chain":
        scale = 4 ** (k - 1)
        return chained_instance(k, F(8 * scale), F(15 * scale))
    if kind == "tied":
        return rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.5)
    return rand_marriage(random.Random(seed), 6, cap=1)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["tied", "strict", "chain"]),
    seed=st.integers(0, 10**6),
    k=st.integers(2, 5),
)
def test_carried_outcomes_equal_fresh_choices(kind, seed, k):
    """Every state the solver, the poset's routes and Hasse witnesses and
    solve_xmax analyse is analysed from outcomes equal to fresh choices."""
    inst = _carry_instance(kind, seed, k)
    carried = []  # per analysis: how many outcomes were known beforehand

    def checked(real):
        def report(inst, x, *, known):
            out = real(inst, x, known=known)
            assert out.outcomes == {v: choose(inst, v, x) for v in inst.vertices()}
            carried.append(len(known))
            return out

        return report

    with pytest.MonkeyPatch.context() as mp:
        for mod in (smp.iteration, smp.rotations):
            mp.setattr(mod, "_stability_report", checked(mod._stability_report))
        build_poset(inst)
        solve_xmax(inst)
    assert any(carried)


def _record_choose(mp, calls):
    """Append (vertex, offer in edge-id order) for every `choose` call."""
    real = smp.choice.choose

    def counting(inst, v, z):
        calls.append((v, tuple(z.get(e, 0) for e in inst.edge_ids)))
        return real(inst, v, z)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "smp" and getattr(mod, "choose", None) is real:
            mp.setattr(mod, "choose", counting)


def _carry_count_instances():
    return (
        [triangle_instance(F(8), F(15)), chained_instance(3, F(8 * 16), F(15 * 16))]
        + _multi_rotation_marriages(6, 2)
        + [rand_marriage(random.Random(0), 4, cap=2, tie_prob=0.5)]
    )


def test_build_poset_does_not_choose_again_at_xmin():
    """The base route starts from the solver's choices at x_min, and outside
    its rounds the solver chooses at x_min at most once per vertex."""
    for inst in _carry_count_instances():
        calls, rounds, poset_start = [], [], []
        with pytest.MonkeyPatch.context() as mp:
            _record_choose(mp, calls)
            for name in ("ordinary_iteration_step", "_big_iteration"):

                def in_round(inst, state, step=getattr(smp.iteration, name)):
                    start = len(calls)
                    after = step(inst, state)
                    rounds.extend(range(start, len(calls)))
                    return after

                mp.setattr(smp.iteration, name, in_round)

            def poset_route(*args, route=smp.poset._run_route, **kwargs):
                if not poset_start:
                    poset_start.append(len(calls))
                return route(*args, **kwargs)

            mp.setattr(smp.poset, "_run_route", poset_route)
            poset = build_poset(inst)
        key = tuple(poset.xmin[e] for e in inst.edge_ids)
        at_xmin = [i for i, (v, z) in enumerate(calls) if z == key and i not in set(rounds)]
        assert [calls[i][0] for i in at_xmin if i >= poset_start[0]] == []
        solver = [calls[i][0] for i in at_xmin if i < poset_start[0]]
        assert len(solver) == len(set(solver))


def test_build_poset_does_not_report_again_at_xmin():
    """The base route starts from the solver's report at x_min, so past the
    solver no `stability_report` runs there, and the solver reports at x_min
    once, in its normalising route or at its aggregated point."""
    for inst in _carry_count_instances():
        reports, poset_start = [], []
        with pytest.MonkeyPatch.context() as mp:
            for mod in (smp.iteration, smp.rotations, smp.poset):

                def recording(r_inst, x, *, known, real=mod._stability_report):
                    reports.append(tuple(x[e] for e in inst.edge_ids))
                    return real(r_inst, x, known=known)

                mp.setattr(mod, "_stability_report", recording)

            def poset_route(*args, route=smp.poset._run_route, **kwargs):
                if not poset_start:
                    poset_start.append(len(reports))
                return route(*args, **kwargs)

            mp.setattr(smp.poset, "_run_route", poset_route)
            poset = build_poset(inst)
        key = tuple(poset.xmin[e] for e in inst.edge_ids)
        at_xmin = [i for i, z in enumerate(reports) if z == key]
        assert [i for i in at_xmin if i >= poset_start[0]] == []
        assert len(at_xmin) == 1


def test_routes_from_xmin_start_from_the_solver_report():
    """`build_poset`'s base route and `solve_xmax` start from the report the
    normalising route ends with, made in `inst.swapped()`; it equals a fresh
    `stability_report(inst, x_min)` in every field."""
    insts = _carry_count_instances() + [
        _carry_instance(kind, seed, seed + 2) for kind in ("tied", "strict", "chain") for seed in range(4)
    ]
    for inst in insts:
        starts = []  # (start, known) of each route on `inst` that avoids nothing

        def recording(real):
            def route(r_inst, start, **kwargs):
                if r_inst is inst and kwargs["avoid"] is None:
                    starts.append((start, kwargs["known"]))
                return real(r_inst, start, **kwargs)

            return route

        with pytest.MonkeyPatch.context() as mp:
            for mod in (smp.poset, smp.iteration):
                mp.setattr(mod, "_run_route", recording(mod._run_route))
            build_poset(inst)
            solve_xmax(inst)
        assert len(starts) == 2
        xmin = starts[0][0]
        fresh = stability_report(inst, xmin)
        assert fresh.stable
        for start, known in starts:
            assert start == xmin
            assert type(known) is StabilityReport
            for field in StabilityReport._fields:
                assert getattr(known, field) == getattr(fresh, field), field


def test_route_step_chooses_only_on_the_rotation_support():
    """A route chooses at its start where nothing is known, and after each
    shift exactly once at each endpoint of the applied rotation's support."""
    partial = False
    insts = _carry_count_instances()
    for with_known in (False, True):
        for inst in insts:
            xmin = solve_xmin_modified(inst)
            known = stability_report(inst, xmin).outcomes if with_known else {}
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                _record_choose(mp, calls)
                route = _run_route(inst, xmin, known=known, cache=None, avoid=None, rng=None)
            chosen = defaultdict(list)
            for v, z in calls:
                chosen[z].append(v)
            keys = [tuple(x.values()) for x in route.states]
            assert set(chosen) <= set(keys)
            assert sorted(chosen[keys[0]]) == ([] if known else sorted(inst.vertices()))
            for key, rot in zip(keys[1:], route.steps):
                edges = [inst.edge_by_id[e] for e in rot.values]
                ends = {e.firm for e in edges} | {e.worker for e in edges}
                assert sorted(chosen[key]) == sorted(ends)
                partial |= ends != set(inst.vertices())
    assert partial, "no rotation left a vertex untouched"
