"""Command-line interface round-trips and exit codes."""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import smp.iteration
import smp.rotations
from smp import Edge, Instance, serialize_assignment, serialize_instance
from smp.cli import build_parser, main
from smp.mincost import build_costed_poset
from smp.simplex import LPResult

from gen import (
    SIX_CYCLE_STABLE_ODD,
    chained_instance,
    rand_marriage,
    six_cycle_instance,
    triangle_instance,
)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(serialize_instance(triangle_instance(F(8), F(15)))))
    return str(path)


@pytest.fixture()
def six_cycle_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(serialize_instance(six_cycle_instance())))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_stable_and_unstable(capsys, tmp_path, six_cycle_file):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(serialize_assignment(SIX_CYCLE_STABLE_ODD)))
    code, out = run_cli(capsys, "check", six_cycle_file, str(good))
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] is True and doc["blocking_edges"] == []

    bad = tmp_path / "bad.json"
    from gen import SIX_CYCLE_STABLE_EVEN

    half = {
        e: str((SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2)
        for e in SIX_CYCLE_STABLE_ODD
    }
    bad.write_text(json.dumps({"values": half}))
    code, out = run_cli(capsys, "check", six_cycle_file, str(bad))
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] is False and doc["blocking_edges"]


def test_solve_both_sides_and_methods(capsys, triangle_file):
    code, out = run_cli(capsys, "solve", triangle_file)
    assert code == 0
    values = json.loads(out)["values"]
    assert all(v == 8 for v in values.values())

    code, out = run_cli(capsys, "solve", triangle_file, "--side", "workers")
    assert code == 0
    worker_side = json.loads(out)["values"]
    assert worker_side != values  # the rotation separates the two optima

    code, out = run_cli(
        capsys,
        "solve",
        triangle_file,
        "--method",
        "quota-filling",
        "--side",
        "workers",
    )
    assert code == 0
    assert json.loads(out)["values"] == worker_side

    # the default side is the firms', whatever the method
    code, out = run_cli(
        capsys, "solve", triangle_file, "--method", "quota-filling"
    )
    assert code == 0
    assert json.loads(out)["values"] == values


def test_solve_trace(capsys, triangle_file):
    code, out = run_cli(capsys, "solve", triangle_file, "--trace")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]
    assert all(step["kind"] in ("ordinary", "aggregated") for step in doc["trace"])


def test_rotations_json_and_dot(capsys, triangle_file):
    code, out = run_cli(capsys, "rotations", triangle_file)
    assert code == 0
    rots = json.loads(out)
    assert len(rots) == 1
    assert rots[0]["tau"] == 1
    assert rots[0]["values"]["f2w1"] == -8

    code, out = run_cli(capsys, "rotations", triangle_file, "--dot")
    assert code == 0
    assert out.startswith("digraph active {")


def test_rotations_at_assignment(capsys, tmp_path, six_cycle_file):
    at = tmp_path / "at.json"
    at.write_text(json.dumps(serialize_assignment(SIX_CYCLE_STABLE_ODD)))
    code, out = run_cli(capsys, "rotations", six_cycle_file, "--at", str(at))
    assert code == 0
    json.loads(out)


def test_poset_json_and_dot(capsys, triangle_file):
    code, out = run_cli(capsys, "poset", triangle_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rotations"]) == 1
    assert doc["hasse_edges"] == []

    code, out = run_cli(capsys, "poset", triangle_file, "--dot")
    assert code == 0
    assert out.startswith("digraph poset {")
    assert "tau=1" in out


def test_mincost_with_cost_file(capsys, tmp_path, triangle_file):
    costs = {e: 0 for e in triangle_instance(F(8), F(15)).edge_ids}
    costs["f3w1"] = -1
    cost_file = tmp_path / "costs.json"
    cost_file.write_text(json.dumps(costs))
    code, out = run_cli(capsys, "mincost", triangle_file, "--costs", str(cost_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["ideal"] == [0]
    assert doc["cost"] == -15  # 8 + tau * 7 = 15 units on the negative edge


def test_mincost_without_costs_is_a_domain_error(capsys, triangle_file):
    code, out = run_cli(capsys, "mincost", triangle_file)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("doc", [[1, 2, 3], "costs", 7, None])
def test_mincost_costs_not_an_object_is_a_domain_error(capsys, tmp_path, triangle_file, doc):
    cost_file = tmp_path / "costs.json"
    cost_file.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "mincost", triangle_file, "--costs", str(cost_file))
    assert code == 1
    assert json.loads(out) == {"error": "costs document must be a JSON object"}


def test_enumerate_and_grid(capsys, triangle_file):
    code, out = run_cli(capsys, "enumerate", triangle_file)
    assert code == 0
    assert len(json.loads(out)) == 2  # the two fully closed functions
    code, out = run_cli(capsys, "enumerate", triangle_file, "--grid", "3")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_verify_reports_all_pass(capsys, six_cycle_file):
    code, out = run_cli(capsys, "verify", six_cycle_file)
    assert code == 0
    assert set(json.loads(out).values()) == {"pass"}


def test_missing_file_is_a_domain_error(capsys):
    code, out = run_cli(capsys, "check", "/nonexistent.json", "/also-missing.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_round_cap_is_a_solver_limit_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m4.json"
    inst = rand_marriage(random.Random(1), 4, cap=2, tie_prob=0.3)
    path.write_text(json.dumps(serialize_instance(inst)))
    monkeypatch.setenv("SMP_MAX_STEPS", "1")
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 3
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert "no stable point within 1 rounds" in doc["error"]


@pytest.fixture()
def aggregating_file(tmp_path):
    """An instance whose `solve` runs aggregation LPs."""
    path = tmp_path / "tied.json"
    inst = rand_marriage(random.Random(0), 4, cap=2, tie_prob=0.5)
    path.write_text(json.dumps(serialize_instance(inst)))
    return str(path)


def test_failed_invariant_is_exit_4(capsys, monkeypatch, aggregating_file):
    monkeypatch.setattr(smp.iteration, "simplex_maximize", lambda lp: LPResult("unbounded"))
    code, out = run_cli(capsys, "solve", aggregating_file)
    assert code == 4
    assert json.loads(out) == {"error": "aggregation LP unbounded"}


def test_negative_aggregation_rhs_is_exit_4(capsys, monkeypatch, aggregating_file):
    # a load above the quota makes the firm-quota rows' right-hand sides
    # negative, so φ = 0 would not be feasible
    monkeypatch.setattr(smp.iteration, "vertex_load", lambda inst, x, v: inst.quota[v] + 1)
    code, out = run_cli(capsys, "solve", aggregating_file)
    assert code == 4
    assert json.loads(out) == {"error": "aggregation LP has a negative right-hand side"}


def _run_python(flags, script, *args):
    """Run `script` in a new interpreter with this checkout's `smp` importable."""
    src = str(Path(smp.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def _run_optimized(script, *args):
    """Run `script` under `python -O`."""
    return _run_python(["-O"], script, *args)


def test_failed_invariant_is_checked_under_optimize_flag(aggregating_file):
    script = (
        "import sys\n"
        "import smp.iteration\n"
        "from smp.cli import main\n"
        "from smp.simplex import LPResult\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "smp.iteration.simplex_maximize = lambda lp: LPResult('unbounded')\n"
        "sys.exit(main(['solve', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, aggregating_file)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": "aggregation LP unbounded"}


def test_failed_stability_invariant_is_checked_under_optimize_flag(tmp_path, six_cycle_file):
    # at the zero assignment every vertex is in deficit and every edge blocks;
    # a choice that drops an edge from its tail makes the two blocking
    # characterizations of stability_report disagree
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"values": {}}))
    script = (
        "import dataclasses, sys\n"
        "import smp.choice\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "choose = smp.choice.choose\n"
        "def drop_one(inst, v, z):\n"
        "    out = choose(inst, v, z)\n"
        "    if not out.tail:\n"
        "        return out\n"
        "    return dataclasses.replace(out, tail=out.tail - {min(out.tail)})\n"
        "smp.choice.choose = drop_one\n"
        "sys.exit(main(['check', sys.argv[1], sys.argv[2]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file, str(zero))
    assert proc.returncode == 4, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"]
    assert "blocking characterizations disagree" in doc["error"]


def test_failed_rotation_invariant_is_exit_4(capsys, monkeypatch, six_cycle_file):
    # a balance system with a unique solution has no rotation to extract
    monkeypatch.setattr(smp.rotations, "integer_nullspace", lambda rows, n: [])
    code, out = run_cli(capsys, "poset", six_cycle_file)
    assert code == 4
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert "nullspace has dimension 0" in doc["error"]


ROTATION_PLANTS = [
    # a balance solve that returns twice the generator: values not coprime
    ("solve = smp.rotations.integer_nullspace\n"
     "def doubled(rows, n):\n"
     "    return [[2 * v for v in vec] for vec in solve(rows, n)]\n"
     "smp.rotations.integer_nullspace = doubled",
     "rotation values not coprime"),
    # a zero stored on the first edge off the support of the first rotation
    # extracted, {a, e1, e5, e6}
    ("check = smp.rotations._check_rotation_invariants\n"
     "def with_zero(inst, rot):\n"
     "    rot.values[next(e for e in inst.edge_ids if e not in rot.values)] = Fraction(0)\n"
     "    check(inst, rot)\n"
     "smp.rotations._check_rotation_invariants = with_zero",
     "rotation value on edge 'e2' not a nonzero integer"),
]


def test_failed_rotation_check_is_exit_4_under_optimize_flag(six_cycle_file):
    # each planted rotation must fail its check with assertions stripped
    for plant, message in ROTATION_PLANTS:
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "import smp.rotations\n"
            "from smp.cli import main\n"
            "if __debug__:\n"
            "    sys.exit('assertions are enabled')\n"
            f"{plant}\n"
            "sys.exit(main(['poset', sys.argv[1]]))\n"
        )
        proc = _run_optimized(script, six_cycle_file)
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stdout) == {"error": message}


def test_route_guard_is_exit_4_under_optimize_flag(six_cycle_file):
    # an analysis that offers its first rotation at every later state makes
    # every route run on past 2·|E| = 14 shifts
    script = (
        "import sys\n"
        "import smp.rotations\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.rotations.applicable_rotations\n"
        "first = []\n"
        "def stuck(inst, x, cache=None, known=None):\n"
        "    if not first:\n"
        "        act, rots = real(inst, x, cache, known)\n"
        "        if not rots:\n"
        "            return act, rots\n"
        "        first.append((act, rots))\n"
        "    return first[0]\n"
        "smp.rotations.applicable_rotations = stuck\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": "route exceeded 14 shifts"}


def test_repeated_base_route_rotation_is_exit_4_under_optimize_flag(six_cycle_file):
    # a base route that applies its first rotation again at its end
    script = (
        "import dataclasses, sys\n"
        "import smp.poset\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.poset.run_route\n"
        "def planted(inst, start, **kw):\n"
        "    route = real(inst, start, **kw)\n"
        "    if 'avoid' in kw:\n"
        "        return route\n"
        "    return dataclasses.replace(route, steps=route.steps + route.steps[:1])\n"
        "smp.poset.run_route = planted\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": "full-shift route repeated a rotation"}


AVOIDANCE_PLANTS = [
    # every avoidance run routes on without avoiding, so it applies the
    # avoided rotation, the base route's next one
    ("    return real(inst, start, cache=kw['cache'])",
     "avoidance run applied the avoided rotation 0"),
    # avoiding rotation 0 leaves 0 and 1 unapplied, avoiding 1 leaves 1 and
    # every later one: 0 < 1, but 2 is above 1 and not above 0
    ("    route = real(inst, start, **kw)\n"
     "    i = [r.key() for r in base[0]].index(kw['avoid'])\n"
     "    steps = {0: base[0][2:], 1: []}.get(i, route.steps)\n"
     "    return dataclasses.replace(route, steps=steps)",
     "precedence not transitive at rotations 0 < 1"),
]


@pytest.mark.parametrize("plant, message", AVOIDANCE_PLANTS, ids=["avoided", "transitive"])
def test_avoidance_checks_fire_under_optimize_flag(tmp_path, plant, message):
    path = tmp_path / "m4.json"
    # a tied 4 x 4 marriage whose poset is the chain of its 4 rotations
    inst = rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3)
    path.write_text(json.dumps(serialize_instance(inst)))
    script = (
        "import dataclasses, sys\n"
        "import smp.poset\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.poset.run_route\n"
        "base = []\n"
        "def planted(inst, start, **kw):\n"
        "    if 'avoid' not in kw:\n"
        "        route = real(inst, start, **kw)\n"
        "        base.append(route.steps)\n"
        "        return route\n"
        f"{plant}\n"
        "smp.poset.run_route = planted\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


def _omega_route_plant(change):
    """A plant that alters omega's route, the one `smp.poset` route without a cache."""
    return (
        "real = smp.poset.run_route\n"
        "def planted(inst, start, **kw):\n"
        "    route = real(inst, start, **kw)\n"
        f"    return route if 'cache' in kw else dataclasses.replace(route, {change})\n"
        "smp.poset.run_route = planted"
    )


@pytest.mark.parametrize(
    "plant, failing, message",
    [
        ("smp.cli.omega = lambda inst, poset, x: {}",
         "closed_function_bijection", "omega does not invert gamma on the ideal []"),
        ("smp.cli.stability_report = lambda inst, x: StabilityReport(False, [], frozenset(), frozenset(), {})",
         "solve_stable", "x_min is not stable"),
        (_omega_route_plant("states=route.states[:1]"),
         "closed_function_bijection", "route from x did not reach the worker optimum"),
        (_omega_route_plant(
            "steps=[Rotation({e: 2 * v for e, v in r.values.items()}, r.tau) for r in route.steps]"),
         "closed_function_bijection", "route used a rotation outside the poset"),
        (_omega_route_plant("steps=route.steps * 2"),
         "closed_function_bijection", "recovered weights are not closed"),
        (_omega_route_plant("steps=[]"),
         "closed_function_bijection", "weights do not reproduce x"),
        ("smp.poset.stability_report = lambda inst, x, known=None: StabilityReport(False, [], frozenset(), frozenset(), {})",
         "closed_function_bijection", "closed function image not stable"),
    ],
    ids=["omega", "stability", "omega route unfinished", "omega foreign rotation",
         "omega weights not closed", "omega weights not reproducing", "gamma image"],
)
def test_verify_checks_run_under_optimize_flag(six_cycle_file, plant, failing, message):
    script = (
        "import dataclasses, sys\n"
        "import smp.cli\n"
        "import smp.poset\n"
        "from smp.rotations import Rotation\n"
        "from smp.stability import StabilityReport\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        f"{plant}\n"
        "sys.exit(smp.cli.main(['verify', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 1, proc.stderr
    ledger = json.loads(proc.stdout)
    assert ledger[failing] == f"fail: {message}"
    assert all(v == "pass" for k, v in ledger.items() if k != failing)


@pytest.mark.parametrize(
    "plant, message",
    [
        # the six-cycle's Hasse edge (0, 1) crosses this cut
        ("smp.mincost.min_cut = lambda net: CutResult(real_cut(net).value, frozenset({'s', 0}))",
         "a covering arc leaves the source side of the cut"),
        ("smp.mincost.min_cut = lambda net: CutResult(real_cut(net).value + 1, real_cut(net).source_side)",
         "cut capacity does not match ideal weight"),
        # the first call prices the chosen assignment, the second x_min
        ("calls = []\n"
         "def planted(costs, x):\n"
         "    calls.append(x)\n"
         "    return real_cost(costs, x) + (1 if len(calls) == 1 else 0)\n"
         "smp.mincost.assignment_cost = planted",
         "cost decomposition mismatch"),
    ],
    ids=["cut closure", "cut capacity", "cost decomposition"],
)
def test_mincost_checks_fire_under_optimize_flag(tmp_path, plant, message):
    inst = six_cycle_instance()
    doc = serialize_instance(inst)
    doc["costs"] = {e: i for i, e in enumerate(inst.edge_ids)}
    path = tmp_path / "six_costs.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "import smp.mincost\n"
        "from smp.cli import main\n"
        "from smp.flow import CutResult\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real_cut, real_cost = smp.mincost.min_cut, smp.mincost.assignment_cost\n"
        f"{plant}\n"
        "sys.exit(main(['mincost', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


@pytest.mark.parametrize(
    "planted, message",
    [
        ("'__depot_firm' in inst.quota", "depot seed unexpectedly unstable"),
        ("'__depot_firm' not in inst.quota", "restricted worker optimum not stable and quota filling"),
    ],
    ids=["depot seed", "restriction"],
)
def test_quota_filling_checks_fire_under_optimize_flag(tmp_path, planted, message):
    # a stability report that calls the depot seed, or the restriction of the
    # extension's worker optimum, unstable must stop the solve with exit 4
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(serialize_instance(rand_marriage(random.Random(2), 3, cap=1))))
    script = (
        "import dataclasses, sys\n"
        "import smp.iteration\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "report = smp.iteration.stability_report\n"
        "def planted(inst, x, known=None):\n"
        "    out = report(inst, x, known)\n"
        f"    return dataclasses.replace(out, stable=False) if {planted} else out\n"
        "smp.iteration.stability_report = planted\n"
        "sys.exit(main(['solve', sys.argv[1], '--method', 'quota-filling']))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


@pytest.mark.parametrize(
    "plant, message",
    [
        # no rotation applicable at the witness state
        ("smp.poset.applicable_rotations = lambda *a, **k: (real(*a, **k)[0], [])",
         "predecessor not applicable at witness state"),
        # the witness state also offers every rotation one shift further on
        ("def early(inst, x, cache=None, known=None):\n"
         "    act, rots = real(inst, x, cache, known)\n"
         "    if known is not None:  # the state after the predecessor's shift\n"
         "        return act, rots\n"
         "    shifted = [smp.poset.apply_shift(inst, x, [r], [r.tau], verify=False) for r in rots]\n"
         "    return act, rots + [s for y in shifted for s in real(inst, y)[1]]\n"
         "smp.poset.applicable_rotations = early",
         "successor applicable too early"),
        # the shift along the predecessor leaves the witness state unchanged
        ("smp.poset.apply_shift = lambda inst, x, *a, **k: dict(x)",
         "successor not enabled by predecessor"),
    ],
    ids=["predecessor applicable", "successor too early", "successor enabled"],
)
def test_hasse_witness_checks_fire_under_optimize_flag(tmp_path, plant, message):
    path = tmp_path / "m4.json"
    # a strict 4 x 4 marriage whose poset has the Hasse edge (0, 1)
    path.write_text(json.dumps(serialize_instance(rand_marriage(random.Random(4), 4, cap=1))))
    script = (
        "import sys\n"
        "import smp.poset\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.poset.applicable_rotations\n"
        f"{plant}\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a vertex with an empty head is not marked singular
        ("if not edges or any(", "if any(", r"regular vertex '\w+' with empty head"),
        # a vertex whose head leads to a singular vertex is not marked either
        ("pending.append(u)", "pass", r"head of regular vertex '\w+' leaves the regular set"),
    ],
    ids=["empty head", "head leaves"],
)
def test_active_structure_head_checks_fire_under_optimize_flag(six_cycle_file, old, new, message):
    # the cleaning of build_active_structure, broken: at the end of every
    # route each firm's potential head is empty, and the checks must see it
    script = (
        "import inspect, sys\n"
        "import smp.rotations\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "source = inspect.getsource(smp.rotations.build_active_structure)\n"
        "if sys.argv[2] not in source:\n"
        "    sys.exit('no such text in build_active_structure')\n"
        "exec(source.replace(sys.argv[2], sys.argv[3]), vars(smp.rotations))\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file, old, new)
    assert proc.returncode == 4, proc.stderr
    assert re.fullmatch(message, json.loads(proc.stdout)["error"])


@pytest.mark.parametrize(
    "plant, call, message",
    [
        # a stability report that calls the shifted point unstable
        ("smp.rotations.stability_report = unstable",
         "apply_shift(inst, x, [rot], [rot.tau])", "shift broke stability"),
        # the reversed rotation leads from y back up to x, a firm-side ascent
        ("back = Rotation({e: -v for e, v in rot.values.items()}, rot.tau)",
         "apply_shift(inst, y, [back], [rot.tau])", "shift is not a strict firm-side descent"),
        # a stability report that passes the two inputs and calls the
        # worker-side join or meet unstable
        ("smp.poset.stability_report = unstable_output",
         "stable_join_workers(inst, x, y)", "worker-side join not stable"),
        ("smp.poset.stability_report = unstable_output",
         "stable_meet_workers(inst, x, y)", "worker-side meet not stable"),
        # every ideal's function set to twice τ, above the box
        ("poset = build_poset(inst)\n"
         "smp.poset._fully_closed = "
         "lambda poset, ideal: {i: 2 * r.tau for i, r in enumerate(poset.rotations)}",
         "enumerate_fully_closed(poset)", "fully closed function of ideal [] not closed"),
        # every sink component reported twice
        ("source = inspect.getsource(smp.rotations.maximal_components)\n"
         "old = 'out.append(tuple(sorted(comp)))'\n"
         "if old not in source:\n"
         "    sys.exit('no such text in maximal_components')\n"
         "exec(source.replace(old, 'out += [tuple(sorted(comp))] * 2'), vars(smp.rotations))",
         "applicable_rotations(inst, x)", "sink components share vertices ['v0', 'v1', 'v4', 'v5']"),
    ],
    ids=["shift stability", "shift descent", "join", "meet", "not closed", "sink overlap"],
)
def test_shift_and_lattice_checks_fire_under_optimize_flag(six_cycle_file, plant, call, message):
    # x is x_min, rot its first rotation and y the point after the full shift
    script = (
        "import dataclasses, inspect, sys\n"
        "import smp.poset, smp.rotations\n"
        "from smp import *\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "inst = parse_instance(open(sys.argv[1]).read())\n"
        "x = solve_xmin(inst)\n"
        "rot = applicable_rotations(inst, x)[1][0]\n"
        "y = apply_shift(inst, x, [rot], [rot.tau], verify=False)\n"
        "report = smp.rotations.stability_report\n"
        "def unstable(inst, x, known=None):\n"
        "    return dataclasses.replace(report(inst, x, known), stable=False)\n"
        "reports = []\n"
        "def unstable_output(inst, z, known=None):\n"
        "    # the first two reports are of the inputs x and y\n"
        "    reports.append(z)\n"
        "    return report(inst, z, known) if len(reports) <= 2 else unstable(inst, z)\n"
        f"{plant}\n"
        "try:\n"
        f"    {call}\n"
        "except InvariantError as exc:\n"
        "    sys.exit(str(exc))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == message


@pytest.mark.parametrize("values", [[1, 2], "e1", 3])
def test_non_object_assignment_values_are_a_domain_error(capsys, tmp_path, triangle_file, values):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"values": values}))
    code, out = run_cli(capsys, "check", triangle_file, str(path))
    assert code == 1
    assert json.loads(out) == {"error": '"values" must be an object mapping edge ids to rationals'}


@pytest.mark.parametrize("costs", [[1, 2], "e1", 3])
@pytest.mark.parametrize("command", ["check", "solve", "rotations", "poset", "mincost", "enumerate", "verify"])
def test_non_object_instance_costs_are_a_domain_error(capsys, tmp_path, command, costs):
    doc = serialize_instance(triangle_instance(F(8), F(15)))
    doc["costs"] = costs
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"values": {}}))
    code, out = run_cli(capsys, command, str(path), *([str(x)] if command == "check" else []))
    assert code == 1
    assert json.loads(out) == {"error": '"costs" must be an object mapping edge ids to rationals'}

def test_non_list_tie_is_a_domain_error(capsys, tmp_path):
    doc = serialize_instance(triangle_instance(F(8), F(15)))
    first = sorted(doc["preferences"])[0]
    doc["preferences"][first] = [7]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert json.loads(out) == {"error": f"preferences of {first!r} must be a list of ties"}


# SHA-256 of `smp solve --trace` on aggregating rand_marriage(Random(seed), 4,
# cap=2, tie_prob=0.5) instances; the trace prints each aggregated point, so
# these pin the optimal vertex the aggregation LP returns.
SOLVE_TRACE_DIGESTS = {
    0: "dcd05adc48521b87fd9ddf1e4242932e9990841b546d52eddad8b3351c07c346",
    4: "00389c3dbbbcee28304208eba359990c6420a4354503c70eca24dc6fd5d47ec7",
    25: "45e41bd6c9f7fcc8788d0a1e220047e1da0217c9fc404c6faac9a539fe8018c6",
}


# SHA-256 of `smp rotations` and `smp rotations --dot` at x_min: the six-cycle,
# the triangle (heads of three edges) and two rand_marriage(Random(seed), n)
# instances with two rotations applicable at x_min.
ROTATIONS_INSTANCES = {
    "six_cycle": six_cycle_instance,
    "triangle": lambda: triangle_instance(F(8), F(15)),
    "marriage_5_38": lambda: rand_marriage(random.Random(38), 5),
    "marriage_6_35": lambda: rand_marriage(random.Random(35), 6),
}
ROTATIONS_DIGESTS = {
    ("six_cycle", "json"): "5953dc56bc2d725d5e8c829d0b4ed83a00f55d9d098f5bb2f942de1cb3c592be",
    ("six_cycle", "dot"): "8ff523da8b8b77075e4d8ff5e4066503871ffcc29055e16424ed2215ebb34181",
    ("triangle", "json"): "f3a52c301115d513d088a30f9d8dac63d7579957361e90600477dc761df63bf2",
    ("triangle", "dot"): "2604b120976ee58fb54a10c84fd29f2e652384d647a781bbe95c4794bcac8e4e",
    ("marriage_5_38", "json"): "84648a05e343a2fa16688013bf4a025a27d63fa7de4b673c31f76ca0917eb1ea",
    ("marriage_5_38", "dot"): "fd9e4b93ed7ad65ef4c0bdd881e3872c4bf0f96c21676b6f5650b428cd339299",
    ("marriage_6_35", "json"): "571db019bd7c141e39b91be35c0e79567a3a94ce23369a4db21c7ef30379790a",
    ("marriage_6_35", "dot"): "caea556f6186dd0c56689d290ea1d3796e77b1a0fd8516468f1a3f6f12c094da",
}


@pytest.mark.parametrize("name,form", sorted(ROTATIONS_DIGESTS))
def test_rotations_output_is_pinned(capsys, tmp_path, name, form):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(serialize_instance(ROTATIONS_INSTANCES[name]())))
    code, out = run_cli(capsys, "rotations", str(path), *(["--dot"] if form == "dot" else []))
    assert code == 0
    if form == "json" and name.startswith("marriage"):
        assert len(json.loads(out)) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == ROTATIONS_DIGESTS[name, form]


def _six_cycle_with_deficit_pair():
    """The six-cycle plus a disjoint unit edge whose endpoints have quota 2."""
    inst = six_cycle_instance()
    return Instance(
        inst.firms + ("g",),
        inst.workers + ("h",),
        inst.edges + (Edge("gh", "g", "h", F(1)),),
        {**inst.quota, "g": F(2), "h": F(2)},
        {**inst.corteges, "g": [["gh"]], "h": [["gh"]]},
    )


# SHA-256 of the lattice and quota-filling forms, which the benchmark never
# runs, on the rotations instances, a tied marriage with 4 rotations and 3
# Hasse edges, and one instance that is not quota filling.
LATTICE_INSTANCES = {
    **ROTATIONS_INSTANCES,
    "marriage_4_tied": lambda: rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3),
    "six_cycle_deficit": _six_cycle_with_deficit_pair,
}
LATTICE_FORMS = {
    "poset": ["poset"],
    "poset_dot": ["poset", "--dot"],
    "enumerate": ["enumerate"],
    "enumerate_grid_3": ["enumerate", "--grid", "3"],
    "verify": ["verify"],
    "quota_filling_firms": ["solve", "--method", "quota-filling", "--side", "firms"],
    "quota_filling_workers": ["solve", "--method", "quota-filling", "--side", "workers"],
}
LATTICE_DIGESTS = {
    ("marriage_4_tied", "enumerate"): "a388b56ff7561cdb72c035f67166c71f6edae26272c0a6ca971f6dc6fb3a67aa",
    ("marriage_4_tied", "enumerate_grid_3"): "033e79b1f659a63a5ec43ebee7b4ff0e884fd903a96f683908070543ed581f22",
    ("marriage_4_tied", "poset"): "e067a244a2cb7e04bd842c54756fa144ceb88ce420c0686662f432c401ba13ff",
    ("marriage_4_tied", "poset_dot"): "dcb785e79f06dd35d61b35557f122aa6014d15be342e06912117243704fc5289",
    ("marriage_4_tied", "quota_filling_firms"): "59b6c21d79d3eb9e2af7eb20dc702b8973461bd717f76ef752244f6a01e53890",
    ("marriage_4_tied", "quota_filling_workers"): "f3d71e7fb333db2c7b0f63435efc7346c5a10c92b0300c661fcfe487cceee2b0",
    ("marriage_4_tied", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
    ("marriage_5_38", "enumerate"): "f9978df986f23c01013481aafa5124ed8d0240b6b1ba08406d2e9fc92e11448d",
    ("marriage_5_38", "enumerate_grid_3"): "eca80d10d258dabc8574a72f6de1e824e8b5bc437fc5ef6bafc3fb412559c125",
    ("marriage_5_38", "poset"): "394176e150ecb6817d05508ae793a47caa7b904181284a9ccda892619f4ee7ee",
    ("marriage_5_38", "poset_dot"): "c6d8cf0505ebead809ee3b32d81a79f78c3c61a3c376dd6a7114a89d8ecc61da",
    ("marriage_5_38", "quota_filling_firms"): "4a984540300740f089b2e71a9c185699feae600d35f0f4b651d1e83f9e3d212e",
    ("marriage_5_38", "quota_filling_workers"): "01068206e49f1040435b40c65507168d3f95c72685a337e2f0990d70d13184ac",
    ("marriage_5_38", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
    ("marriage_6_35", "enumerate"): "4662da544fa14e99db5889c0b9e4e8a27ad2ef596b24ecf8524d9fb91bc71c6b",
    ("marriage_6_35", "enumerate_grid_3"): "e07dcde8292545ebe6e13c59bd43a73b5bed7362a41ae31a7b9e3547abc5c6d6",
    ("marriage_6_35", "poset"): "0f002d9c60dcff86bf756d4ae10613e9daad6e257f1e3e3cee565cf08108db58",
    ("marriage_6_35", "poset_dot"): "c6d8cf0505ebead809ee3b32d81a79f78c3c61a3c376dd6a7114a89d8ecc61da",
    ("marriage_6_35", "quota_filling_firms"): "317a21b441fa09318a4964d12c3d63c3456794aee1f29cbac3d43d4a8620c39b",
    ("marriage_6_35", "quota_filling_workers"): "15192f0d230549713a2f267c6b5dc4e1f76a79c04400ef5363d17987ecbe0945",
    ("marriage_6_35", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
    ("six_cycle", "enumerate"): "bb8973cd061114ab254d409350de81e0241b76fe0af96d0e2f5f65b34e5d64bf",
    ("six_cycle", "enumerate_grid_3"): "90e2cea1142713652415ca5634c0e93ecb0d0ebbd7ef2bfb7e0844e7f0eeaaa4",
    ("six_cycle", "poset"): "059a93c060e168d265c9ffb49cd57953cfd57772679121dbc258a00c1dfa8fa1",
    ("six_cycle", "poset_dot"): "c1d8c30f80fca88c338a042c6b9adba3151aa6a56faa70d027e68a143213d1ae",
    ("six_cycle", "quota_filling_firms"): "78de574d5dd5787eca3a905d99da317acc37cad4432093a75aeadff119cf7b0d",
    ("six_cycle", "quota_filling_workers"): "fd96b79e94df6c95e54e72359ae81677fe7ee678a2d9e8270d02965c9231add9",
    ("six_cycle", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
    ("six_cycle_deficit", "enumerate"): "7d7c24d63e67fe0210173f9d8cc935d329957e1eb7d732f75a2acc44a13c7094",
    ("six_cycle_deficit", "enumerate_grid_3"): "f1bdb6d7b40cd4eac47f403431db86b1bee11226c1a5158b674e1e993751104f",
    ("six_cycle_deficit", "poset"): "059a93c060e168d265c9ffb49cd57953cfd57772679121dbc258a00c1dfa8fa1",
    ("six_cycle_deficit", "poset_dot"): "c1d8c30f80fca88c338a042c6b9adba3151aa6a56faa70d027e68a143213d1ae",
    ("six_cycle_deficit", "quota_filling_firms"): "442134634ed06b44a8695bc7457352476dd0ffa0db52ca5cf7dfd94db37a6a11",
    ("six_cycle_deficit", "quota_filling_workers"): "442134634ed06b44a8695bc7457352476dd0ffa0db52ca5cf7dfd94db37a6a11",
    ("six_cycle_deficit", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
    ("triangle", "enumerate"): "b3f0252bd03bbb43585f1795b9421f59739ed3453ecd3a6a91e243022cad4e2d",
    ("triangle", "enumerate_grid_3"): "c024bdf81839fcc80bda736c2738350f7df2f6af231e05f6b97e161ce9f9d0d8",
    ("triangle", "poset"): "e0cf7a00175e0fb0ded5aacee0e75a9b65f70d3efe167cb7151716925d160d5c",
    ("triangle", "poset_dot"): "c200808e842aed8b6288ae85cfeee40ccb7beb78aabd484fd7d76ccc2fe9c2b6",
    ("triangle", "quota_filling_firms"): "d9252957e43313d3356e866cce23def7a617af44ad587c152222a9bb5586433e",
    ("triangle", "quota_filling_workers"): "42c7e3a5ed04e821628379afeb673205e0aa16eb9adc4fd75c318ac1eb46acaf",
    ("triangle", "verify"): "3ac72bd31ba42c936819bd97e74c663b462b0d77e3f84015807541aa2488ffcd",
}


@pytest.mark.parametrize("name,form", sorted(LATTICE_DIGESTS))
def test_lattice_output_is_pinned(capsys, tmp_path, name, form):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(serialize_instance(LATTICE_INSTANCES[name]())))
    command, *options = LATTICE_FORMS[form]
    code, out = run_cli(capsys, command, str(path), *options)
    assert code == 0
    if name == "six_cycle_deficit" and form.startswith("quota_filling"):
        assert json.loads(out) == {"quota_filling": False}
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_DIGESTS[name, form]


@pytest.mark.parametrize("seed", sorted(SOLVE_TRACE_DIGESTS))
def test_solve_trace_output_is_pinned(capsys, tmp_path, seed):
    path = tmp_path / "tied.json"
    inst = rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.5)
    path.write_text(json.dumps(serialize_instance(inst)))
    code, out = run_cli(capsys, "solve", str(path), "--trace")
    assert code == 0
    assert any(step["kind"] == "aggregated" for step in json.loads(out)["trace"])
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_TRACE_DIGESTS[seed]


# SHA-256 of `smp poset` and `smp mincost --costs` on the inputs that work the
# exact kernels hardest: chained_instance(k, 8·4^(k-1), 15·4^(k-1)), whose
# single rotation has generator entries up to 4^(k-1), and two tied marriages
# with at least two Hasse edges and rotation weights ζ of both signs, so that
# the cut network has source, sink and covering arcs.  Each case draws its
# costs in -9..9 from the generator it was built with, after the instance.
KERNEL_CASES = {
    **{
        f"chain_{k}": (k, lambda rng, k=k: chained_instance(k, F(8 * 4 ** (k - 1)), F(15 * 4 ** (k - 1))))
        for k in range(2, 7)
    },
    "marriage_5_tied_2": (2, lambda rng: rand_marriage(rng, 5, cap=2, tie_prob=0.5)),
    "marriage_5_tied_54": (54, lambda rng: rand_marriage(rng, 5, cap=2, tie_prob=0.5)),
}
KERNEL_DIGESTS = {
    ("chain_2", "poset"): "3d36d60133e7e317b7a7290ab80173960713a6c2573891aa16079e6f524355e9",
    ("chain_2", "mincost"): "097a1115bb91f0e6168bd403a8edaef540ff20759c852ce1999a6bbdc59fdaba",
    ("chain_3", "poset"): "bb030d677430a3ac7e20d9145c5eaf79744097920a0b68a1a5724efb68b443c9",
    ("chain_3", "mincost"): "bfb5dc4ad0f06513a91e02e39e222de6b13676b44ef59030a814c93a5cde97b3",
    ("chain_4", "poset"): "2716d4e1f9bf771da6564304af2ab6f0334cbcb42f649c356ee65e31876b4c3e",
    ("chain_4", "mincost"): "d097036118662e24f357499b39161fd0b82e657b6d2ef32599b89528bf69c90d",
    ("chain_5", "poset"): "40437629c0aba8114eb4199f3d04a93fa771e5a9fc7f40b742f80381f4dfeb61",
    ("chain_5", "mincost"): "7fda56a44ac6df1d329bbb5db905bc4f6a808a07aeaf1872846ce600be23239c",
    ("chain_6", "poset"): "15fe3e12aeb8a6417960034f703f22a678bad27a8aa71d33f4c5453f4f76cc1c",
    ("chain_6", "mincost"): "fe57ed6261185a84956b91b240143c89b25adfe46f643ced8c49a871f497c335",
    ("marriage_5_tied_2", "poset"): "cd65a1d505fc2f8010a193e6a6abb3a8731e30626a3938a66f69d86ca9418c14",
    ("marriage_5_tied_2", "mincost"): "f879116bd2c9a569c91a9900ec24756f562570afce26a981c8364655e5fadee2",
    ("marriage_5_tied_54", "poset"): "6c42058e1b7a5cb6ff31d3b79401c8a747b72abd84c7aa9e2d3fb92b2a4d7855",
    ("marriage_5_tied_54", "mincost"): "54745af9680fe129c46367fd5c0cf9d1d3240ca3acc2f5e621c5dd25d26b685c",
}


@pytest.mark.parametrize("name,command", sorted(KERNEL_DIGESTS))
def test_kernel_output_is_pinned(capsys, tmp_path, name, command):
    seed, make = KERNEL_CASES[name]
    rng = random.Random(seed)
    inst = make(rng)
    costs = {e: rng.randint(-9, 9) for e in inst.edge_ids}
    path, costs_path = tmp_path / f"{name}.json", tmp_path / f"{name}.costs.json"
    path.write_text(json.dumps(serialize_instance(inst)))
    costs_path.write_text(json.dumps(costs))
    options = ["--costs", str(costs_path)] if command == "mincost" else []
    code, out = run_cli(capsys, command, str(path), *options)
    assert code == 0
    if name.startswith("marriage"):
        costed = build_costed_poset(inst, {e: F(c) for e, c in costs.items()})
        assert len(costed.poset.hasse) >= 2
        assert min(costed.zeta.values()) < 0 < max(costed.zeta.values())
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_DIGESTS[name, command]


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_bad_round_cap_is_a_domain_error(capsys, monkeypatch, triangle_file, value):
    monkeypatch.setenv("SMP_MAX_STEPS", value)
    code, out = run_cli(capsys, "solve", triangle_file)
    assert code == 1
    assert "must be a positive integer" in json.loads(out)["error"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--side", "aliens"])
    assert exc.value.code == 2


def _fresh_run(argv):
    """Exit code, stdout and stderr of `main(argv)` in a new interpreter."""
    script = "import sys\nfrom smp.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = _run_python([], script, *argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_carries_nothing_between_calls(capsys, monkeypatch, triangle_file):
    # help and usage text wrap at the terminal width, here and in the
    # interpreters that `_fresh_run` starts
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["solve", triangle_file, "--trace"],
        ["solve", triangle_file],
        ["solve", triangle_file, "--bogus"],
        ["frobnicate", triangle_file],
        ["--help"],
        ["solve", triangle_file],
    ]
    runs = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert [code for code, _, _ in runs] == [0, 0, 2, 2, 0, 0]
    assert "trace" in json.loads(runs[0][1]) and "trace" not in json.loads(runs[1][1])
    assert runs[5] == runs[1]
    for argv, run in zip(sequence, runs):
        assert run == _fresh_run(argv), argv


def test_main_constructs_no_parser(capsys, monkeypatch, triangle_file):
    # `main` parses with the parser built once, when `smp.cli` was imported;
    # building it constructs 8 parsers, the top level and 7 subcommands
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["solve", triangle_file]) == 0
    assert built == []
    build_parser()
    assert len(built) == 8
