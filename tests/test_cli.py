"""Command-line interface round-trips and exit codes."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import smp.choice
import smp.cli
import smp.iteration
import smp.poset
import smp.rotations
from smp import (
    Edge,
    Instance,
    InstanceError,
    build_poset,
    parse_instance,
    serialize_assignment,
    serialize_instance,
    solve_xmin_modified,
)
from smp.cli import build_parser, main
from smp.simplex import LPResult

from gen import (
    SIX_CYCLE_STABLE_ODD,
    chained_instance,
    rand_marriage,
    rotation_weights,
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


@pytest.mark.parametrize("side", ["firms", "workers"])
def test_quota_filling_trace_is_a_usage_error(capsys, triangle_file, side):
    # quota filling runs no proposal rounds, so there is no trace to print
    with pytest.raises(SystemExit) as exc:
        main(["solve", triangle_file, "--method", "quota-filling", "--side", side, "--trace"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--trace" in out.err


def _renamed_triangle(tmp_path, old, new):
    """The triangle instance's file, with edge `old` renamed `new`."""
    doc = json.dumps(serialize_instance(triangle_instance(F(8), F(15))))
    path = tmp_path / "renamed.json"
    path.write_text(doc.replace(f'"{old}"', f'"{new}"'))
    return str(path)


@pytest.mark.parametrize("side", ["firms", "workers"])
@pytest.mark.parametrize("eid", ["__root", "__a_w1", "__b_f1", "__a_f1", "__b_w1"])
def test_quota_filling_rejects_reserved_depot_edge_ids(capsys, tmp_path, eid, side):
    # each depot prefix is reserved at every vertex, so both sides reject
    # the same ids; the modified method solves the same instance
    path = _renamed_triangle(tmp_path, "f1w1", eid)
    code, out = run_cli(capsys, "solve", path, "--method", "quota-filling", "--side", side)
    assert code == 1
    assert json.loads(out) == {"error": f"reserved depot edge ids present in instance: {[eid]}"}
    code, out = run_cli(capsys, "solve", path, "--side", side)
    assert code == 0 and eid in json.loads(out)["values"]


@pytest.mark.parametrize("side", ["firms", "workers"])
@pytest.mark.parametrize("vertex", ["__depot_firm", "__depot_worker"])
def test_quota_filling_rejects_reserved_depot_vertex_ids(capsys, tmp_path, vertex, side):
    path = tmp_path / "depot.json"
    path.write_text(json.dumps(serialize_instance(Instance(
        firms=[vertex], workers=["w"], edges=[Edge("e", vertex, "w", F(1))],
        quota={vertex: F(1), "w": F(1)}, corteges={vertex: [["e"]], "w": [["e"]]},
    ))))
    code, out = run_cli(capsys, "solve", str(path), "--method", "quota-filling", "--side", side)
    assert code == 1
    assert json.loads(out) == {"error": "reserved depot vertex ids present in instance"}


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


@pytest.mark.parametrize(
    "argv",
    [["check", "{inst}", ""], ["rotations", "{inst}", "--at", ""], ["mincost", "{inst}", "--costs", ""]],
    ids=["check", "rotations-at", "mincost-costs"],
)
def test_empty_file_path_is_a_domain_error(capsys, tmp_path, argv):
    # an empty path read as the current directory in `check`, and `--at ""`
    # and `--costs ""` fell back to x_min and to the instance's own costs
    doc = serialize_instance(triangle_instance(F(8), F(15)))
    doc["costs"] = {e: 1 for e in triangle_instance(F(8), F(15)).edge_ids}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, *[arg.format(inst=path) for arg in argv])
    assert code == 1
    assert json.loads(out) == {"error": "empty file path"}


def test_mincost_without_costs_is_a_domain_error(capsys, triangle_file):
    code, out = run_cli(capsys, "mincost", triangle_file)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("where", ["costs file", "instance"])
def test_mincost_costs_for_an_unknown_edge_are_a_domain_error(capsys, tmp_path, where):
    # the costs file is checked like the instance document's "costs"
    inst = triangle_instance(F(8), F(15))
    costs = {e: 1 for e in inst.edge_ids}
    costs["bogus"] = 5
    doc = serialize_instance(inst)
    argv = ["mincost", str(tmp_path / "inst.json")]
    if where == "instance":
        doc["costs"] = costs
    else:
        (tmp_path / "costs.json").write_text(json.dumps(costs))
        argv += ["--costs", str(tmp_path / "costs.json")]
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "costs given for unknown edges: ['bogus']"}


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


@pytest.mark.parametrize("k", ["0", "1"])
def test_enumerate_grid_below_two_is_a_domain_error(capsys, triangle_file, k):
    # --grid 0 is a given k, not a missing option
    code, out = run_cli(capsys, "enumerate", triangle_file, "--grid", k)
    assert code == 1
    assert json.loads(out) == {"error": "grid needs k >= 2"}


def test_enumerate_grid_above_the_cap_is_a_domain_error(capsys, triangle_file):
    # the triangle has one rotation, so the grid has k points
    code, out = run_cli(capsys, "enumerate", triangle_file, "--grid", "1000001")
    assert code == 1
    assert json.loads(out) == {"error": "grid size 1000001^1 exceeds cap 1000000"}


def test_verify_reports_all_pass(capsys, six_cycle_file):
    code, out = run_cli(capsys, "verify", six_cycle_file)
    assert code == 0
    assert set(json.loads(out).values()) == {"pass"}


def test_missing_file_is_a_domain_error(capsys):
    code, out = run_cli(capsys, "check", "/nonexistent.json", "/also-missing.json")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{dir}"],
        ["check", "{dir}", "{triangle}"],
        ["check", "{triangle}", "{dir}"],
        ["rotations", "{triangle}", "--at", "{dir}"],
        ["mincost", "{triangle}", "--costs", "{dir}"],
    ],
    ids=["solve-instance", "check-instance", "check-assignment", "rotations-at", "mincost-costs"],
)
def test_directory_path_is_a_domain_error(capsys, tmp_path, triangle_file, argv):
    argv = [a.format(dir=tmp_path, triangle=triangle_file) for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"] and "Is a directory" in doc["error"]


def test_round_cap_is_a_solver_limit_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m4.json"
    inst = rand_marriage(random.Random(1), 4, cap=2, tie_prob=0.3)
    path.write_text(json.dumps(serialize_instance(inst)))
    monkeypatch.setattr(smp.iteration, "_step_cap", lambda inst: 1)
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
    # a quota below the load makes the firm-quota rows' right-hand sides
    # negative, so φ = 0 would not be feasible
    real = smp.iteration._big_iteration

    def planted(inst, state):
        return real(inst, state._replace(quota=dict.fromkeys(state.quota, -1)))

    monkeypatch.setattr(smp.iteration, "_big_iteration", planted)
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


def test_importing_the_cli_loads_neither_dataclasses_nor_the_oracles():
    # a fresh interpreter, isolated from the environment, with this
    # checkout's `src` on its path
    src = str(Path(smp.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import smp.cli\n"
        "print(sorted(m for m in ('dataclasses', 'smp.bruteforce') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_inadmissible_aggregated_point_is_exit_4_under_optimize_flag(aggregating_file):
    # the aggregation step's point tripled leaves the box: the stability test
    # rejects it, and the solver, not the input, is at fault
    script = (
        "import sys\n"
        "import smp.iteration\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.iteration._big_iteration\n"
        "def tripled(inst, state):\n"
        "    new = real(inst, state)\n"
        "    point = {e: 3 * v for e, v in new.x.items()}\n"
        "    return new._replace(x=point, y=point)\n"
        "smp.iteration._big_iteration = tripled\n"
        "sys.exit(main(['solve', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, aggregating_file)
    assert proc.returncode == 4, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"]
    assert doc["error"].startswith("aggregated point rejected: assignment not admissible"), doc


def test_unstable_terminal_round_is_exit_4_under_optimize_flag(triangle_file):
    # a terminal round zeroed, its choices dropped: every edge blocks at 0,
    # and the normalising route rejects the solver's own point
    script = (
        "import sys\n"
        "import smp.iteration\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.iteration.ordinary_iteration_step\n"
        "def zeroed(inst, state):\n"
        "    new = real(inst, state)\n"
        "    if new.cut:\n"
        "        return new\n"
        "    zero = dict.fromkeys(new.x, 0)\n"
        "    return new._replace(x=zero, y=zero, outcomes={})\n"
        "smp.iteration.ordinary_iteration_step = zeroed\n"
        "sys.exit(main(['solve', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, triangle_file)
    assert proc.returncode == 4, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"]
    prefix = "solver's point rejected by the normalising route: assignment is not stable"
    assert doc["error"].startswith(prefix), doc


def test_failed_stability_invariant_is_checked_under_optimize_flag(tmp_path, six_cycle_file):
    # at the zero assignment every vertex is in deficit and every edge blocks;
    # a choice that drops an edge from its tail makes the two blocking
    # characterizations of stability_report disagree
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"values": {}}))
    script = (
        "import sys\n"
        "import smp.choice\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "choose = smp.choice.choose\n"
        "def drop_one(inst, v, z):\n"
        "    out = choose(inst, v, z)\n"
        "    if not out.tail:\n"
        "        return out\n"
        "    return out._replace(tail=out.tail - {min(out.tail)})\n"
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
     "def with_zero(inst, values):\n"
     "    values[next(e for e in inst.edge_ids if e not in values)] = Fraction(0)\n"
     "    check(inst, values)\n"
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
        "real = smp.rotations._applicable_rotations\n"
        "first = []\n"
        "def stuck(inst, x, *, cache, known):\n"
        "    if not first:\n"
        "        act, rots = real(inst, x, cache=cache, known=known)\n"
        "        if not rots:\n"
        "            return act, rots\n"
        "        first.append((act, rots))\n"
        "    return first[0]\n"
        "smp.rotations._applicable_rotations = stuck\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": "route exceeded 14 shifts"}


def test_repeated_base_route_rotation_is_exit_4_under_optimize_flag(six_cycle_file):
    # a base route that applies its first rotation again at its end
    script = (
        "import sys\n"
        "import smp.poset\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.poset._run_route\n"
        "def planted(inst, start, **kw):\n"
        "    route = real(inst, start, **kw)\n"
        "    if kw['avoid'] is not None:\n"
        "        return route\n"
        "    return route._replace(steps=route.steps + route.steps[:1])\n"
        "smp.poset._run_route = planted\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, six_cycle_file)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": "full-shift route repeated a rotation"}


AVOIDANCE_PLANTS = [
    # every avoidance run routes on without avoiding, so it applies the
    # avoided rotation, the base route's next one
    ("    return real(inst, start, **{**kw, 'avoid': None})",
     "avoidance run applied the avoided rotation 0"),
    # avoiding rotation 0 leaves 0 and 1 unapplied, avoiding 1 leaves 1 and
    # every later one: 0 < 1, but 2 is above 1 and not above 0
    ("    route = real(inst, start, **kw)\n"
     "    i = [r.key() for r in base[0]].index(kw['avoid'])\n"
     "    steps = {0: base[0][2:], 1: []}.get(i, route.steps)\n"
     "    return route._replace(steps=steps)",
     "precedence not transitive at rotations 0 < 1"),
]


@pytest.mark.parametrize("plant, message", AVOIDANCE_PLANTS, ids=["avoided", "transitive"])
def test_avoidance_checks_fire_under_optimize_flag(tmp_path, plant, message):
    path = tmp_path / "m4.json"
    # a tied 4 x 4 marriage whose poset is the chain of its 4 rotations
    inst = rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3)
    path.write_text(json.dumps(serialize_instance(inst)))
    script = (
        "import sys\n"
        "import smp.poset\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "real = smp.poset._run_route\n"
        "base = []\n"
        "def planted(inst, start, **kw):\n"
        "    if kw['avoid'] is None:\n"
        "        route = real(inst, start, **kw)\n"
        "        base.append(route.steps)\n"
        "        return route\n"
        f"{plant}\n"
        "smp.poset._run_route = planted\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


def _omega_route_plant(change):
    """A plant that alters omega's routes: the `smp.poset` routes that avoid
    nothing (not the avoidance runs), past the first (the base route)."""
    return (
        "real = smp.poset._run_route\n"
        "calls = []\n"
        "def planted(inst, start, **kw):\n"
        "    route = real(inst, start, **kw)\n"
        "    calls.append(start)\n"
        f"    return route if len(calls) == 1 or kw['avoid'] is not None else route._replace({change})\n"
        "smp.poset._run_route = planted"
    )


@pytest.mark.parametrize(
    "plant, failing, message",
    [
        ("smp.cli.omega = lambda inst, poset, x: {}",
         "closed_function_bijection", "omega does not invert gamma on the ideal []"),
        ("smp.cli._stability_report = lambda inst, x, *, known: StabilityReport(False, [], frozenset(), {}, frozenset())",
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
        ("smp.poset._stability_report = lambda inst, x, *, known: StabilityReport(False, [], frozenset(), {}, frozenset())",
         "closed_function_bijection", "closed function image not stable"),
        # the first call loads the file, the second parses the serialized
        # instance, here into a one-edge instance
        ("real = smp.cli.parse_instance\n"
         "calls = []\n"
         "def planted(doc):\n"
         "    calls.append(doc)\n"
         "    if len(calls) == 2:\n"
         "        doc = {'firms': ['f'], 'workers': ['w'],\n"
         "               'edges': [{'id': 'e', 'firm': 'f', 'worker': 'w', 'capacity': 1}],\n"
         "               'quotas': {'f': 1, 'w': 1},\n"
         "               'preferences': {'f': [['e']], 'w': [['e']]}}\n"
         "    return real(doc)\n"
         "smp.cli.parse_instance = planted",
         "parse_roundtrip", "serialized instance parses to other edges"),
        ("from smp.model import InvariantError\n"
         "def planted(inst, x, **kw):\n"
         "    raise InvariantError('route exceeded 12 shifts')\n"
         "smp.cli._run_route = planted",
         "route_bound", "route exceeded 12 shifts"),
    ],
    ids=["omega", "stability", "omega route unfinished", "omega foreign rotation",
         "omega weights not closed", "omega weights not reproducing", "gamma image",
         "parse roundtrip", "route bound"],
)
def test_verify_checks_run_under_optimize_flag(six_cycle_file, plant, failing, message):
    script = (
        "import sys\n"
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


def test_verify_shares_one_state_cache(capsys, tmp_path, monkeypatch):
    """`smp verify` owns one state cache for its route, `build_poset`,
    gamma's checks and omega's routes, so each state is analysed once: 50
    `choose` calls on this tied 4 x 4 marriage.  With a cache in
    `build_poset` alone it made 216."""
    chosen = []
    real_choose = smp.choice.choose
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: chosen.append(v) or real_choose(inst, v, z))
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(serialize_instance(rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3))))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert set(json.loads(out).values()) == {"pass"}
    assert len(chosen) == 50


@pytest.mark.parametrize("args, count", [([], 34), (["--grid", "3"], 66)], ids=["ideals", "grid"])
def test_enumerate_checks_on_the_poset_state_cache(capsys, tmp_path, monkeypatch, args, count):
    """`gamma` checks each enumerated point on the poset's state cache, so a
    point the build analysed is not chosen at again: 34 `choose` calls on
    this tied 4 x 4 marriage, as many as `smp poset`, and 66 for its grid.
    Without the build's cache they were 74 and 106."""
    chosen = []
    real_choose = smp.choice.choose
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: chosen.append(v) or real_choose(inst, v, z))
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(serialize_instance(rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3))))
    code, _ = run_cli(capsys, "enumerate", str(path), *args)
    assert code == 0
    assert len(chosen) == count


@pytest.mark.parametrize(
    "args, count",
    [(["solve"], 10), (["solve", "--side", "workers"], 34), (["rotations"], 10), (["poset"], 34)],
    ids=["solve", "solve workers", "rotations", "poset"],
)
def test_commands_analyse_x_min_once(capsys, tmp_path, monkeypatch, args, count):
    """Each command analyses x_min once, in the solver: `smp rotations`
    starts from the solver's report there, so it makes as many `choose`
    calls as `smp solve` on this tied 4 x 4 marriage (18 when it analysed
    x_min again), and the routes from x_min choose only past it."""
    chosen = []
    real_choose = smp.choice.choose
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: chosen.append(v) or real_choose(inst, v, z))
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(serialize_instance(rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3))))
    code, _ = run_cli(capsys, args[0], str(path), *args[1:])
    assert code == 0
    assert len(chosen) == count


@pytest.mark.parametrize(
    "plant, message",
    [
        # the six-cycle's Hasse edge (0, 1) crosses this cut, whose ideal {1}
        # lacks rotation 1's predecessor 0
        ("smp.mincost.min_cut = lambda net: CutResult(real_cut(net).value, frozenset({'s', 0}))",
         "fully closed function of ideal [1] not closed"),
        ("smp.mincost.min_cut = lambda net: CutResult(real_cut(net).value + 1, real_cut(net).source_side)",
         "cut capacity does not match ideal weight"),
        # the first two calls price the six-cycle's two rotations (ζ), the
        # third the chosen assignment, the fourth x_min
        ("calls = []\n"
         "def planted(costs, x):\n"
         "    calls.append(x)\n"
         "    return real_cost(costs, x) + (1 if len(calls) == 3 else 0)\n"
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


def _doubled_tau(monkeypatch):
    real = smp.rotations.max_weight
    monkeypatch.setattr(smp.rotations, "max_weight", lambda *args: 2 * real(*args))


def _doubled_fully_closed(monkeypatch):
    real = smp.poset._fully_closed

    def doubled(poset, ideal):
        return {i: 2 * lam for i, lam in real(poset, ideal).items()}

    monkeypatch.setattr(smp.poset, "_fully_closed", doubled)


# the triangle's rotation shifted by 2τ takes f2w1 from 8 to 8 - 16
ROUTE_STATE_REJECTED = (
    "route state 1 rejected: assignment not admissible: edge f2w1: negative value -8; "
    "edge f2w2: value 16 exceeds capacity 15; edge f2w3: value 16 exceeds capacity 15; "
    "edge f3w1: value 22 exceeds capacity 15; edge f3w2: negative value -2"
)


@pytest.mark.parametrize(
    "plant, instance, argv, message",
    [
        (_doubled_tau, "triangle", ["poset"], ROUTE_STATE_REJECTED),
        (_doubled_tau, "triangle", ["solve", "--side", "workers"], ROUTE_STATE_REJECTED),
        (_doubled_tau, "triangle", ["enumerate"], ROUTE_STATE_REJECTED),
        # the tied 4 x 4 marriage has 3 Hasse edges; the witness of (0, 1)
        # is x_min, whose closed function is 0 and stays closed when doubled,
        # and that of (1, 2) is the ideal {0}
        (_doubled_fully_closed, "marriage", ["poset"],
         "fully closed function of ideal [0] not closed"),
        # a raise of f3w1 is the triangle rotation's only cost, so the cut's
        # ideal is {0}
        (_doubled_fully_closed, "triangle", ["mincost", "--costs", "{costs}"],
         "fully closed function of ideal [0] not closed"),
    ],
    ids=["poset route", "solve workers route", "enumerate route", "hasse witness", "cut ideal"],
)
def test_a_rejected_point_of_the_library_is_exit_4(
    capsys, monkeypatch, tmp_path, triangle_file, plant, instance, argv, message
):
    # each point is one the library reached itself: a route state past the
    # caller's start, a Hasse witness, the image of the cut's ideal
    path = triangle_file
    if instance == "marriage":
        inst = rand_marriage(random.Random(4), 4, cap=2, tie_prob=0.3)
        assert len(build_poset(inst).hasse) == 3
        path = tmp_path / "m4.json"
        path.write_text(json.dumps(serialize_instance(inst)))
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({**{e: 0 for e in triangle_instance(F(8), F(15)).edge_ids}, "f3w1": -1}))
    plant(monkeypatch)
    command, *options = argv
    code, out = run_cli(capsys, command, str(path), *(o.format(costs=costs) for o in options))
    assert code == 4
    assert json.loads(out) == {"error": message}


def test_an_unstable_user_point_is_still_exit_1(capsys, tmp_path, six_cycle_file):
    # the midpoint of the six-cycle's two stable points is blocked; the
    # library rejects it where the caller hands it in
    from gen import SIX_CYCLE_STABLE_EVEN

    inst = six_cycle_instance()
    half = {e: (SIX_CYCLE_STABLE_ODD[e] + SIX_CYCLE_STABLE_EVEN[e]) / 2 for e in inst.edge_ids}
    at = tmp_path / "half.json"
    at.write_text(json.dumps(serialize_assignment(half)))
    code, out = run_cli(capsys, "rotations", six_cycle_file, "--at", str(at))
    assert code == 1
    assert json.loads(out)["error"].startswith("assignment is not stable (blocking: ")
    poset = build_poset(inst)
    for call in (lambda: smp.rotations.run_route(inst, half), lambda: smp.poset.omega(inst, poset, half)):
        with pytest.raises(InstanceError, match=r"^assignment is not stable \(blocking: "):
            call()
    # an inadmissible start is the caller's too
    with pytest.raises(InstanceError, match="^assignment not admissible: edge e1: negative value -1$"):
        smp.rotations.run_route(inst, {**SIX_CYCLE_STABLE_ODD, "e1": F(-1)})


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
        "import sys\n"
        "import smp.iteration\n"
        "from smp.cli import main\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "report = smp.iteration._stability_report\n"
        "def planted(inst, x, *, known):\n"
        "    out = report(inst, x, known=known)\n"
        f"    return out._replace(stable=False) if {planted} else out\n"
        "smp.iteration._stability_report = planted\n"
        "sys.exit(main(['solve', sys.argv[1], '--method', 'quota-filling']))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


# SHA-256 of `smp solve --method quota-filling --side firms` on
# rand_marriage(Random(s), 4, cap=2, tie_prob=0.3) for s < 40, the outputs
# concatenated in seed order (recorded before that command solved the
# swapped instance).
QUOTA_FILLING_FIRMS_DIGEST = "4665b6081d43cf7442b241015d2d1ad647b266f8115bdedd7b1f0148700b0419"


def test_quota_filling_firms_side_solves_the_swapped_instance(capsys, tmp_path, monkeypatch):
    """The firm side of quota filling is the worker optimum of
    `inst.swapped()`, and the output stays byte-identical.  The command
    makes 2,002 `choose` calls on these instances; it made 2,160 when it
    routed the worker optimum on down to the firm optimum."""
    chosen = []
    real_choose = smp.choice.choose
    monkeypatch.setattr(smp.choice, "choose", lambda inst, v, z: chosen.append(v) or real_choose(inst, v, z))
    solved = []  # the firms of each instance the command solves
    real_solve = smp.cli.solve_quota_filling
    monkeypatch.setattr(smp.cli, "solve_quota_filling", lambda inst: solved.append(inst.firms) or real_solve(inst))
    digest = hashlib.sha256()
    path = tmp_path / "m4.json"
    for seed in range(40):
        inst = rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.3)
        path.write_text(json.dumps(serialize_instance(inst)))
        code, out = run_cli(capsys, "solve", str(path), "--method", "quota-filling", "--side", "firms")
        assert code == 0
        assert solved[-1] == inst.workers
        digest.update(out.encode())
    assert digest.hexdigest() == QUOTA_FILLING_FIRMS_DIGEST
    assert len(solved) == 40 and len(chosen) == 2002


@pytest.mark.parametrize(
    "plant, message",
    [
        # no rotation applicable at the witness state
        ("smp.poset._applicable_rotations = lambda *a, **k: (real(*a, **k)[0], [])",
         "predecessor not applicable at witness state"),
        # the witness state also offers every rotation one shift further on
        ("def early(inst, x, *, cache, known):\n"
         "    act, rots = real(inst, x, cache=cache, known=known)\n"
         "    if known:  # carried past a shift: the state after the predecessor's\n"
         "        return act, rots\n"
         "    shifted = [smp.poset.apply_shift(inst, x, [r], [r.tau], verify=False) for r in rots]\n"
         "    return act, rots + [s for y in shifted for s in real(inst, y, cache=None, known={})[1]]\n"
         "smp.poset._applicable_rotations = early",
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
        "real = smp.poset._applicable_rotations\n"
        f"{plant}\n"
        "sys.exit(main(['poset', sys.argv[1]]))\n"
    )
    proc = _run_optimized(script, str(path))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {"error": message}


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a vertex with an empty head is not pinned
        ("if not ends or ", "if ", r"regular vertex '\w+' with empty head"),
        # a vertex whose head leads to a singular vertex is not reached
        ("into.setdefault(u, []).append(v)", "pass",
         r"head of regular vertex '\w+' leaves the regular set"),
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
        "import inspect, sys\n"
        "import smp.poset, smp.rotations\n"
        "from smp import *\n"
        "if __debug__:\n"
        "    sys.exit('assertions are enabled')\n"
        "inst = parse_instance(open(sys.argv[1]).read())\n"
        "x = solve_xmin_modified(inst)\n"
        "rot = applicable_rotations(inst, x)[1][0]\n"
        "y = apply_shift(inst, x, [rot], [rot.tau], verify=False)\n"
        "report = smp.rotations.stability_report\n"
        "def unstable(inst, x):\n"
        "    return report(inst, x)._replace(stable=False)\n"
        "reports = []\n"
        "def unstable_output(inst, z):\n"
        "    # the first two reports are of the inputs x and y\n"
        "    reports.append(z)\n"
        "    return report(inst, z) if len(reports) <= 2 else unstable(inst, z)\n"
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


# SHA-256 of `smp solve --trace` on aggregating rand_marriage(Random(seed), n,
# cap=cap, tie_prob=tie_prob) instances, each case given as (seed, n, cap,
# tie_prob); the trace prints each aggregated point, so these pin the optimal
# vertex the aggregation LP returns.  The two six-worker cases also pin a
# stall decision: a round whose only progress is a worker that becomes fully
# filled.  Judged stalled, it would add an aggregation step to each trace.
SOLVE_TRACE_CASES = {
    "0": (0, 4, 2, 0.5),
    "4": (4, 4, 2, 0.5),
    "25": (25, 4, 2, 0.5),
    "n6_48": (48, 6, 3, 0.3),
    "n6_128": (128, 6, 3, 0.3),
}
SOLVE_TRACE_DIGESTS = {
    "0": "dcd05adc48521b87fd9ddf1e4242932e9990841b546d52eddad8b3351c07c346",
    "4": "00389c3dbbbcee28304208eba359990c6420a4354503c70eca24dc6fd5d47ec7",
    "25": "45e41bd6c9f7fcc8788d0a1e220047e1da0217c9fc404c6faac9a539fe8018c6",
    "n6_48": "48e44dd4748a3239b82e376e8d0bbef5f368c913fa3d79b775b49383bf6358f7",
    "n6_128": "a224f1986fb0c7fad7033032c464a10bbec27a98e641041ec5217b13962e1bfe",
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


@pytest.mark.parametrize("name", sorted(SOLVE_TRACE_DIGESTS))
def test_solve_trace_output_is_pinned(capsys, tmp_path, name):
    seed, n, cap, tie_prob = SOLVE_TRACE_CASES[name]
    path = tmp_path / "tied.json"
    inst = rand_marriage(random.Random(seed), n, cap=cap, tie_prob=tie_prob)
    path.write_text(json.dumps(serialize_instance(inst)))
    code, out = run_cli(capsys, "solve", str(path), "--trace")
    assert code == 0
    assert any(step["kind"] == "aggregated" for step in json.loads(out)["trace"])
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_TRACE_DIGESTS[name]


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
        poset = build_poset(inst)
        zeta = rotation_weights(poset, costs)
        assert len(poset.hasse) >= 2
        assert min(zeta) < 0 < max(zeta)
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_DIGESTS[name, command]


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


@pytest.mark.parametrize("vertex", [[], {}, 0, None], ids=["list", "object", "int", "null"])
def test_non_string_vertex_id_is_a_domain_error(capsys, tmp_path, vertex):
    # a list or object id used to raise TypeError while the vertex sets were
    # built, and an int id was reported as an unknown firm of its edges
    doc = serialize_instance(triangle_instance(F(8), F(15)))
    doc["firms"][0] = vertex
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert json.loads(out) == {"error": f"vertex id must be a string: {vertex!r}"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", None, "edge id must be a string: None"),
        ("id", 5, "edge id must be a string: 5"),
        ("firm", 0, "edge 'f1w1': firm id must be a string: 0"),
        ("worker", ["w1"], "edge 'f1w1': worker id must be a string: ['w1']"),
        ("tie", 3, "vertex 'w1': edge id must be a string: 3"),
        ("tie", ["f1w1"], "vertex 'w1': edge id must be a string: ['f1w1']"),
    ],
    ids=["null-id", "int-id", "int-firm", "list-worker", "int-entry", "list-entry"],
)
def test_non_string_edge_id_is_a_domain_error(capsys, tmp_path, field, value, message):
    # `{"id": null}` with `[[null]]` in the preferences used to solve and
    # print an edge named "None", and the id 5 one named "5"
    doc = serialize_instance(triangle_instance(F(8), F(15)))
    record = doc["edges"][0]
    if field == "tie":
        doc["preferences"]["w1"][0] = [value]
    else:
        if field == "id":  # renamed where the preferences list it too
            for ties in doc["preferences"].values():
                for tie in ties:
                    tie[:] = [value if eid == record["id"] else eid for eid in tie]
        record[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("text", ['{"f1w1": 1,', "", "[1, 2"], ids=["object", "empty", "list"])
def test_malformed_costs_json_is_reported_as_malformed_json(capsys, tmp_path, triangle_file, text):
    # the instance and the assignment already said "malformed JSON: ..."; the
    # costs file printed the decoder's bare message
    cost_file = tmp_path / "costs.json"
    cost_file.write_text(text)
    code, out = run_cli(capsys, "mincost", triangle_file, "--costs", str(cost_file))
    assert code == 1
    doc = json.loads(out)
    assert list(doc) == ["error"] and doc["error"].startswith("malformed JSON: "), doc


# Mutations of valid documents, one or two per document.  Structural ones
# replace a value by a JSON atom, delete a key or item, or duplicate an item;
# the others keep an instance or costs document valid, so the solvers run.
FUZZ_ATOMS = [None, True, False, 0, 1, -1, 2, 1.5, "", "x", "0", "-1", "1/2", "1/0", "f0", [], {}]


def _fuzz_documents():
    docs = []
    for seed in range(3):
        inst = rand_marriage(random.Random(seed), 3, cap=2, tie_prob=0.3)
        docs.append({
            "instance": serialize_instance(inst),
            "assignment": serialize_assignment(solve_xmin_modified(inst)),
            "costs": {e: (i * 7) % 5 - 2 for i, e in enumerate(inst.edge_ids)},
        })
    return docs


FUZZ_DOCUMENTS = _fuzz_documents()


def _keep_valid(draw, kind, doc):
    """Change `doc` so that it stays valid: a capacity, quota or cost replaced
    by another positive rational, integral or not, two adjacent ties of a
    vertex merged, or a tie split in two."""
    rational = f"{draw(st.integers(1, 12))}/{draw(st.integers(1, 4))}"
    if kind == "costs":
        doc[draw(st.sampled_from(sorted(doc)))] = rational
        return
    op = draw(st.sampled_from(["capacity", "quota", "merge", "split"]))
    if op == "capacity":
        draw(st.sampled_from(doc["edges"]))["capacity"] = rational
    elif op == "quota":
        doc["quotas"][draw(st.sampled_from(sorted(doc["quotas"])))] = rational
    else:
        ties = doc["preferences"][draw(st.sampled_from(sorted(doc["preferences"])))]
        if op == "merge" and len(ties) > 1:
            i = draw(st.integers(0, len(ties) - 2))
            ties[i:i + 2] = [ties[i] + ties[i + 1]]
        wide = [i for i, tie in enumerate(ties) if len(tie) > 1]
        if op == "split" and wide:
            i = draw(st.sampled_from(wide))
            cut = draw(st.integers(1, len(ties[i]) - 1))
            ties[i:i + 1] = [ties[i][:cut], ties[i][cut:]]


@st.composite
def mutated_documents(draw):
    docs = FUZZ_DOCUMENTS[draw(st.integers(0, len(FUZZ_DOCUMENTS) - 1))]
    kind = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[kind])
    if kind != "assignment" and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            _keep_valid(draw, kind, doc)
        return kind, {**docs, kind: doc}
    for _ in range(draw(st.integers(1, 2))):
        # walk down from the root to the value to mutate, so that each field
        # of a document is as likely a target as any other
        parent = doc
        while parent:
            key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child) or draw(st.booleans()):
                break
            parent = child
        else:  # the first mutation emptied the document
            break
        ops = ["replace", "delete"] + (["duplicate"] if isinstance(parent, list) else [])
        op = draw(st.sampled_from(ops))
        if op == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_ATOMS)))
        elif op == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return kind, {**docs, kind: doc}


FUZZ_COMMANDS = {
    "instance": [
        ["check", "{instance}", "{assignment}"],
        ["solve", "{instance}"],
        ["solve", "{instance}", "--side", "workers"],
        ["solve", "{instance}", "--method", "quota-filling"],
        ["rotations", "{instance}"],
        ["poset", "{instance}"],
        ["mincost", "{instance}", "--costs", "{costs}"],
        ["enumerate", "{instance}"],
        ["verify", "{instance}"],
    ],
    "assignment": [
        ["check", "{instance}", "{assignment}"],
        ["rotations", "{instance}", "--at", "{assignment}"],
    ],
    "costs": [["mincost", "{instance}", "--costs", "{costs}"]],
}


def test_mutated_documents_never_raise():
    # every malformed document reaches the user as a JSON body with a
    # defined exit code, never as a traceback; a mutated instance that still
    # parses takes every solver command with it
    parsed = []  # the mutated instances that parse

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutated_documents())
    def run(case):
        kind, docs = case
        valid = True
        if kind == "instance":
            try:
                parse_instance(json.dumps(docs["instance"]))
                parsed.append(docs["instance"])
            except InstanceError:
                valid = False
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for name, doc in docs.items():
                files[name] = str(Path(tmp) / f"{name}.json")
                Path(files[name]).write_text(json.dumps(doc))
            for command in FUZZ_COMMANDS[kind]:
                argv = [arg.format(**files) for arg in command]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                body = json.loads(out.getvalue())
                assert code in (0, 1, 3, 4), argv
                # on an instance that parses, a solver reaches its answer
                assert code in (0, 1) or not valid, (argv, body)
                if code and command[0] != "verify":
                    assert list(body) == ["error"], argv

    run()
    # a floor: 114 of the 400 examples parse on CPython 3.11, and none did
    # before the mutations that keep a document valid
    assert len(parsed) >= 40, len(parsed)
