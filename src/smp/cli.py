"""Command-line interface.

Exit codes: 0 success, 1 domain error (reported as a JSON body on stdout),
2 usage error, 3 solver round cap reached, 4 a checked solver invariant
failed (JSON body as for 1 in both).  All output is deterministic JSON (or
DOT with --dot).  The checks of `smp verify` also run under `python -O`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .iteration import solve_quota_filling, solve_xmax, solve_xmin_modified
from .mincost import min_cost_stable
from .model import (
    Instance,
    InstanceError,
    InvariantError,
    SolverLimitError,
    format_rational,
    parse_assignment,
    parse_costs,
    parse_instance,
    serialize_assignment,
    serialize_instance,
)
from .poset import build_poset, grid_sublattice, enumerate_fully_closed, gamma, omega
from .rotations import applicable_rotations, endpoints, run_route
from .stability import stability_report


def _read(path: str) -> str:
    """The text of the file at `path`.  An empty path names no file; `Path`
    would read it as the current directory."""
    if not path:
        raise InstanceError("empty file path")
    return Path(path).read_text()


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _emit(doc) -> None:
    # one write: `json.dump` writes once per chunk of the encoder's output
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _rotation_doc(inst: Instance, rot) -> dict:
    return {
        "component": endpoints(inst, rot.values),
        "values": {e: format_rational(v) for e, v in sorted(rot.values.items())},
        "tau": format_rational(rot.tau),
    }


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    x = parse_assignment(_read(args.assignment), inst)
    report = stability_report(inst, x)
    _emit(
        {
            "stable": report.stable,
            "blocking_edges": report.blocking_edges,
            "fully_filled": sorted(report.fully_filled),
            "deficit": sorted(set(inst.vertices()) - report.fully_filled),
        }
    )
    return 0


def _cmd_solve(args) -> int:
    if args.trace and args.method == "quota-filling":
        _PARSER.error("--trace lists proposal rounds, which --method quota-filling does not run")
    inst = _load_instance(args.instance)
    trace: list = [] if args.trace else None
    if args.method == "quota-filling":
        # the firm optimum is the worker optimum of the swapped instance
        x = solve_quota_filling(inst if args.side == "workers" else inst.swapped())
        if x is None:
            _emit({"quota_filling": False})
            return 0
    elif args.side == "workers":
        x = solve_xmax(inst, trace=trace)
    else:
        x = solve_xmin_modified(inst, trace=trace)
    doc = serialize_assignment(x)
    if args.trace:
        doc["trace"] = [
            {"kind": kind, "round": rnd, "values": {e: format_rational(v) for e, v in sorted(y.items())}}
            for kind, rnd, y in trace
        ]
    _emit(doc)
    return 0


def _cmd_rotations(args) -> int:
    inst = _load_instance(args.instance)
    if args.at is not None:
        x = parse_assignment(_read(args.at), inst)
    else:
        x = solve_xmin_modified(inst)
    act, rots = applicable_rotations(inst, x)
    if args.dot:
        lines = ["digraph active {"]
        for v in sorted(act.regular):
            lines.append(f'  "{v}";')
        # firms first, then workers
        for v in sorted(act.regular, key=lambda v: (v in inst.worker_set, v)):
            for e in sorted(act.heads[v]):
                lines.append(f'  "{v}" -> "{inst.edge_by_id[e].other(v)}" [label="{e}"];')
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit([_rotation_doc(inst, r) for r in rots])
    return 0


def _cmd_poset(args) -> int:
    inst = _load_instance(args.instance)
    poset = build_poset(inst)
    if args.dot:
        lines = ["digraph poset {"]
        for i, rot in enumerate(poset.rotations):
            lines.append(f'  r{i} [label="r{i} (tau={format_rational(rot.tau)})"];')
        for (a, b) in poset.hasse:
            lines.append(f"  r{a} -> r{b};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit(
        {
            "rotations": [_rotation_doc(inst, r) for r in poset.rotations],
            "tau": {str(i): format_rational(rot.tau) for i, rot in enumerate(poset.rotations)},
            "hasse_edges": [[a, b] for (a, b) in poset.hasse],
        }
    )
    return 0


def _cmd_mincost(args) -> int:
    inst = _load_instance(args.instance)
    costs = None
    if args.costs is not None:
        costs = parse_costs(_read(args.costs))
    res = min_cost_stable(inst, costs)
    _emit(
        {
            "assignment": serialize_assignment(res.assignment)["values"],
            "cost": format_rational(res.cost),
            "ideal": sorted(res.ideal),
        }
    )
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    poset = build_poset(inst)
    if args.grid is not None:
        assignments = grid_sublattice(inst, poset, args.grid)
    else:
        assignments = [
            gamma(inst, poset, lam) for lam in enumerate_fully_closed(poset)
        ]
    _emit([serialize_assignment(x)["values"] for x in assignments])
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    ledger: dict[str, str] = {}

    def run(name, fn):
        try:
            fn()
            ledger[name] = "pass"
        except Exception as exc:  # noqa: BLE001 - ledger reports, not raises
            ledger[name] = f"fail: {exc}"

    state = {}
    cache: dict = {}  # one state cache for every route and check of this call

    def roundtrip():
        if parse_instance(serialize_instance(inst)).edge_ids != inst.edge_ids:
            raise InvariantError("serialized instance parses to other edges")

    def solve():
        state["xmin"] = solve_xmin_modified(inst)
        if not stability_report(inst, state["xmin"]).stable:
            raise InvariantError("x_min is not stable")

    def route():
        # run_route raises InvariantError past 2·|E| shifts
        run_route(inst, state["xmin"], cache=cache)

    def poset_checks():
        state["poset"] = build_poset(inst, state["xmin"], cache)

    def bijection():
        poset = state["poset"]
        for lam in enumerate_fully_closed(poset):
            x = gamma(inst, poset, lam, cache=cache)
            if omega(inst, poset, x, cache) != lam:
                ideal = sorted(i for i, w in lam.items() if w)
                raise InvariantError(f"omega does not invert gamma on the ideal {ideal}")

    run("parse_roundtrip", roundtrip)
    run("solve_stable", solve)
    if "xmin" in state:
        run("route_bound", route)
        run("poset_consistency", poset_checks)
    if "poset" in state:
        run("closed_function_bijection", bijection)
    _emit(ledger)
    return 0 if all(v == "pass" for v in ledger.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smp", description="Stable assignments on capacitated bipartite graphs"
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="stability of an assignment")
    c.add_argument("instance")
    c.add_argument("assignment")
    c.set_defaults(fn=_cmd_check)

    s = sub.add_parser("solve", help="side-optimal stable assignment")
    s.add_argument("instance")
    s.add_argument("--side", choices=["firms", "workers"], default="firms")
    s.add_argument("--method", choices=["modified", "quota-filling"], default="modified")
    s.add_argument("--trace", action="store_true")
    s.set_defaults(fn=_cmd_solve)

    r = sub.add_parser("rotations", help="applicable rotations at an assignment")
    r.add_argument("instance")
    r.add_argument("--at")
    r.add_argument("--dot", action="store_true")
    r.set_defaults(fn=_cmd_rotations)

    o = sub.add_parser("poset", help="rotation poset")
    o.add_argument("instance")
    o.add_argument("--dot", action="store_true")
    o.set_defaults(fn=_cmd_poset)

    m = sub.add_parser("mincost", help="minimum-cost stable assignment")
    m.add_argument("instance")
    m.add_argument("--costs")
    m.set_defaults(fn=_cmd_mincost)

    e = sub.add_parser("enumerate", help="enumerate stable assignments")
    e.add_argument("instance")
    e.add_argument("--grid", type=int)
    e.set_defaults(fn=_cmd_enumerate)

    v = sub.add_parser("verify", help="run the invariant suite on an instance")
    v.add_argument("instance")
    v.set_defaults(fn=_cmd_verify)
    return p


# The parser is static configuration and `parse_args` keeps no state between
# calls, so one parser serves every `main` call in the process.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    # OSError: a path that is missing, a directory or unreadable
    except (InstanceError, OSError, ValueError) as exc:
        _emit({"error": str(exc)})
        return 1
    except SolverLimitError as exc:
        _emit({"error": str(exc)})
        return 3
    except InvariantError as exc:
        _emit({"error": str(exc)})
        return 4


if __name__ == "__main__":
    sys.exit(main())
