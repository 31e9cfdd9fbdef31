"""Problem instance data model, validation and the on-disk JSON format.

An instance is a bipartite graph between firms and workers.  Every edge has a
finite positive rational capacity, every vertex a rational quota and an
ordered partition of its incident edges into indifference classes ("ties"),
best tie first.  All numeric data are `fractions.Fraction`; nothing in the
core ever touches a float.

The three JSON documents (an instance, an assignment, a costs file) are
decoded by one loader and read in one pass each: every number becomes a
`Fraction` once, shared by the equal literals of its document, and every id
is kept as the string the document holds.  `Instance` is the one validator;
`parse_instance` checks only the JSON shapes it must walk to build its
arguments.
"""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union


class InstanceError(ValueError):
    """Raised for malformed instances, assignments or rationals."""


class SolverLimitError(RuntimeError):
    """Raised when a solver reaches its round cap without finishing."""


class InvariantError(RuntimeError):
    """Raised when a checked invariant of the algorithm does not hold."""


RationalLike = Union[int, str, Fraction]

ZERO = Fraction(0)


# ASCII digits only: `\d` and `int()` would also take any Unicode digit
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _exact(value) -> Optional[Fraction]:
    """`value` as a `Fraction` if it is an `int` (never a `bool`) or a
    `Fraction`, else None."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    return None


def _from_text(text: str) -> Fraction:
    # 'p' or 'p/q' only: the exact format has no decimals like '1.5'
    match = _RATIONAL.fullmatch(text)
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, or past the digit limit
            raise InstanceError(f"not a rational: {text!r}") from exc
    raise InstanceError(f"not a rational: {text!r}")


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from a bare int or a 'p/q' / 'p' string."""
    if isinstance(value, str):
        return _from_text(value)
    if (exact := _exact(value)) is not None:  # no floats: the format is exact
        return exact
    raise InstanceError(f"not a rational: {value!r}")


def _rational(value, numbers: dict) -> Fraction:
    """`parse_rational(value)`, made once per distinct int or string literal
    of a document: `numbers` maps each literal read so far to its Fraction."""
    kind = type(value)
    if kind is int or kind is str:  # exact types: a bool must not hit the key 1
        exact = numbers.get(value)
        if exact is None:
            exact = numbers[value] = Fraction(value) if kind is int else _from_text(value)
        return exact
    return parse_rational(value)


def _decode(data):
    """`data` decoded if it is JSON text or bytes, else `data` itself."""
    if isinstance(data, (bytes, str)):
        try:
            return json.loads(data)
        # a JSONDecodeError, bytes that are not UTF-8, or an integer literal
        # past `sys.get_int_max_str_digits()`: all ValueErrors
        except ValueError as exc:
            raise InstanceError(f"malformed JSON: {exc}") from exc
    return data


def format_rational(value: Fraction) -> Union[int, str]:
    """Serialize exactly: bare integer when possible, else 'p/q'."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class Edge(NamedTuple):
    id: str
    firm: str
    worker: str
    capacity: Fraction  # finite and positive (`Instance` checks)

    def other(self, vertex: str) -> str:
        return self.worker if vertex == self.firm else self.firm


def _checked_costs(edge_by_id: Mapping[str, Edge], costs: Mapping) -> dict[str, Fraction]:
    """`costs` with every value a `Fraction`, after two checks in this order:
    every id names an edge of `edge_by_id`, then every value is an `int`
    (never a `bool`) or a `Fraction`.  `Instance` and `min_cost_stable`
    share it; a missing cost is left to the caller."""
    unknown = set(costs) - edge_by_id.keys()
    if unknown:
        raise InstanceError(f"costs given for unknown edges: {sorted(unknown)}")
    checked = {eid: _exact(c) for eid, c in costs.items()}
    for eid, c in checked.items():
        if c is None:
            raise InstanceError(f"edge {eid!r}: cost must be an int or a Fraction")
    return checked


class Instance:
    """Immutable problem instance, checked in one pass that builds each table
    once.  A capacity, quota or cost may be given as an `int` (never a
    `bool`) or a `Fraction`; it is stored as a `Fraction`.

    Attributes:
        firms, workers: vertex ids in input order.
        edges: Edge tuples in input order.
        quota: vertex id -> Fraction > 0.
        corteges: vertex id -> tuple of ties; each tie is a tuple of edge ids
            (sorted lexicographically inside the tie), best tie first.
        costs: optional edge id -> Fraction.
    """

    def __init__(
        self,
        firms: Sequence[str],
        workers: Sequence[str],
        edges: Sequence[Edge],
        quota: Mapping[str, Fraction],
        corteges: Mapping[str, Sequence[Sequence[str]]],
        costs: Optional[Mapping[str, Fraction]] = None,
    ):
        self.firms = tuple(firms)
        self.workers = tuple(workers)
        # before any set is built: a JSON list or object id is unhashable
        for v in self.firms + self.workers:
            if not isinstance(v, str):
                raise InstanceError(f"vertex id must be a string: {v!r}")
        firm_set = self.firm_set = frozenset(self.firms)
        worker_set = self.worker_set = frozenset(self.workers)
        if len(firm_set) != len(self.firms) or len(worker_set) != len(self.workers):
            raise InstanceError("duplicate vertex id within a part")
        if firm_set & worker_set:
            raise InstanceError(f"vertex ids shared across parts: {sorted(firm_set & worker_set)}")
        vertices = self.vertices()
        incident: dict[str, list[str]] = {v: [] for v in vertices}
        edge_by_id: dict[str, Edge] = {}
        pairs: set[tuple[str, str]] = set()
        for e in edges:
            eid, firm, worker, cap = e
            if not isinstance(eid, str):
                raise InstanceError(f"edge id must be a string: {eid!r}")
            if eid in edge_by_id:
                raise InstanceError(f"duplicate edge id {eid!r}")
            if not isinstance(firm, str):
                raise InstanceError(f"edge {eid!r}: firm id must be a string: {firm!r}")
            if firm not in firm_set:
                raise InstanceError(f"edge {eid!r}: unknown firm {firm!r}")
            if not isinstance(worker, str):
                raise InstanceError(f"edge {eid!r}: worker id must be a string: {worker!r}")
            if worker not in worker_set:
                raise InstanceError(f"edge {eid!r}: unknown worker {worker!r}")
            pair = (firm, worker)
            if pair in pairs:
                raise InstanceError(f"parallel edges between {firm!r} and {worker!r} are forbidden")
            pairs.add(pair)
            # every capacity is finite: the rounds start from the capacities,
            # and the saturation tests and τ compare against them
            if type(cap) is not Fraction:
                cap = _exact(cap)
                if cap is None:
                    raise InstanceError(f"edge {eid!r}: capacity must be a finite rational")
                e = Edge(eid, firm, worker, cap)
            if cap.numerator <= 0:
                raise InstanceError(f"edge {eid!r}: capacity must be positive")
            edge_by_id[eid] = e
            incident[firm].append(eid)
            incident[worker].append(eid)
        self.edge_by_id = edge_by_id
        self.edges = tuple(edge_by_id.values())
        self.edge_ids = tuple(sorted(edge_by_id))  # canonical order
        self.incident = {v: tuple(sorted(ids)) for v, ids in incident.items()}
        self.quota: dict[str, Fraction] = {}
        for v in vertices:
            q = quota.get(v)
            if q is None:
                raise InstanceError(f"missing quota for vertex {v!r}")
            if type(q) is not Fraction:
                q = _exact(q)
                if q is None:
                    raise InstanceError(f"vertex {v!r}: quota must be an int or a Fraction")
            if q.numerator <= 0:
                raise InstanceError(f"vertex {v!r}: quota must be positive")
            self.quota[v] = q
        if len(quota) > len(self.quota):
            extra = sorted(set(quota) - set(vertices))
            raise InstanceError(f"quota given for unknown vertices: {extra}")
        # the cortege of each vertex must partition its incident edges exactly
        self.corteges: dict[str, tuple[tuple[str, ...], ...]] = {}
        tie_index = self.tie_index = {}  # (endpoint, edge id) -> tie number
        for v in vertices:
            ties = corteges.get(v)
            if ties is None:
                raise InstanceError(f"missing preferences for vertex {v!r}")
            ranked = []
            listed = []
            for i, tie in enumerate(ties):
                for eid in tie:
                    # before the sort: mixed types do not compare
                    if not isinstance(eid, str):
                        raise InstanceError(f"vertex {v!r}: edge id must be a string: {eid!r}")
                    tie_index[v, eid] = i
                if not tie:
                    raise InstanceError(f"vertex {v!r}: empty tie")
                tie = tuple(sorted(tie))
                ranked.append(tie)
                listed += tie
            # as many ids as incident edges, and the same set: each listed once
            if len(listed) != len(self.incident[v]) or set(listed) != set(self.incident[v]):
                raise InstanceError(
                    f"vertex {v!r}: tie partition mismatch (ties must partition the incident edges)"
                )
            self.corteges[v] = tuple(ranked)
        if len(corteges) > len(self.corteges):
            extra = sorted(set(corteges) - set(vertices))
            raise InstanceError(f"preferences given for unknown vertices: {extra}")
        self.costs = None if costs is None else _checked_costs(edge_by_id, costs)

    def vertices(self) -> tuple[str, ...]:
        return self.firms + self.workers

    def swapped(self) -> "Instance":
        """The same instance with the two sides exchanged.

        Edge ids, capacities, quotas and corteges are untouched; only the
        firm/worker roles flip.  Used to run the rotation machinery "in
        reverse" (toward the firm-optimal end).  Every validated table that
        does not name a side (quotas, ties, costs, incidence, tie indices,
        the canonical edge order) is shared, so nothing is validated again.
        """
        other = copy.copy(self)
        other.firms, other.workers = self.workers, self.firms
        other.firm_set, other.worker_set = self.worker_set, self.firm_set
        other.edges = tuple(Edge(e.id, e.worker, e.firm, e.capacity) for e in self.edges)
        other.edge_by_id = {e.id: e for e in other.edges}
        return other


def parse_instance(data) -> Instance:
    """Build a validated Instance from JSON text/bytes or a decoded dict."""
    data = _decode(data)
    if not isinstance(data, dict):
        raise InstanceError("instance document must be a JSON object")
    # the required fields in lookup order: a missing one is reported before
    # any wrong shape
    shapes = {
        "firms": (list, "a list of vertex ids"),
        "workers": (list, "a list of vertex ids"),
        "edges": (list, "a list of edge records"),
        "quotas": (dict, "an object mapping vertex ids to rationals"),
        "preferences": (dict, "an object mapping vertex ids to lists of ties"),
    }
    try:
        firms, workers, raw_edges, raw_quotas, prefs = (data[key] for key in shapes)
    except KeyError as exc:
        raise InstanceError(f"missing or malformed field: {exc}") from exc
    for key, (kind, what) in shapes.items():
        if not isinstance(data[key], kind):
            raise InstanceError(f'"{key}" must be {what}')
    numbers: dict = {}
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise InstanceError(f"malformed edge record {item!r}: must be an object")
        try:
            edges.append(
                Edge(item["id"], item["firm"], item["worker"], _rational(item["capacity"], numbers))
            )
        except KeyError as exc:
            raise InstanceError(f"malformed edge record {item!r}: missing field {exc}") from exc
    quota = {v: _rational(q, numbers) for v, q in raw_quotas.items()}
    # `Instance` reads the ties as they are; only their containers are checked here
    for v, ties in prefs.items():
        if isinstance(ties, list):
            for tie in ties:
                if not isinstance(tie, list):
                    break
            else:
                continue
        raise InstanceError(f"preferences of {v!r} must be a list of ties")
    costs = data.get("costs")
    if costs is not None:
        if not isinstance(costs, dict):
            raise InstanceError('"costs" must be an object mapping edge ids to rationals')
        costs = {eid: _rational(c, numbers) for eid, c in costs.items()}
    return Instance(firms, workers, edges, quota, prefs, costs)


def serialize_instance(inst: Instance) -> dict:
    doc = {
        "firms": list(inst.firms),
        "workers": list(inst.workers),
        "edges": [
            {
                "id": e.id,
                "firm": e.firm,
                "worker": e.worker,
                "capacity": format_rational(e.capacity),
            }
            for e in inst.edges
        ],
        "quotas": {v: format_rational(q) for v, q in sorted(inst.quota.items())},
        "preferences": {
            v: [list(tie) for tie in ties] for v, ties in sorted(inst.corteges.items())
        },
    }
    if inst.costs is not None:
        doc["costs"] = {e: format_rational(c) for e, c in sorted(inst.costs.items())}
    return doc


# An assignment is a plain dict: edge id -> Fraction.  It is normalised where
# a caller hands it in: the entry functions (`parse_assignment`,
# `validate_assignment`, `stability_report`, `compare_stable`, `run_route`,
# `build_poset`, `omega`, the worker-side join and meet) read a missing key as
# 0 and an int as its Fraction.  The per-state functions of the rotation layer
# take a full assignment, one Fraction per edge, as `full_assignment` makes.

def parse_assignment(data, inst: Instance) -> dict[str, Fraction]:
    data = _decode(data)
    if not isinstance(data, dict) or "values" not in data:
        raise InstanceError('assignment document must be {"values": {...}}')
    if not isinstance(data["values"], dict):
        raise InstanceError('"values" must be an object mapping edge ids to rationals')
    numbers: dict = {}
    values = {}
    for eid, val in data["values"].items():
        if eid not in inst.edge_by_id:
            raise InstanceError(f"unknown edge id {eid!r} in assignment")
        values[eid] = _rational(val, numbers)
    return full_assignment(inst, values)


def parse_costs(data) -> dict[str, Fraction]:
    """The edge costs of a costs document, `{"edge-id": rational, ...}`, from
    JSON text/bytes or a decoded dict.  `min_cost_stable` checks the ids."""
    data = _decode(data)
    if not isinstance(data, dict):
        raise InstanceError("costs document must be a JSON object")
    numbers: dict = {}
    return {eid: _rational(c, numbers) for eid, c in data.items()}


def serialize_assignment(x: Mapping[str, Fraction]) -> dict:
    return {"values": {e: format_rational(v) for e, v in sorted(x.items())}}


def full_assignment(inst: Instance, x: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Normalize to a dict with a value for every edge (absent ids -> 0).

    `Fraction` values pass through; any other value is converted.
    """
    out = {}
    for eid in inst.edge_ids:
        val = x.get(eid, ZERO)
        out[eid] = val if type(val) is Fraction else Fraction(val)
    return out


def vertex_load(inst: Instance, x: Mapping[str, Fraction], v: str) -> Fraction:
    return sum((x.get(e, ZERO) for e in inst.incident[v]), ZERO)


def validate_assignment(inst: Instance, x: Mapping[str, Fraction]) -> list[str]:
    """The box and quota violations of x, empty when x is admissible.

    Unknown edge ids are an error.
    """
    unknown = set(x) - set(inst.edge_ids)
    if unknown:
        raise InstanceError(f"unknown edge ids in assignment: {sorted(unknown)}")
    violations = []
    for e in inst.edges:
        val = x.get(e.id, ZERO)
        if val < 0:
            violations.append(f"edge {e.id}: negative value {val}")
        elif val > e.capacity:
            violations.append(f"edge {e.id}: value {val} exceeds capacity {e.capacity}")
    for v in inst.vertices():
        load = vertex_load(inst, x, v)
        if load > inst.quota[v]:
            violations.append(f"vertex {v}: load {load} exceeds quota {inst.quota[v]}")
    return violations
