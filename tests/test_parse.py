"""The one-pass document parse against the two-pass parse it replaced.

The `reference_*` functions and `ReferenceInstance` below keep the bodies of
`parse_rational`, `parse_instance`, `Instance.__init__` and
`parse_assignment`, and the costs-file read of `smp mincost`, as they were
before the parse read each document in one pass: every number went through
`parse_rational` and again through `_exact` in `Instance`, and every id
through `str()`.  The tables the two build must be equal, with a `Fraction`
for every number; an error must carry the same text.

Three changes are on purpose, and the tests named here pin them:
- an edge id, an edge's firm or worker, or a preference entry that is not a
  string used to be retyped by `str()` (`None` became the id "None"); it is
  now a domain error (`_retypes_an_id` below;
  `test_cli.py::test_non_string_edge_id_is_a_domain_error`,
  `test_model.py::test_validation_rejects_non_string_edge_ids`);
- a rational written in non-ASCII digits ("١٥") used to parse; it is now
  "not a rational" (`test_model.py::test_parse_rational_rejects_inexact_and_garbage`);
- every JSON document is decoded by one loader: a malformed costs file used
  to report the bare decoder message, and an integer literal past the
  interpreter's digit limit a plain `ValueError`; both are now an
  `InstanceError` that starts "malformed JSON"
  (`test_cli.py::test_malformed_costs_json_is_reported_as_malformed_json`,
  `test_model.py::test_integer_literal_past_the_digit_limit_is_malformed_json`).
  The fuzz documents below are valid JSON, so neither case arises there.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from smp import (
    Edge,
    InstanceError,
    full_assignment,
    parse_assignment,
    parse_instance,
    serialize_assignment,
    serialize_instance,
    solve_xmin_modified,
)
from smp.model import parse_costs

from gen import chained_instance, rand_marriage, random_instance
from test_cli import mutated_documents

F = Fraction

# --- the reference parse ----------------------------------------------------

_REFERENCE_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def reference_exact(value):
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    return None


def reference_parse_rational(value):
    if isinstance(value, str):
        text = value.strip()
        if _REFERENCE_RATIONAL.fullmatch(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise InstanceError(f"not a rational: {value!r}") from exc
    elif (exact := reference_exact(value)) is not None:
        return exact
    raise InstanceError(f"not a rational: {value!r}")


class ReferenceInstance:
    def __init__(self, firms, workers, edges, quota, corteges, costs=None):
        self.firms = tuple(firms)
        self.workers = tuple(workers)
        for v in self.firms + self.workers:
            if not isinstance(v, str):
                raise InstanceError(f"vertex id must be a string: {v!r}")
        self.firm_set = frozenset(self.firms)
        self.worker_set = frozenset(self.workers)
        if len(self.firm_set) != len(self.firms) or len(self.worker_set) != len(self.workers):
            raise InstanceError("duplicate vertex id within a part")
        if self.firm_set & self.worker_set:
            raise InstanceError(
                f"vertex ids shared across parts: {sorted(self.firm_set & self.worker_set)}"
            )
        vertices = self.firms + self.workers
        incident = {v: [] for v in vertices}
        self.edge_by_id = {}
        pairs = set()
        for e in edges:
            if e.id in self.edge_by_id:
                raise InstanceError(f"duplicate edge id {e.id!r}")
            if e.firm not in self.firm_set:
                raise InstanceError(f"edge {e.id!r}: unknown firm {e.firm!r}")
            if e.worker not in self.worker_set:
                raise InstanceError(f"edge {e.id!r}: unknown worker {e.worker!r}")
            if (e.firm, e.worker) in pairs:
                raise InstanceError(
                    f"parallel edges between {e.firm!r} and {e.worker!r} are forbidden"
                )
            pairs.add((e.firm, e.worker))
            cap = reference_exact(e.capacity)
            if cap is None:
                raise InstanceError(f"edge {e.id!r}: capacity must be a finite rational")
            if cap.numerator <= 0:
                raise InstanceError(f"edge {e.id!r}: capacity must be positive")
            if cap is not e.capacity:
                e = Edge(e.id, e.firm, e.worker, cap)
            self.edge_by_id[e.id] = e
            incident[e.firm].append(e.id)
            incident[e.worker].append(e.id)
        self.edges = tuple(self.edge_by_id.values())
        self.edge_ids = tuple(sorted(self.edge_by_id))
        self.incident = {v: tuple(sorted(ids)) for v, ids in incident.items()}
        self.quota = {}
        for v in vertices:
            q = quota.get(v)
            if q is None:
                raise InstanceError(f"missing quota for vertex {v!r}")
            exact = reference_exact(q)
            if exact is None:
                raise InstanceError(f"vertex {v!r}: quota must be an int or a Fraction")
            if exact.numerator <= 0:
                raise InstanceError(f"vertex {v!r}: quota must be positive")
            self.quota[v] = exact
        if len(quota) > len(self.quota):
            extra = sorted(set(quota) - set(vertices))
            raise InstanceError(f"quota given for unknown vertices: {extra}")
        self.corteges = {}
        self.tie_index = {}
        for v in vertices:
            ties = corteges.get(v)
            if ties is None:
                raise InstanceError(f"missing preferences for vertex {v!r}")
            ties = tuple(tuple(sorted(tie)) for tie in ties)
            if not all(ties):
                raise InstanceError(f"vertex {v!r}: empty tie")
            listed = [eid for tie in ties for eid in tie]
            if len(listed) != len(self.incident[v]) or set(listed) != set(self.incident[v]):
                raise InstanceError(
                    f"vertex {v!r}: tie partition mismatch (ties must partition the incident edges)"
                )
            self.corteges[v] = ties
            self.tie_index.update(((v, eid), i) for i, tie in enumerate(ties) for eid in tie)
        if len(corteges) > len(self.corteges):
            extra = sorted(set(corteges) - set(vertices))
            raise InstanceError(f"preferences given for unknown vertices: {extra}")
        self.costs = None
        if costs is not None:
            unknown = set(costs) - self.edge_by_id.keys()
            if unknown:
                raise InstanceError(f"costs given for unknown edges: {sorted(unknown)}")
            self.costs = {}
            for eid, c in costs.items():
                exact = reference_exact(c)
                if exact is None:
                    raise InstanceError(f"edge {eid!r}: cost must be an int or a Fraction")
                self.costs[eid] = exact


def reference_parse_instance(data):
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance document must be a JSON object")
    shapes = {
        "firms": (list, "a list of vertex ids"),
        "workers": (list, "a list of vertex ids"),
        "edges": (list, "a list of edge records"),
        "quotas": (dict, "an object mapping vertex ids to rationals"),
        "preferences": (dict, "an object mapping vertex ids to lists of ties"),
    }
    try:
        firms, workers, raw_edges, raw_quotas, raw_prefs = (data[key] for key in shapes)
    except KeyError as exc:
        raise InstanceError(f"missing or malformed field: {exc}") from exc
    for key, (kind, what) in shapes.items():
        if not isinstance(data[key], kind):
            raise InstanceError(f'"{key}" must be {what}')
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise InstanceError(f"malformed edge record {item!r}: must be an object")
        try:
            edges.append(
                Edge(
                    id=str(item["id"]),
                    firm=str(item["firm"]),
                    worker=str(item["worker"]),
                    capacity=reference_parse_rational(item["capacity"]),
                )
            )
        except KeyError as exc:
            raise InstanceError(f"malformed edge record {item!r}: missing field {exc}") from exc
    quota = {str(v): reference_parse_rational(q) for v, q in raw_quotas.items()}
    corteges = {}
    for v, ties in raw_prefs.items():
        if not (isinstance(ties, list) and all(isinstance(tie, list) for tie in ties)):
            raise InstanceError(f"preferences of {v!r} must be a list of ties")
        corteges[str(v)] = [[str(eid) for eid in tie] for tie in ties]
    costs = None
    if "costs" in data and data["costs"] is not None:
        if not isinstance(data["costs"], dict):
            raise InstanceError('"costs" must be an object mapping edge ids to rationals')
        costs = {str(eid): reference_parse_rational(c) for eid, c in data["costs"].items()}
    return ReferenceInstance(firms, workers, edges, quota, corteges, costs)


def reference_parse_assignment(data, inst):
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or "values" not in data:
        raise InstanceError('assignment document must be {"values": {...}}')
    if not isinstance(data["values"], dict):
        raise InstanceError('"values" must be an object mapping edge ids to rationals')
    values = {}
    for eid, val in data["values"].items():
        if eid not in inst.edge_by_id:
            raise InstanceError(f"unknown edge id {eid!r} in assignment")
        values[str(eid)] = reference_parse_rational(val)
    return full_assignment(inst, values)


def reference_parse_costs(text):
    """The costs-file read of `smp mincost`, whose caller turned any
    ValueError into the error body."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise InstanceError("costs document must be a JSON object")
    return {str(e): reference_parse_rational(c) for e, c in raw.items()}


# --- equal tables on the generator families ---------------------------------

TABLES = ["firms", "workers", "edges", "edge_ids", "incident", "quota", "corteges", "tie_index", "costs"]


def numbers(inst):
    """Every number an instance holds: capacities, quotas and costs."""
    return [e.capacity for e in inst.edges] + list(inst.quota.values()) + list((inst.costs or {}).values())


def assert_same_instance(new, ref):
    for name in TABLES:
        assert getattr(new, name) == getattr(ref, name), name
    assert list(new.edge_by_id) == list(ref.edge_by_id)
    assert all(type(v) is Fraction for v in numbers(new))
    assert all(type(v) is Fraction for v in numbers(ref))


def _with_costs(inst, rng):
    doc = serialize_instance(inst)
    doc["costs"] = {e: f"{rng.randint(-9, 9)}/{rng.choice([1, 2, 3, 7])}" for e in inst.edge_ids}
    return doc


def _family_documents():
    rng = random.Random("parse")
    docs = {}
    for s in range(4):
        docs[f"strict-{s}"] = serialize_instance(rand_marriage(random.Random(s), 7, cap=1))
        docs[f"tied-{s}"] = serialize_instance(rand_marriage(random.Random(s), 4, cap=2, tie_prob=0.5))
    for k in (3, 4, 5):
        scale = F(rng.randint(1, 9), rng.randint(2, 4)) * 4 ** (k - 1)
        docs[f"chain-{k}"] = _with_costs(chained_instance(k, F(8, 3) * scale, F(15, 7) * scale), rng)
    for s in range(6):
        docs[f"random-{s}"] = serialize_instance(random_instance(random.Random(s), with_costs=True))
    return docs


FAMILY_DOCUMENTS = _family_documents()


@pytest.mark.parametrize("name", sorted(FAMILY_DOCUMENTS))
def test_parse_instance_matches_the_reference_parse(name):
    doc = FAMILY_DOCUMENTS[name]
    text = json.dumps(doc)
    new = parse_instance(text)
    ref = reference_parse_instance(text)
    assert_same_instance(new, ref)
    assert_same_instance(parse_instance(doc), ref)  # a decoded document too
    x = serialize_assignment(solve_xmin_modified(new))
    got, want = parse_assignment(json.dumps(x), new), reference_parse_assignment(json.dumps(x), ref)
    assert got == want and list(got) == list(want)
    assert all(type(v) is Fraction for v in got.values())
    if "costs" in doc:
        costs = json.dumps(doc["costs"])
        assert parse_costs(costs) == reference_parse_costs(costs)
        assert all(type(v) is Fraction for v in parse_costs(costs).values())


def test_equal_literals_share_one_fraction():
    """Each distinct literal of a document becomes one `Fraction`: the 49
    capacities and 14 quotas of a strict marriage are all the literal 1."""
    inst = parse_instance(json.dumps(FAMILY_DOCUMENTS["strict-0"]))
    assert len({id(v) for v in numbers(inst)}) == 1
    assert numbers(inst)[0] == 1


# --- equal errors on the fuzz documents -------------------------------------


def _retypes_an_id(doc):
    """Whether the old parse would have turned a non-string id into a string:
    an edge record's id, firm or worker, or a preference entry."""
    for item in doc.get("edges", []) if isinstance(doc.get("edges"), list) else []:
        if isinstance(item, dict) and any(
            key in item and not isinstance(item[key], str) for key in ("id", "firm", "worker")
        ):
            return True
    prefs = doc.get("preferences")
    if isinstance(prefs, dict):
        for ties in prefs.values():
            if isinstance(ties, list) and any(
                isinstance(tie, list) and not all(isinstance(eid, str) for eid in tie) for tie in ties
            ):
                return True
    return False


def outcome(fn, *args):
    try:
        result = fn(*args)
    except InstanceError as exc:
        return ("error", str(exc))
    if isinstance(result, dict):
        return ("ok", result, [type(v) for v in result.values()])
    return ("ok", [getattr(result, name) for name in TABLES], [type(v) for v in numbers(result)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_documents_parse_as_the_reference_parses(case):
    kind, docs = case
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    if kind == "instance":
        new = outcome(parse_instance, texts["instance"])
        ref = outcome(reference_parse_instance, texts["instance"])
        if _retypes_an_id(docs["instance"]) and new != ref:
            # intended change: the old parse retyped the id
            assert new[0] == "error" and "must be a string" in new[1], (new, ref)
        else:
            assert new == ref
    elif kind == "assignment":
        inst = parse_instance(texts["instance"])
        ref_inst = reference_parse_instance(texts["instance"])
        new = outcome(parse_assignment, texts["assignment"], inst)
        assert new == outcome(reference_parse_assignment, texts["assignment"], ref_inst)
    else:
        assert outcome(parse_costs, texts["costs"]) == outcome(reference_parse_costs, texts["costs"])
