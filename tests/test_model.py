"""Data model: rational parsing, instance validation, JSON round-trips."""

import json
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import smp
import smp.flow
import smp.simplex
from smp import (
    Edge,
    Instance,
    InstanceError,
    format_rational,
    full_assignment,
    parse_assignment,
    parse_instance,
    parse_rational,
    serialize_assignment,
    serialize_instance,
    validate_assignment,
    vertex_load,
)

from gen import chained_instance, rand_marriage, six_cycle_instance, triangle_instance


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(5) == F(5)
    assert parse_rational("5") == F(5)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational(F(2, 7)) == F(2, 7)


@pytest.mark.parametrize(
    "bad",
    [1.5, True, False, "1.5", "a/b", "3/0", None, [1], "١٥", "１２", "١", "1/٢", "٣/4"],
)
def test_parse_rational_rejects_inexact_and_garbage(bad):
    # the last five are written in Arabic-Indic or fullwidth digits, which
    # `int()` reads; the format takes ASCII digits only
    with pytest.raises(InstanceError) as exc:
        parse_rational(bad)
    assert str(exc.value) == f"not a rational: {bad!r}"


def test_format_rational_round_trips():
    for val in [F(0), F(7), F(-3), F(22, 7), F(-5, 3)]:
        assert parse_rational(format_rational(val)) == val
    assert format_rational(F(4, 2)) == 2  # integers stay bare


def test_edge_other_endpoint():
    e = Edge("e", "f1", "w1", F(1))
    assert e.other("f1") == "w1"
    assert e.other("w1") == "f1"


def test_every_record_is_a_named_tuple_without_a_mutable_default():
    # a record is built once: no field can be written, no default is shared
    records = [
        Edge, smp.ChoiceOutcome, smp.StabilityReport, smp.IterationState,
        smp.ActiveStructure, smp.Rotation, smp.Route, smp.RotationPoset,
        smp.MinCostResult, smp.flow.CutResult, smp.simplex.LinearProgram,
        smp.simplex.LPResult,
    ]
    for cls in records:
        assert issubclass(cls, tuple) and cls._fields, cls
        for value in cls._field_defaults.values():
            hash(value)
    rot = smp.Rotation({"e": 1}, F(1))
    with pytest.raises(AttributeError):
        rot.tau = F(2)


def test_instance_roundtrip_through_json():
    inst = triangle_instance(F(8), F(15))
    doc = serialize_instance(inst)
    back = parse_instance(doc)
    assert back.firms == inst.firms
    assert back.workers == inst.workers
    assert back.edge_ids == inst.edge_ids
    assert back.quota == inst.quota
    assert back.corteges == inst.corteges
    # and through actual text
    again = parse_instance(json.dumps(doc))
    assert again.corteges == inst.corteges


def test_swapped_flips_sides_only():
    inst = six_cycle_instance()
    sw = inst.swapped()
    assert set(sw.firms) == set(inst.workers)
    assert set(sw.workers) == set(inst.firms)
    assert sw.edge_ids == inst.edge_ids
    assert sw.corteges == inst.corteges
    back = sw.swapped()
    assert back.firms == inst.workers or set(back.firms) == set(inst.firms)
    assert set(back.firms) == set(inst.firms)


@pytest.mark.parametrize(
    "inst",
    [
        rand_marriage(random.Random(3), 4, cap=2, tie_prob=0.5),
        rand_marriage(random.Random(3), 6, cap=1),
        chained_instance(3, F(8 * 16), F(15 * 16)),
    ],
    ids=["tied", "strict", "chain"],
)
def test_swapped_equals_a_validated_rebuild(inst):
    """`swapped` shares the side-free tables instead of validating again, and
    every field equals that of an instance built and validated anew."""
    sw = inst.swapped()
    rebuilt = Instance(
        firms=inst.workers,
        workers=inst.firms,
        edges=[Edge(e.id, e.worker, e.firm, e.capacity) for e in inst.edges],
        quota=inst.quota,
        corteges=inst.corteges,
        costs=inst.costs,
    )
    assert vars(sw) == vars(rebuilt)
    assert vars(sw.swapped()) == vars(inst)


def _base_kwargs():
    return dict(
        firms=["f"],
        workers=["w"],
        edges=[Edge("e", "f", "w", F(1))],
        quota={"f": F(1), "w": F(1)},
        corteges={"f": [["e"]], "w": [["e"]]},
    )


def test_validation_duplicate_edge_id():
    kw = _base_kwargs()
    kw["workers"] = ["w", "w2"]
    kw["quota"]["w2"] = F(1)
    kw["corteges"]["w2"] = [["e"]]
    kw["edges"] = [Edge("e", "f", "w", F(1)), Edge("e", "f", "w2", F(1))]
    with pytest.raises(InstanceError, match="duplicate edge id"):
        Instance(**kw)


def test_validation_unknown_endpoint():
    kw = _base_kwargs()
    kw["edges"] = [Edge("e", "f", "nope", F(1))]
    with pytest.raises(InstanceError, match="unknown worker"):
        Instance(**kw)


def test_validation_parallel_edges():
    kw = _base_kwargs()
    kw["edges"] = [Edge("e", "f", "w", F(1)), Edge("e2", "f", "w", F(1))]
    kw["corteges"] = {"f": [["e", "e2"]], "w": [["e"], ["e2"]]}
    with pytest.raises(InstanceError, match="parallel"):
        Instance(**kw)


def test_validation_nonpositive_capacity_and_quota():
    kw = _base_kwargs()
    kw["edges"] = [Edge("e", "f", "w", F(0))]
    with pytest.raises(InstanceError, match="capacity must be positive"):
        Instance(**kw)
    kw = _base_kwargs()
    kw["quota"]["w"] = F(-1)
    with pytest.raises(InstanceError, match="quota must be positive"):
        Instance(**kw)


def test_validation_missing_quota_and_preferences():
    kw = _base_kwargs()
    del kw["quota"]["w"]
    with pytest.raises(InstanceError, match="missing quota"):
        Instance(**kw)
    kw = _base_kwargs()
    del kw["corteges"]["w"]
    with pytest.raises(InstanceError, match="missing preferences"):
        Instance(**kw)


def test_validation_duplicate_vertex_id():
    kw = _base_kwargs()
    kw["workers"] = ["w", "w"]
    with pytest.raises(InstanceError, match="^duplicate vertex id within a part$"):
        Instance(**kw)


def test_validation_quota_for_unknown_vertex():
    kw = _base_kwargs()
    kw["quota"]["ghost"] = F(1)
    with pytest.raises(InstanceError, match=re.escape("quota given for unknown vertices: ['ghost']")):
        Instance(**kw)


def test_validation_preferences_for_unknown_vertex():
    kw = _base_kwargs()
    kw["corteges"]["ghost"] = [["e"]]
    with pytest.raises(InstanceError, match=re.escape("preferences given for unknown vertices: ['ghost']")):
        Instance(**kw)


def test_validation_tie_partition_mismatch():
    kw = _base_kwargs()
    kw["corteges"]["w"] = [["e"], ["e"]]
    with pytest.raises(InstanceError, match="tie partition"):
        Instance(**kw)
    kw = _base_kwargs()
    kw["corteges"]["f"] = [[]]
    with pytest.raises(InstanceError, match="tie partition|empty tie"):
        Instance(**kw)


@pytest.mark.parametrize(
    "edge, ties, message",
    [
        (Edge(None, "f", "w", F(1)), [[None]], "edge id must be a string: None"),
        (Edge("e", ["f"], "w", F(1)), [["e"]], "edge 'e': firm id must be a string: ['f']"),
        (Edge("e", "f", "w", F(1)), [["e", 5]], "vertex 'w': edge id must be a string: 5"),
        (Edge("e", "f", "w", F(1)), [[["e"]]], "vertex 'w': edge id must be a string: ['e']"),
    ],
    ids=["null-id", "list-firm", "mixed-tie", "list-entry"],
)
def test_validation_rejects_non_string_edge_ids(edge, ties, message):
    """A None id listed as such used to be accepted, a mixed tie raised
    TypeError from `sorted`, and an unhashable id TypeError from the set or
    dict it entered."""
    kw = _base_kwargs()
    kw["edges"] = [edge]
    kw["corteges"]["w"] = ties
    with pytest.raises(InstanceError) as exc:
        Instance(**kw)
    assert str(exc.value) == message


def test_validation_shared_vertex_id_across_parts():
    kw = _base_kwargs()
    kw["workers"] = ["f"]
    with pytest.raises(InstanceError, match="shared across parts"):
        Instance(**kw)


def test_validation_costs_for_unknown_edges():
    kw = _base_kwargs()
    kw["costs"] = {"e": F(1), "ghost": F(2)}
    with pytest.raises(InstanceError, match="unknown edges"):
        Instance(**kw)


def _with_number(kind, value):
    """The base instance with its capacity, a quota or a cost set to `value`."""
    kw = _base_kwargs()
    if kind == "capacity":
        kw["edges"] = [Edge("e", "f", "w", value)]
    elif kind == "quota":
        kw["quota"]["w"] = value
    else:
        kw["costs"] = {"e": value}
    return kw


@pytest.mark.parametrize(
    "kind, value, message",
    [
        ("capacity", True, "edge 'e': capacity must be a finite rational"),
        ("quota", 1.5, "vertex 'w': quota must be an int or a Fraction"),
        ("quota", "2", "vertex 'w': quota must be an int or a Fraction"),
        ("cost", 1.5, "edge 'e': cost must be an int or a Fraction"),
    ],
    ids=["bool capacity", "float quota", "str quota", "float cost"],
)
def test_validation_rejects_numbers_that_are_not_exact(kind, value, message):
    """A bool capacity and a float cost used to be kept as given, a float
    quota passed and later broke `choose`, and a str quota made the sign
    test raise TypeError."""
    with pytest.raises(InstanceError) as exc:
        Instance(**_with_number(kind, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", ["capacity", "quota", "cost"])
def test_validation_stores_int_numbers_as_fractions(kind):
    inst = Instance(**_with_number(kind, 3))
    value = {
        "capacity": inst.edges[0].capacity,
        "quota": inst.quota["w"],
        "cost": inst.costs and inst.costs["e"],
    }[kind]
    assert type(value) is F and value == 3
    assert inst.edge_by_id["e"] is inst.edges[0]


def test_parse_instance_rejects_malformed_documents():
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance("{not json")
    with pytest.raises(InstanceError, match="JSON object"):
        parse_instance("[1, 2]")
    with pytest.raises(InstanceError, match="missing or malformed"):
        parse_instance({"firms": []})


# the two-firm instance of the CI step that runs the installed `smp` script
TWO_FIRMS = {
    "firms": ["f1", "f2"],
    "workers": ["w1"],
    "edges": [
        {"id": "f1w1", "firm": "f1", "worker": "w1", "capacity": "15"},
        {"id": "f2w1", "firm": "f2", "worker": "w1", "capacity": "7/2"},
    ],
    "quotas": {"f1": "24", "f2": "24", "w1": "10"},
    "preferences": {"f1": [["f1w1"]], "f2": [["f2w1"]], "w1": [["f1w1", "f2w1"]]},
}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"firms": {"f1": 0, "f2": 0}}, '"firms" must be a list of vertex ids'),
        ({"firms": 5}, '"firms" must be a list of vertex ids'),
        ({"workers": "w1"}, '"workers" must be a list of vertex ids'),
        ({"edges": {"x": 1}}, '"edges" must be a list of edge records'),
        (
            {"quotas": [[v, q] for v, q in TWO_FIRMS["quotas"].items()]},
            '"quotas" must be an object mapping vertex ids to rationals',
        ),
        (
            {"preferences": [[v, t] for v, t in TWO_FIRMS["preferences"].items()]},
            '"preferences" must be an object mapping vertex ids to lists of ties',
        ),
        # every key is looked up before any shape is checked
        ({"firms": 5, "preferences": None}, "missing or malformed field: 'preferences'"),
    ],
    ids=[
        "firms-object", "firms-number", "workers-string", "edges-object",
        "quotas-pairs", "preferences-pairs", "missing-before-shape",
    ],
)
def test_parse_instance_rejects_wrong_container_shapes(changes, message):
    doc = {k: v for k, v in {**TWO_FIRMS, **changes}.items() if v is not None}
    assert parse_instance(TWO_FIRMS).firms == ("f1", "f2")
    with pytest.raises(InstanceError) as exc:
        parse_instance(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "record, message",
    [
        (5, "malformed edge record 5: must be an object"),
        (
            ["e", "f1", "w1", 3],
            "malformed edge record ['e', 'f1', 'w1', 3]: must be an object",
        ),
        (
            {"id": "f1w1", "firm": "f1", "worker": "w1"},
            "malformed edge record {'id': 'f1w1', 'firm': 'f1', 'worker': 'w1'}: "
            "missing field 'capacity'",
        ),
        (
            {"firm": "f1", "worker": "w1", "capacity": 3},
            "malformed edge record {'firm': 'f1', 'worker': 'w1', 'capacity': 3}: "
            "missing field 'id'",
        ),
    ],
    ids=["number", "list", "no-capacity", "no-id"],
)
def test_parse_instance_rejects_malformed_edge_records(record, message):
    """An edge record must be an object, and a missing key is named."""
    doc = {**TWO_FIRMS, "edges": [TWO_FIRMS["edges"][0], record]}
    with pytest.raises(InstanceError) as exc:
        parse_instance(doc)
    assert str(exc.value) == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no integer digit limit",
)
def test_integer_literal_past_the_digit_limit_is_malformed_json():
    # json.loads raises a plain ValueError for such a literal, not a
    # JSONDecodeError; it used to escape parse_instance as one
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    text = json.dumps(TWO_FIRMS).replace('"capacity": "15"', f'"capacity": {digits}')
    with pytest.raises(InstanceError) as exc:
        parse_instance(text)
    assert str(exc.value).startswith("malformed JSON: ")


def test_assignment_parsing_and_defaults():
    inst = triangle_instance(F(8), F(15))
    x = parse_assignment('{"values": {"f1w1": "3/2"}}', inst)
    assert x["f1w1"] == F(3, 2)
    assert x["f2w2"] == F(0)  # missing edges read as zero
    with pytest.raises(InstanceError, match="unknown edge"):
        parse_assignment('{"values": {"ghost": 1}}', inst)
    with pytest.raises(InstanceError, match="values"):
        parse_assignment('{"nope": {}}', inst)
    doc = serialize_assignment(x)
    assert parse_assignment(doc, inst) == x


def test_validate_assignment_box_and_quota():
    inst = triangle_instance(F(8), F(15))
    good = full_assignment(inst, {e: F(8) for e in inst.edge_ids})
    assert validate_assignment(inst, good) == []
    over_cap = dict(good, f1w1=F(99))
    violations = validate_assignment(inst, over_cap)
    assert any(v.startswith("edge f1w1:") and "exceeds capacity" in v for v in violations)
    over_quota = dict(good, f1w1=F(15))
    violations = validate_assignment(inst, over_quota)
    # in the box, but over the quota at both ends of f1w1
    assert violations == [
        "vertex f1: load 31 exceeds quota 24",
        "vertex w1: load 31 exceeds quota 24",
    ]
    with pytest.raises(InstanceError, match="unknown edge ids"):
        validate_assignment(inst, {"ghost": F(1)})


def test_vertex_load_sums_incident_edges():
    inst = triangle_instance(F(8), F(15))
    x = {"f1w1": F(3), "f1w2": F(4)}
    assert vertex_load(inst, x, "f1") == F(7)
    assert vertex_load(inst, x, "w1") == F(3)
    assert vertex_load(inst, x, "w3") == F(0)


DOCS = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_instance_examples_parse(doc):
    blocks = re.findall(r"```json\n(.*?)```", (DOCS / doc).read_text(), re.S)
    assert blocks, f"no JSON instance example in {doc}"
    for block in blocks:
        parse_instance(block)
