"""Instance document parsing, canonical serialisation, and DOT export."""

import json
from fractions import Fraction

import pytest

import ordtop as ot
from ordtop.errors import InstanceSyntaxError, InstanceValidationError
from ordtop.instances import (
    document_family,
    document_preorder,
    document_topology,
    export_dot,
    make_document,
    parse_instance,
    resolve_topology_mode,
    serialize_instance,
)
from tests.conftest import FIXTURES, fixture_text


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_instance(path.read_text(encoding="utf-8"))
        assert parse_instance(serialize_instance(doc)) == doc


def test_minimal_chain_document(chain3):
    doc = parse_instance(fixture_text("chain3.json"))
    assert document_preorder(doc) == chain3
    t = document_topology(doc, chain3)
    assert t == ot.upper_topology(chain3)


def test_explicit_opens_missing_ground_rejected():
    text = json.dumps(
        {
            "elements": ["a", "b"],
            "relation": [],
            "topology": {"mode": "explicit", "opens": [[], ["a"]]},
        }
    )
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(text)
    assert exc.value.path == "topology.opens"
    assert exc.value.reason == "ground set absent"


def test_vee_document_functions_match_fixture(vee):
    doc = parse_instance(fixture_text("vee.json"))
    assert document_preorder(doc) == vee
    family = document_family(doc)
    expected = ot.construct_finite_lsc_rp_multiutility(vee, ot.upper_topology(vee))
    assert family.members == expected.family.members


def test_unknown_fields_rejected():
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance('{"elements": ["a"], "surprise": 1}')
    assert exc.value.path == "surprise"


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"elements": "ab"}, "elements"),
        ({"elements": ["a"], "relation": [["a"]]}, "relation[0]"),
        ({"elements": ["a"], "autoclose": "yes"}, "autoclose"),
        ({"elements": ["a"], "relation": [["a", "z"]]}, "relation"),
        ({"elements": ["a"], "topology": {"mode": "fancy"}}, "topology.mode"),
        ({"elements": ["a"], "topology": {"mode": "upper", "opens": [[]]}}, "topology.opens"),
        ({"elements": ["a"], "topology": {"mode": "explicit", "opens": [[], ["z"]]}},
         "topology.opens[1]"),
        ({"elements": ["a"], "functions": {"f": {}}}, "functions.f"),
        ({"elements": ["a"], "functions": {"f": {"a": "x"}}}, "functions.f.a"),
        ({"elements": ["a"], "functions": {"f": {"a": 1}}}, "functions.f.a"),
        ({"elements": ["a"], "functions": {"f": {"a": "1", "z": "2"}}}, "functions.f"),
    ],
)
def test_validation_error_paths(payload, path):
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(payload))
    assert exc.value.path == path


def test_axioms_of_explicit_topology_reverified():
    text = json.dumps(
        {
            "elements": ["a", "b", "c"],
            "relation": [],
            "topology": {"mode": "explicit", "opens": [[], ["a"], ["b"], ["a", "b", "c"]]},
        }
    )
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(text)
    assert exc.value.path == "topology.opens"  # {a} | {b} missing


def test_explicit_mode_validates_the_family():
    p = ot.build_preorder(("a", "b", "c"))
    with pytest.raises(InstanceValidationError) as exc:
        resolve_topology_mode("explicit", p, ((), ("a",), ("b",), ("a", "b", "c")))
    assert exc.value.path == "topology.opens"
    with pytest.raises(InstanceValidationError) as exc:
        resolve_topology_mode("explicit", p, (("a",), ("a", "b", "c")))
    assert exc.value.reason == "empty set absent"
    t = resolve_topology_mode("explicit", p, ((), ("a",), ("a", "b", "c")))
    assert t == ot.generate(3, [0b001], ot.SubbasisRole.AS_OPEN_SUBBASIS)


def test_syntax_error_carries_line():
    with pytest.raises(InstanceSyntaxError) as exc:
        parse_instance('{\n  "elements": [,]\n}')
    assert exc.value.line == 2


def test_relation_axioms_validated_when_autoclose_off():
    text = json.dumps({"elements": ["a", "b"], "relation": [["a", "b"]], "autoclose": False})
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(text)
    assert exc.value.path == "relation"


def test_rationals_parse_reduced():
    doc = parse_instance(
        json.dumps({"elements": ["a"], "relation": [], "functions": {"f": {"a": "2/4"}}})
    )
    assert doc.functions == (("f", (Fraction(1, 2),)),)
    assert '"1/2"' in serialize_instance(doc)


def test_make_document_round_trips_topology(vee):
    t = ot.alexandrov_topology(vee)
    doc = make_document(vee, topology=t)
    parsed = parse_instance(serialize_instance(doc))
    assert parsed == doc
    assert document_preorder(parsed) == vee
    assert document_topology(parsed, vee) == t


def test_export_dot_examples(chain3, vee):
    dot = export_dot(chain3)
    lines = [ln.strip() for ln in dot.splitlines()]
    assert lines.count('"a";') + lines.count('"b";') + lines.count('"c";') == 3
    assert '"a" -> "b";' in lines and '"b" -> "c";' in lines
    assert '"a" -> "c";' not in lines  # transitive reduction

    dot = export_dot(vee)
    lines = [ln.strip() for ln in dot.splitlines()]
    assert '"a" -> "c";' in lines and '"b" -> "c";' in lines

    merged = ot.build_preorder(("a", "b", "c"), [("a", "b"), ("b", "a"), ("b", "c")])
    dot = export_dot(merged)
    lines = [ln.strip() for ln in dot.splitlines()]
    assert '"a,b";' in lines and '"a,b" -> "c";' in lines
    assert sum(1 for ln in lines if "->" in ln) == 1
