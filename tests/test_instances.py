"""Instance document parsing, canonical serialisation, and DOT export."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop as ot
from ordtop import kernels, topologies
from ordtop.cli import main
from ordtop.errors import (
    GroundMismatchError,
    InstanceSyntaxError,
    InstanceValidationError,
    OrdtopError,
)
from ordtop.instances import (
    TopologySpec,
    document_family,
    document_payload,
    document_preorder,
    document_topology,
    export_dot,
    make_document,
    parse_instance,
    resolve_topology_mode,
    serialize_instance,
)
from tests.conftest import FIXTURES, fixture_text
from tests.test_preorders import preorders


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_instance(path.read_text(encoding="utf-8"))
        assert parse_instance(serialize_instance(doc)) == doc


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=12)


@st.composite
def explicit_documents(draw):
    """A document of a preorder, an explicit topology on it, and functions
    with rational values."""
    p = draw(preorders())
    t = ot.random_topology_between(
        ot.indiscrete(p.n), draw(st.integers(0, 1 << 30)), draw(st.integers(0, 3))
    )
    names = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
    functions = {
        name: ot.ValueFunction(
            p.elements, tuple(draw(st.lists(rationals, min_size=p.n, max_size=p.n)))
        )
        for name in names
    }
    return make_document(p, t, functions)


@given(explicit_documents())
@settings(max_examples=60, deadline=None)
def test_serialized_documents_parse_back(doc):
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
        ({"elements": []}, "elements"),
        ({"elements": ["a", "a"]}, "elements"),
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


def _explicit_text(opens) -> str:
    return json.dumps(
        {"elements": ["a", "b", "c"], "topology": {"mode": "explicit", "opens": opens}}
    )


def test_explicit_mode_validates_the_family():
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(_explicit_text([[], ["a"], ["b"], ["a", "b", "c"]]))
    assert exc.value.path == "topology.opens"
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(_explicit_text([["a"], ["a", "b", "c"]]))
    assert exc.value.reason == "empty set absent"
    doc = parse_instance(_explicit_text([[], ["a"], ["a", "b", "c"]]))
    t = ot.generate(3, [0b001], ot.SubbasisRole.AS_OPEN_SUBBASIS)
    assert doc.topology.explicit == t
    assert document_topology(doc, document_preorder(doc)) == t


def test_explicit_topology_is_held_as_validated_rows(monkeypatch):
    calls = []
    real = topologies.from_opens
    monkeypatch.setattr(topologies, "from_opens", lambda *a: calls.append(a) or real(*a))
    doc = parse_instance(_explicit_text([[], ["b"], ["a", "b"], ["a", "b", "c"]]))
    assert len(calls) == 1
    assert doc.topology == TopologySpec("explicit", ot.Topology(3, (0b011, 0b010, 0b111)))
    assert document_topology(doc, document_preorder(doc)) is doc.topology.explicit


def test_explicit_topology_on_other_labels_is_refused():
    doc = parse_instance(_explicit_text([[], ["a"], ["a", "b", "c"]]))
    with pytest.raises(OrdtopError):
        document_topology(doc, ot.build_preorder(("a", "b")))
    with pytest.raises(OrdtopError):
        document_topology(doc, ot.build_preorder(("c", "b", "a", "d")))
    with pytest.raises(OrdtopError):
        document_topology(doc, ot.build_preorder(("c", "b", "x")))


def test_derived_modes_resolve_without_opens(chain3):
    assert resolve_topology_mode("upper", chain3) == ot.upper_topology(chain3)
    with pytest.raises(InstanceValidationError) as exc:
        resolve_topology_mode("explicit", chain3)
    assert exc.value.path == "topology.mode"


def test_make_document_lists_no_opens_until_serialised(vee, monkeypatch):
    t = ot.alexandrov_topology(vee)
    calls = []
    real = kernels.up_sets
    monkeypatch.setattr(kernels, "up_sets", lambda rows: calls.append(rows) or real(rows))
    doc = make_document(vee, topology=t)
    assert doc.topology.explicit is t and calls == []
    payload = document_payload(doc)
    assert len(calls) == 1
    assert payload["topology"]["opens"] == [list(ot.labels_of(vee, m)) for m in t.opens]
    assert serialize_instance(doc) == json.dumps(payload, indent=2) + "\n"


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


@pytest.mark.parametrize(
    "text, value",
    [("2/4", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("3", Fraction(3)), ("1.5", Fraction(3, 2))],
)
def test_rational_spellings_parse(text, value):
    doc = parse_instance(
        json.dumps({"elements": ["a"], "relation": [], "functions": {"f": {"a": text}}})
    )
    assert doc.functions == (("f", (value,)),)


@pytest.mark.parametrize("text", ["1e10000000", "1E10000000", "2.5e-3"])
def test_exponent_rationals_are_refused_at_once(text, capsys, tmp_path):
    # Fraction("1e10000000") builds a ten-million-digit integer (seconds);
    # the refusal comes before it runs.
    payload = json.dumps({"elements": ["a"], "relation": [], "functions": {"f": {"a": text}}})
    started = time.perf_counter()
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(payload)
    assert time.perf_counter() - started < 1.0
    assert exc.value.path == "functions.f.a" and "exponent" in str(exc.value)
    path = tmp_path / "exp.json"
    path.write_text(payload, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - started < 2.0


def test_make_document_round_trips_topology(vee):
    t = ot.alexandrov_topology(vee)
    doc = make_document(vee, topology=t)
    parsed = parse_instance(serialize_instance(doc))
    assert parsed == doc
    assert document_preorder(parsed) == vee
    assert document_topology(parsed, vee) == t
    with pytest.raises(GroundMismatchError):
        make_document(vee, topology=ot.discrete(2))


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


def test_export_dot_escapes_quotes_and_backslashes():
    p = ot.build_preorder(('a"b', "c\\d"), [('a"b', "c\\d")])
    lines = [ln.strip() for ln in export_dot(p).splitlines()]
    assert lines[2:5] == ['"a\\"b";', '"c\\\\d";', '"a\\"b" -> "c\\\\d";']


@pytest.mark.parametrize(
    "data, line",
    [(b"\xff", 1), (b'{"elements": ["a"],\n "relation": [["a", "\xc3"]]}', 2)],
    ids=["leading-0xff", "truncated-sequence"],
)
def test_invalid_utf8_is_a_syntax_error(data, line):
    with pytest.raises(InstanceSyntaxError, match="not UTF-8") as exc:
        parse_instance(data)
    assert exc.value.line == line


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep-nesting", "long-integer"])
def test_undecodable_json_is_an_input_error(text):
    with pytest.raises(InstanceValidationError, match="cannot decode"):
        parse_instance(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=12,
)
labels = st.lists(st.sampled_from("abc"), max_size=3)
documents = st.fixed_dictionaries(
    {},
    optional={
        "elements": labels | json_values,
        "relation": st.lists(labels, max_size=4) | json_values,
        "autoclose": st.booleans() | json_values,
        "topology": st.fixed_dictionaries(
            {"mode": st.sampled_from(("upper", "explicit", "scott")) | json_values},
            optional={"opens": st.lists(labels, max_size=4) | json_values},
        ) | json_values,
        "functions": st.dictionaries(
            st.text(max_size=2), st.dictionaries(st.sampled_from("abc"), json_values)
        ) | json_values,
        "other": json_values,
    },
)


@given(st.binary() | json_values.map(json.dumps) | documents.map(json.dumps))
@settings(max_examples=300, deadline=None)
def test_parse_instance_raises_only_ordtop_errors(data):
    try:
        parse_instance(data)
    except OrdtopError:
        pass
