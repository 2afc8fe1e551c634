"""Instance document parsing, canonical serialisation, and DOT export."""

import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop as ot
from ordtop import instances, kernels, topologies
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
from ordtop.theorems import all_preorders, default_labels
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
        ({"elements": ["a"], "topology": {"mode": "upper", "basis": []}}, "topology.basis"),
        ({"elements": ["a"], "functions": []}, "functions"),
        ({"elements": ["a"], "functions": {"f": 3}}, "functions.f"),
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
    # The error names a label that only one of the two has.
    doc = parse_instance(_explicit_text([[], ["a"], ["a", "b", "c"]]))
    for elements, message in [
        (("a", "b"), "explicit topology has element 'c', which the instance lacks"),
        (("c", "b", "a", "d"), "explicit topology lacks element 'd'"),
        (("c", "b", "x"), "explicit topology lacks element 'x'"),
    ]:
        with pytest.raises(OrdtopError) as exc:
            document_topology(doc, ot.build_preorder(elements))
        assert str(exc.value) == message


BUILDERS = {
    "upper": ot.upper_topology,
    "alexandrov": ot.alexandrov_topology,
    "scott": ot.scott_topology,
    "order": ot.order_topology,
    "discrete": lambda p: ot.discrete(p.n),
    "indiscrete": lambda p: ot.indiscrete(p.n),
}


def test_derived_modes_resolve_without_opens(chain3):
    # One vocabulary: every mode name resolves alone and in a document.
    assert list(instances.TOPOLOGY_MODES) == list(BUILDERS)
    assert instances.DOCUMENT_MODES == (*BUILDERS, "explicit")
    for mode, build in BUILDERS.items():
        assert resolve_topology_mode(mode, chain3) == build(chain3)
        doc = parse_instance(json.dumps({"elements": ["a", "b", "c"],
                                         "relation": [["a", "b"], ["b", "c"]],
                                         "topology": {"mode": mode}}))
        assert doc.topology == TopologySpec(mode)
        assert document_topology(doc, chain3) == build(chain3)
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


def _oracle_export_dot(p):
    """``export_dot`` with the covering pairs found by the definition: i < j
    with no third class strictly between them."""
    q = ot.quotient(p)
    k = q.order.n
    ids = list(q.order.elements)
    covers = []
    for i in range(k):
        for j in range(k):
            if i == j or not q.order.leq_idx(i, j):
                continue
            between = False
            for m in range(k):
                if m in (i, j):
                    continue
                if q.order.leq_idx(i, m) and q.order.leq_idx(m, j):
                    between = True
                    break
            if not between:
                covers.append((ids[i], ids[j]))
    lines = ["digraph preorder {", "  rankdir=BT;"]
    for node in sorted(ids):
        lines.append(f"  {instances._dot_id(node)};")
    for src, dst in sorted(covers):
        lines.append(f"  {instances._dot_id(src)} -> {instances._dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_covers_match_the_definition():
    cases = [p for n in range(1, 5) for p in all_preorders(default_labels(n))]
    cases += [document_preorder(parse_instance(path.read_text(encoding="utf-8")))
              for path in sorted(FIXTURES.glob("*.json"))]
    assert len(cases) == 389 + 6
    for p in cases:
        assert export_dot(p) == _oracle_export_dot(p)


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


def _oracle_parse(text):
    """The parse that decodes the whole document with ``json.loads`` and
    then turns each open's label list into a mask: the reference for the
    one-open-at-a-time reader."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(exc.lineno, exc.msg) from None
    except (ValueError, RecursionError) as exc:
        raise InstanceValidationError("$", f"cannot decode: {exc}") from None
    if not isinstance(raw, dict):
        raise InstanceValidationError("$", "document must be a JSON object")
    for key in raw:
        if key not in ("elements", "relation", "autoclose", "topology", "functions"):
            raise InstanceValidationError(key, "unknown field")
    elements = raw.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise InstanceValidationError("elements", "must be a list of strings")
    relation_raw = raw.get("relation", [])
    if not isinstance(relation_raw, list):
        raise InstanceValidationError("relation", "must be a list of pairs")
    relation = []
    for idx, pair in enumerate(relation_raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise InstanceValidationError(f"relation[{idx}]", "must be a pair of labels")
        relation.append((pair[0], pair[1]))
    autoclose = raw.get("autoclose", True)
    if not isinstance(autoclose, bool):
        raise InstanceValidationError("autoclose", "must be a boolean")
    try:
        p = ot.build_preorder(tuple(elements), relation, autoclose=autoclose)
    except (ot.errors.EmptyUniverseError, ot.errors.DuplicateLabelError) as exc:
        raise InstanceValidationError("elements", str(exc)) from None
    except OrdtopError as exc:
        raise InstanceValidationError("relation", str(exc)) from None
    spec = None
    if raw.get("topology") is not None:
        spec = _oracle_topology(raw["topology"], p)
    functions = None
    if raw.get("functions") is not None:
        functions = instances._parse_functions(raw["functions"], p)
    return instances.InstanceDocument(
        p.elements, instances._canonical_relation(p.elements, relation), autoclose,
        spec, functions,
    )


def _oracle_topology(raw, p):
    if not isinstance(raw, dict):
        raise InstanceValidationError("topology", "must be an object")
    for key in raw:
        if key not in ("mode", "opens"):
            raise InstanceValidationError(f"topology.{key}", "unknown field")
    mode = raw.get("mode")
    if mode not in instances.DOCUMENT_MODES:
        raise InstanceValidationError(
            "topology.mode", f"must be one of {', '.join(instances.DOCUMENT_MODES)}"
        )
    opens_raw = raw.get("opens")
    if mode != "explicit":
        if opens_raw is not None:
            raise InstanceValidationError("topology.opens", "only valid when mode is explicit")
        return TopologySpec(mode)
    if not isinstance(opens_raw, list):
        raise InstanceValidationError("topology.opens", "must be a list of label lists")
    masks = []
    for idx, open_labels in enumerate(opens_raw):
        if not isinstance(open_labels, list) or not all(
            isinstance(x, str) for x in open_labels
        ):
            raise InstanceValidationError(f"topology.opens[{idx}]", "must be a list of labels")
        try:
            masks.append(ot.mask_of(p, open_labels))
        except ot.errors.UnknownLabelError as exc:
            raise InstanceValidationError(f"topology.opens[{idx}]", str(exc)) from None
    try:
        return TopologySpec("explicit", topologies.from_opens(p.n, masks))
    except ot.errors.NotATopologyError as exc:
        raise InstanceValidationError("topology.opens", exc.reason) from None


def _outcome(parse, text):
    """The parsed document, or the error's class and text (which carries
    its path or line and its message)."""
    try:
        return parse(text)
    except OrdtopError as exc:
        return type(exc), str(exc)


# Labels that need escaping, are not ASCII, or hold JSON delimiters.
LABEL_POOL = ("a", "b", "]", ",", '"', "[", "x\\y", "é", "\u2603", " ", "\n", "}")
EDIT_CHARS = '[]{},:" \\a0\n'


def _write_str(s, style):
    """A JSON string for ``s``: ``json.dumps`` escaping, raw non-ASCII, or
    every character as a ``\\u`` escape."""
    if style == "ascii":
        return json.dumps(s)
    if style == "raw":
        return json.dumps(s, ensure_ascii=False)
    return '"' + "".join(f"\\u{ord(c):04x}" for c in s) + '"'


class _Writer:
    """JSON text written piece by piece.  A tuple of (key, value) pairs is
    an object, so a key may repeat; ``gap(kind, depth)`` gives the
    whitespace at each place JSON allows it, ``escape()`` the style of each
    string; the offsets of every ``opens`` value are kept in ``spans``."""

    def __init__(self, gap, escape):
        self.gap, self.escape = gap, escape
        self.pieces, self.size, self.spans = [], 0, []

    def put(self, piece):
        self.pieces.append(piece)
        self.size += len(piece)

    def text(self):
        return "".join(self.pieces)

    def value(self, value, depth=0):
        gap = self.gap
        if isinstance(value, (list, tuple)):
            open_, close = ("{", "}") if isinstance(value, tuple) else ("[", "]")
            if not value:
                self.put(open_ + close)
                return
            self.put(open_ + gap("after_open", depth + 1))
            for k, item in enumerate(value):
                if k:
                    self.put(gap("before_comma", depth + 1) + "," + gap("after_comma", depth + 1))
                if isinstance(value, tuple):
                    key, item = item
                    self.put(_write_str(key, self.escape()) + gap("before_colon", depth + 1))
                    self.put(":" + gap("after_colon", depth + 1))
                start = self.size
                self.value(item, depth + 1)
                if isinstance(value, tuple) and key == "opens":
                    self.spans.append((start, self.size))
            self.put(gap("before_close", depth) + close)
        elif isinstance(value, str):
            self.put(_write_str(value, self.escape()))
        else:
            self.put(json.dumps(value))


def _style_gap(style, draw_gap):
    """The whitespace of one layout: none, ``json.dumps``'s default spacing,
    ``indent=2``, or irregular whitespace drawn at each place."""

    def gap(kind, depth):
        if style == "compact":
            return ""
        if style == "spaced":
            return " " if kind in ("after_colon", "after_comma") else ""
        if style == "indent2":
            if kind in ("after_open", "after_comma", "before_close"):
                return "\n" + "  " * depth
            return " " if kind == "after_colon" else ""
        return draw_gap()
    return gap


@st.composite
def _opens_values(draw, elements):
    """An ``opens`` value: the opens of a random topology on ``elements`` as
    label lists, in any order and with any label order, now and then with a
    repeated, missing or malformed member; or no list at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, "a", 3, (("a", []),)]))
    n = len(elements)
    t = ot.random_topology_between(
        ot.indiscrete(n), draw(st.integers(0, 1 << 30)), draw(st.integers(0, 3))
    )
    opens = draw(st.permutations([[elements[i] for i in range(n) if m >> i & 1] for m in t.opens]))
    opens = [draw(st.permutations(labels)) for labels in opens]
    k = draw(st.integers(0, len(opens) - 1))
    faults = ["none"] * 4 + ["repeat", "drop", "unknown", "not-str", "not-list"]
    fault = draw(st.sampled_from(faults))
    if fault == "repeat":
        opens.append(opens[k])
    elif fault == "drop":
        del opens[k]
    elif fault == "unknown":
        opens[k] = opens[k] + [draw(st.sampled_from(LABEL_POOL + ("zz",)))]
    elif fault == "not-str":
        opens[k] = opens[k] + [draw(st.sampled_from([1, None, [], True]))]
    elif fault == "not-list":
        opens[k] = draw(st.sampled_from(["a", 0, None, (("a", "b"),)]))
    return opens


@st.composite
def _topology_values(draw, elements):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, "upper", []]))
    fields = [("mode", draw(st.sampled_from(["explicit"] * 4 + ["upper", "fancy"])))]
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
        fields.append(("opens", draw(_opens_values(elements))))
    return tuple(draw(st.permutations(fields)))


@st.composite
def _repeated_key_documents(draw):
    """Instance documents as (key, value) pairs in any order, where
    ``elements`` and ``topology`` may each appear twice."""
    elements = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=4, unique=True))
    fields = [("elements", elements), ("topology", draw(_topology_values(elements)))]
    if draw(st.booleans()):
        reordered = draw(st.permutations(elements))
        fields.append(("elements", draw(st.sampled_from([
            reordered, reordered, elements[:-1], elements + ["zz"], elements * 2, 7,
        ]))))
    if draw(st.booleans()):
        fields.append(("topology", draw(_topology_values(elements))))
    if draw(st.booleans()):
        pairs = st.lists(st.sampled_from(elements), min_size=2, max_size=2)
        fields.append(("relation", draw(st.lists(pairs, max_size=3))))
    if draw(st.booleans()):
        fields.append(("autoclose", draw(st.sampled_from([True, True, False]))))
    if draw(st.booleans()):
        fields.append(("functions", (("f", tuple((x, "1/2") for x in elements)),)))
    return tuple(draw(st.permutations(fields)))


def _keys_repeat(value):
    if isinstance(value, tuple):
        keys = [key for key, _ in value]
        return len(set(keys)) < len(keys) or any(_keys_repeat(item) for _, item in value)
    return isinstance(value, list) and any(_keys_repeat(item) for item in value)


def _as_json(value):
    if isinstance(value, tuple):
        return {key: _as_json(item) for key, item in value}
    if isinstance(value, list):
        return [_as_json(item) for item in value]
    return value


@given(
    doc=_repeated_key_documents(),
    style=st.sampled_from(["compact", "spaced", "indent2", "irregular"]),
    gaps=st.lists(st.sampled_from(["", " ", "\n", "\t", "\r\n  "]), min_size=1, max_size=6),
    escapes=st.lists(st.sampled_from(["ascii", "raw", "u"]), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=800, deadline=None)
def test_one_open_at_a_time_reader_matches_the_json_loads_parse(doc, style, gaps, escapes, data):
    gap_cycle, escape_cycle = itertools.cycle(gaps), itertools.cycle(escapes)
    writer = _Writer(_style_gap(style, lambda: next(gap_cycle)), lambda: next(escape_cycle))
    writer.value(doc)
    text = writer.text()
    if style == "indent2" and escapes == ["ascii"] and not _keys_repeat(doc):
        assert text == json.dumps(_as_json(doc), indent=2)
    if writer.spans and data.draw(st.booleans(), label="edit"):
        start, end = data.draw(st.sampled_from(writer.spans), label="opens span")
        # Offsets: the array's closing bracket, any delimiter in it, or anywhere.
        delimiters = [k for k in range(start, end) if text[k] in "[],"]
        offsets = st.just(end - 1) | st.integers(start, end)
        if delimiters:
            offsets |= st.sampled_from(delimiters)
        at = data.draw(offsets, label="offset")
        char = data.draw(st.just(",") | st.sampled_from(EDIT_CHARS), label="char")
        edits = [text[:at] + text[at + 1:], text[:at] + char + text[at:]]
        edits.append(text[:at] + char + text[at + 1:])
        text = data.draw(st.sampled_from(edits), label="edited")
    assert _outcome(parse_instance, text) == _outcome(_oracle_parse, text)


@pytest.mark.parametrize(
    "document",
    [
        '{"elements": ["a"], "topology": {"mode": "explicit", "opens": %s}}',
        '{"topology": {"opens": %s, "mode": "explicit"}, "elements": ["a"]}',
    ],
    ids=["elements-first", "topology-first"],
)
@pytest.mark.parametrize(
    "opens",
    [
        "[[], [\"a\"],]", "[, [], [\"a\"]]", "[[] [\"a\"]]", "[[],, [\"a\"]]", "[[], [\"a\"]",
        "[[], [\"a\",]]", "[[], [\"a\"] ,\n]", "[[]]]", "[[], [\"a\"]}", "[ ", "[[\"a\" \"a\"]]",
        "[[], [\"a\"]\t, [\"\\q\"]]", "[[], [a]]", "[[], [\"a\"]:",
    ],
)
def test_malformed_opens_raise_the_json_loads_error(document, opens):
    text = document % opens
    assert _outcome(parse_instance, text) == _outcome(_oracle_parse, text)
    assert _outcome(parse_instance, text)[0] is InstanceSyntaxError


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": ["a"],}', '{"elements" ["a"]}', '{"elements": ["a"] "relation": []}',
        '{"elements": ["a"]} x', '{"elements": ["a"]', '{,}',
        '{"elements": ["a"],, "relation": []}', '{elements: ["a"]}',
        '{"elements": ["a"], "topology": {"mode": "upper",}}',
        '{"elements": ["a"], "topology": {"mode" "upper"}}', '{"elements": ["a"], "topology": {',
        '\ufeff{"elements": ["a"]}', '{"elements": ["a"], "autoclose": tru}',
        '{"elements": ["a"]}}',
    ],
)
def test_malformed_objects_raise_the_json_loads_error(text):
    assert _outcome(parse_instance, text) == _outcome(_oracle_parse, text)
    assert _outcome(parse_instance, text)[0] is InstanceSyntaxError


def test_explicit_opens_are_read_without_their_label_lists():
    # The 14-point discrete topology: 16,384 opens in 0.8 MB of text.
    # Decoding the document whole holds every open's label list at once
    # (a tracemalloc peak near 9 MB); read one open at a time, the parse
    # holds little more than the masks.
    n = 14
    labels = [f"p{i:02d}" for i in range(n)]
    text = json.dumps({
        "elements": labels,
        "topology": {
            "mode": "explicit",
            "opens": [[labels[i] for i in range(n) if m >> i & 1] for m in range(1 << n)],
        },
    })
    tracemalloc.start()
    try:
        doc = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.topology.explicit == ot.discrete(n)
    assert peak < 2_000_000, f"parse peak {peak} B"
