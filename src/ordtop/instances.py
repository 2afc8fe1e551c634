"""Instance documents: the JSON file format, parsing, and exporters.

A document carries a ground set, relation pairs, an optional topology
(either a mode name or an explicit open family), and optional named
rational functions.  Parsing validates everything it can (relation
axioms when autoclose is off, that an explicit open family is exactly a
topology, function totality); serialisation is canonical so that
``parse(serialize(doc)) == doc``.  An explicit topology is held as the
:class:`Topology` that :func:`topologies.from_opens` validated, its rows
indexed in the document's element order; its opens are label lists only
in the JSON text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from ordtop import errors as err
from ordtop import kernels, topologies
from ordtop.preorders import Preorder, build_preorder, labels_of, mask_of, quotient
from ordtop.representations import FunctionFamily, ValueFunction
from ordtop.topologies import Topology

if TYPE_CHECKING:
    from fractions import Fraction

# The one table of mode names, each with its topology of a preorder.  A builder
# looks its function up when it runs, so a name rebound in topologies is seen.
TOPOLOGY_MODES: dict[str, Callable[[Preorder], Topology]] = {
    "upper": lambda p: topologies.upper_topology(p),
    "alexandrov": lambda p: topologies.alexandrov_topology(p),
    "scott": lambda p: topologies.scott_topology(p),
    "order": lambda p: topologies.order_topology(p),
    "discrete": lambda p: topologies.discrete(p.n),
    "indiscrete": lambda p: topologies.indiscrete(p.n),
}
DOCUMENT_MODES = (*TOPOLOGY_MODES, "explicit")

_DOC_FIELDS = ("elements", "relation", "autoclose", "topology", "functions")


class TopologySpec(NamedTuple):
    mode: str
    explicit: Topology | None = None


class InstanceDocument(NamedTuple):
    elements: tuple[str, ...]
    relation: tuple[tuple[str, str], ...]
    autoclose: bool = True
    topology: TopologySpec | None = None
    functions: tuple[tuple[str, tuple[Fraction, ...]], ...] | None = None


def _canonical_relation(
    elements: tuple[str, ...], relation: list[tuple[str, str]]
) -> tuple[tuple[str, str], ...]:
    index = {x: i for i, x in enumerate(elements)}
    unique = sorted(set(relation), key=lambda ab: (index[ab[0]], index[ab[1]]))
    return tuple(unique)


def make_document(
    p: Preorder,
    topology: Topology | None = None,
    functions: Mapping[str, ValueFunction] | None = None,
) -> InstanceDocument:
    """Canonical document for in-memory objects (relation fully expanded)."""
    labels = p.elements
    relation = tuple((labels[i], labels[j]) for i, j in kernels.relation_pairs(p.rows))
    spec = None
    if topology is not None:
        if topology.ground_size != p.n:
            raise err.GroundMismatchError(p.n, topology.ground_size)
        spec = TopologySpec("explicit", topology)
    funcs = None
    if functions is not None:
        funcs = tuple(
            (name, tuple(functions[name].values)) for name in sorted(functions)
        )
    return InstanceDocument(
        elements=p.elements,
        relation=relation,
        autoclose=False,
        topology=spec,
        functions=funcs,
    )


def parse_instance(text: str | bytes) -> InstanceDocument:
    """Parse and validate a JSON instance document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise err.InstanceSyntaxError(
                line, f"not UTF-8: byte {text[exc.start]:#04x} at offset {exc.start}"
            ) from None
    # deferred, like fractions: a process that parses no document never compiles it
    from ordtop.jsonread import read_document

    try:
        raw = read_document(text)
    except json.JSONDecodeError as exc:
        raise err.InstanceSyntaxError(exc.lineno, exc.msg) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the recursion limit
        raise err.InstanceValidationError("$", f"cannot decode: {exc}") from None
    if not isinstance(raw, dict):
        raise err.InstanceValidationError("$", "document must be a JSON object")
    for key in raw:
        if key not in _DOC_FIELDS:
            raise err.InstanceValidationError(key, "unknown field")

    elements = raw.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise err.InstanceValidationError("elements", "must be a list of strings")
    relation_raw = raw.get("relation", [])
    if not isinstance(relation_raw, list):
        raise err.InstanceValidationError("relation", "must be a list of pairs")
    relation: list[tuple[str, str]] = []
    for idx, pair in enumerate(relation_raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise err.InstanceValidationError(f"relation[{idx}]", "must be a pair of labels")
        relation.append((pair[0], pair[1]))
    autoclose = raw.get("autoclose", True)
    if not isinstance(autoclose, bool):
        raise err.InstanceValidationError("autoclose", "must be a boolean")

    try:
        p = build_preorder(tuple(elements), relation, autoclose=autoclose)
    except (err.EmptyUniverseError, err.DuplicateLabelError) as exc:
        raise err.InstanceValidationError("elements", str(exc)) from None
    except err.OrdtopError as exc:
        raise err.InstanceValidationError("relation", str(exc)) from None

    spec = None
    if "topology" in raw and raw["topology"] is not None:
        spec = _parse_topology(raw["topology"], p)
    functions = None
    if "functions" in raw and raw["functions"] is not None:
        functions = _parse_functions(raw["functions"], p)
    return InstanceDocument(
        elements=p.elements,
        relation=_canonical_relation(p.elements, relation),
        autoclose=autoclose,
        topology=spec,
        functions=functions,
    )


def _parse_topology(raw: object, p: Preorder) -> TopologySpec:
    from ordtop.jsonread import Opens

    if not isinstance(raw, dict):
        raise err.InstanceValidationError("topology", "must be an object")
    for key in raw:
        if key not in ("mode", "opens"):
            raise err.InstanceValidationError(f"topology.{key}", "unknown field")
    mode = raw.get("mode")
    if mode not in DOCUMENT_MODES:
        raise err.InstanceValidationError(
            "topology.mode", f"must be one of {', '.join(DOCUMENT_MODES)}"
        )
    opens = raw.get("opens")
    if mode != "explicit":
        if opens is not None:
            raise err.InstanceValidationError(
                "topology.opens", "only valid when mode is explicit"
            )
        return TopologySpec(mode)
    if not isinstance(opens, Opens):
        raise err.InstanceValidationError("topology.opens", "must be a list of label lists")
    if isinstance(opens.masks, err.InstanceValidationError):
        raise opens.masks
    try:
        return TopologySpec("explicit", topologies.from_opens(p.n, opens.masks))
    except err.NotATopologyError as exc:
        raise err.InstanceValidationError("topology.opens", exc.reason) from None


def _parse_functions(
    raw: object, p: Preorder
) -> tuple[tuple[str, tuple[Fraction, ...]], ...]:
    if not isinstance(raw, dict):
        raise err.InstanceValidationError("functions", "must be an object")
    from fractions import Fraction  # deferred: see representations._integer_function

    out = []
    for name in sorted(raw):
        table = raw[name]
        if not isinstance(table, dict):
            raise err.InstanceValidationError(f"functions.{name}", "must be an object")
        values = []
        known = set(p.elements)
        for x in p.elements:
            if x not in table:
                raise err.InstanceValidationError(
                    f"functions.{name}", f"missing value for {x!r}"
                )
        for x in table:
            if x not in known:
                raise err.InstanceValidationError(
                    f"functions.{name}", f"value for unknown element {x!r}"
                )
        for x in p.elements:
            v = table[x]
            if not isinstance(v, str):
                raise err.InstanceValidationError(
                    f"functions.{name}.{x}", 'rationals are written as "p/q" strings'
                )
            # Fraction would expand an exponent into an integer of that many
            # digits, so "1e10000000" alone would take seconds to parse.
            if "e" in v or "E" in v:
                raise err.InstanceValidationError(
                    f"functions.{name}.{x}", f"exponents are not accepted: {v!r}"
                )
            try:
                values.append(Fraction(v))
            except (ValueError, ZeroDivisionError):
                raise err.InstanceValidationError(
                    f"functions.{name}.{x}", f"not a rational: {v!r}"
                ) from None
        out.append((name, tuple(values)))
    return tuple(out)


def function_payload(elements: Sequence[str], values: Iterable[object]) -> dict[str, str]:
    """A function's JSON form ``{label: "p/q"}``, the one place it is written."""
    return {x: str(v) for x, v in zip(elements, values)}


def document_payload(doc: InstanceDocument) -> dict[str, object]:
    """The document as JSON values; the only place opens become label lists."""
    payload: dict[str, object] = {
        "elements": list(doc.elements),
        "relation": [list(pair) for pair in doc.relation],
        "autoclose": doc.autoclose,
    }
    if doc.topology is not None:
        tpay: dict[str, object] = {"mode": doc.topology.mode}
        t = doc.topology.explicit
        if t is not None:
            p = document_preorder(doc)
            tpay["opens"] = [list(labels_of(p, m)) for m in t.opens]
        payload["topology"] = tpay
    if doc.functions is not None:
        payload["functions"] = {
            name: function_payload(doc.elements, values) for name, values in doc.functions
        }
    return payload


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical JSON text (fixed field order, sorted sets, reduced rationals)."""
    return json.dumps(document_payload(doc), indent=2) + "\n"


def document_preorder(doc: InstanceDocument) -> Preorder:
    return build_preorder(doc.elements, doc.relation, autoclose=doc.autoclose)


def document_topology(doc: InstanceDocument, p: Preorder) -> Topology | None:
    """The document's topology on ``p``, whose elements are the document's
    in any order: an explicit one is re-indexed to ``p`` by label, and a
    label that only one of the two has is named in the error."""
    return _topology_on(doc, p, "explicit topology")


def _topology_on(doc: InstanceDocument, p: Preorder, source: str) -> Topology | None:
    if doc.topology is None:
        return None
    t = doc.topology.explicit
    if t is None:
        return resolve_topology_mode(doc.topology.mode, p)
    if p.elements == doc.elements:
        return t
    for label in p.elements:
        if label not in doc.elements:
            raise err.OrdtopError(f"{source} lacks element {label!r}")
    for label in doc.elements:
        if label not in p.elements:
            raise err.OrdtopError(f"{source} has element {label!r}, which the instance lacks")
    q = document_preorder(doc)
    rows = (mask_of(p, labels_of(q, t.rows[q.index(x)])) for x in p.elements)
    return Topology(p.n, tuple(rows))


def resolve_topology_mode(mode: str, p: Preorder) -> Topology:
    """The topology of ``p`` that the mode name ``mode`` names."""
    build = TOPOLOGY_MODES.get(mode)
    if build is None:
        raise err.InstanceValidationError("topology.mode", f"unknown mode {mode!r}")
    return build(p)


class Instance(NamedTuple):
    """A preorder and the topology named for it (None when none was), with
    the mode name that named it (None when explicit opens gave it)."""

    p: Preorder
    topology: Topology | None
    mode: str | None


def read_document(path: str) -> InstanceDocument:
    """The instance document in the file at ``path``."""
    try:
        # No name holds the file's bytes, so the parse frees them once decoded.
        return parse_instance(Path(path).read_bytes())
    except OSError as exc:
        raise err.OrdtopError(f"cannot read {path}: {exc}") from None


def read_instance(path: str, topology: str | None = None) -> Instance:
    """The instance in the file at ``path``, in the topology that ``topology``
    names: a mode name, the path of an instance file carrying one (whose
    explicit opens are read by label), or None for the document's own."""
    doc = read_document(path)
    p = document_preorder(doc)
    if topology in TOPOLOGY_MODES:
        return Instance(p, TOPOLOGY_MODES[topology](p), topology)
    other = doc if topology is None else read_document(topology)
    spec = other.topology
    if spec is None and topology is not None:
        raise err.OrdtopError(f"topology file {topology} carries no topology")
    mode = spec.mode if spec is not None and spec.explicit is None else None
    return Instance(p, _topology_on(other, p, f"topology file {topology}"), mode)


def witness_payload(inst: Instance) -> dict[str, object]:
    """``inst`` as a complete witness document: its topology by the mode name
    that named it, if one did, else as explicit opens."""
    doc = make_document(inst.p, inst.topology)
    if inst.mode is not None:
        doc = doc._replace(topology=TopologySpec(inst.mode))
    return document_payload(doc)


def document_functions(doc: InstanceDocument) -> dict[str, ValueFunction]:
    if doc.functions is None:
        return {}
    return {
        name: ValueFunction(doc.elements, values) for name, values in doc.functions
    }


def document_family(doc: InstanceDocument) -> FunctionFamily | None:
    funcs = document_functions(doc)
    if not funcs:
        return None
    return FunctionFamily(tuple(funcs[name] for name in sorted(funcs)))


def export_dot(p: Preorder) -> str:
    """Hasse diagram of the quotient as a DOT digraph.

    Equivalence classes collapse to one node whose id joins the sorted
    member labels with commas; edges are the covering pairs.  Ids are
    quoted, with backslashes and double quotes escaped.
    """
    q = quotient(p).order
    ids, rows, cols = q.elements, q.rows, q.cols
    # A cover of i is a minimal point j of the set strictly above i.
    covers = [
        (ids[i], ids[j])
        for i in range(q.n)
        for j in range(q.n)
        if rows[i] & ~cols[i] & cols[j] == 1 << j
    ]
    lines = ["digraph preorder {", "  rankdir=BT;"]
    for node in sorted(ids):
        lines.append(f"  {_dot_id(node)};")
    for src, dst in sorted(covers):
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: str) -> str:
    """``label`` as a quoted DOT id."""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
