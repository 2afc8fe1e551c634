"""Instance documents: the JSON file format, parsing, and exporters.

A document carries a ground set, relation pairs, an optional topology
(either a derived mode or an explicit open family), and optional named
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
from typing import TYPE_CHECKING, Mapping, NamedTuple

from ordtop import errors as err
from ordtop import kernels, topologies
from ordtop.preorders import Preorder, build_preorder, mask_of, quotient
from ordtop.representations import FunctionFamily, ValueFunction
from ordtop.topologies import Topology

if TYPE_CHECKING:
    from fractions import Fraction

TOPOLOGY_MODES = ("upper", "alexandrov", "scott", "order", "explicit")

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
    if mode not in TOPOLOGY_MODES:
        raise err.InstanceValidationError(
            "topology.mode", f"must be one of {', '.join(TOPOLOGY_MODES)}"
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


def _labels(elements: tuple[str, ...], mask: int) -> list[str]:
    return [x for i, x in enumerate(elements) if mask >> i & 1]


def document_payload(doc: InstanceDocument) -> dict[str, object]:
    """The document as JSON values; the only place opens become label lists."""
    payload: dict[str, object] = {
        "elements": list(doc.elements),
        "relation": [list(pair) for pair in doc.relation],
        "autoclose": doc.autoclose,
    }
    if doc.topology is not None:
        tpay: dict[str, object] = {"mode": doc.topology.mode}
        if doc.topology.explicit is not None:
            tpay["opens"] = [_labels(doc.elements, m) for m in doc.topology.explicit.opens]
        payload["topology"] = tpay
    if doc.functions is not None:
        payload["functions"] = {
            name: {x: str(v) for x, v in zip(doc.elements, values)}
            for name, values in doc.functions
        }
    return payload


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical JSON text (fixed field order, sorted sets, reduced rationals)."""
    return json.dumps(document_payload(doc), indent=2) + "\n"


def document_preorder(doc: InstanceDocument) -> Preorder:
    return build_preorder(doc.elements, doc.relation, autoclose=doc.autoclose)


def document_topology(doc: InstanceDocument, p: Preorder) -> Topology | None:
    """The document's topology on ``p``, whose elements are the document's
    in any order: an explicit one is re-indexed to ``p`` by label, through
    the validating :class:`Topology` constructor, so labels that differ
    raise an :class:`~ordtop.errors.OrdtopError`."""
    if doc.topology is None:
        return None
    t = doc.topology.explicit
    if t is None:
        return resolve_topology_mode(doc.topology.mode, p)
    if p.elements == doc.elements:
        return t
    by_label = dict(zip(doc.elements, t.rows))
    rows = (mask_of(p, _labels(doc.elements, by_label.get(x, 0))) for x in p.elements)
    return Topology(p.n, tuple(rows))


def resolve_topology_mode(mode: str, p: Preorder) -> Topology:
    if mode == "upper":
        return topologies.upper_topology(p)
    if mode == "alexandrov":
        return topologies.alexandrov_topology(p)
    if mode == "scott":
        return topologies.scott_topology(p)
    if mode == "order":
        return topologies.order_topology(p)
    if mode == "discrete":
        return topologies.discrete(p.n)
    if mode == "indiscrete":
        return topologies.indiscrete(p.n)
    raise err.InstanceValidationError("topology.mode", f"unknown mode {mode!r}")


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
    q = quotient(p)
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
        lines.append(f"  {_dot_id(node)};")
    for src, dst in sorted(covers):
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: str) -> str:
    """``label`` as a quoted DOT id."""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
