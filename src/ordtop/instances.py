"""Instance documents: the JSON file format, parsing and serialisation.

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

import itertools
import json
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ordtop import errors as err
from ordtop import kernels

# The mode tables, the topology record and DOT export are re-exported.
from ordtop.fields import (
    DOCUMENT_MODES,
    TOPOLOGY_MODES,
    TopologySpec,
    _parse_functions,
    _parse_topology,
)
from ordtop.preorders import Preorder, build_preorder, export_dot, labels_of, mask_of
from ordtop.representations import FunctionFamily, ValueFunction
from ordtop.topologies import Topology

if TYPE_CHECKING:
    from fractions import Fraction

_DOC_FIELDS = ("elements", "relation", "autoclose", "topology", "functions")

# Characters of text that indented_json and OpenListing.text join into one batch.
_JSON_BATCH = 4096


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


def function_payload(elements: Sequence[str], values: Iterable[object]) -> dict[str, str]:
    """A function's JSON form ``{label: "p/q"}``, the one place it is written."""
    return {x: str(v) for x, v in zip(elements, values)}


def document_payload(doc: InstanceDocument) -> dict[str, object]:
    """The document as JSON values; explicit opens as an :class:`OpenListing`."""
    payload: dict[str, object] = {
        "elements": list(doc.elements),
        "relation": [list(pair) for pair in doc.relation],
        "autoclose": doc.autoclose,
    }
    if doc.topology is not None:
        tpay: dict[str, object] = {"mode": doc.topology.mode}
        t = doc.topology.explicit
        if t is not None:
            tpay["opens"] = OpenListing(document_preorder(doc), t.opens)
        payload["topology"] = tpay
    if doc.functions is not None:
        payload["functions"] = {
            name: function_payload(doc.elements, values) for name, values in doc.functions
        }
    return payload


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical JSON text (fixed field order, sorted sets, reduced rationals)."""
    return "".join(indented_json(document_payload(doc))) + "\n"


def indented_json(obj: object) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)``, in batches; the one indented writer."""
    return _batches(json.JSONEncoder(indent=2).iterencode(obj))


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    """The text of ``pieces``, each batch joined once it holds ``_JSON_BATCH``
    characters: holding every piece of a large listing at once costs
    megabytes, and writing them one by one costs a system call each when
    stdout is unbuffered (``python -u``)."""
    batch = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _JSON_BATCH:
            yield "".join(batch)
            batch.clear()
            size = 0
    yield "".join(batch)


def _read_by_iterating(self, *args):
    raise TypeError("an OpenListing is read only by iterating it, one label tuple per open")


class OpenListing(tuple):
    """The open masks of a topology on ``p``, read as label tuples; the only
    place opens become label lists.

    Iterating yields ``labels_of(p, m)`` for one mask at a time, so a JSON
    encoder writes each open's labels while only the masks are held.  Every
    other way in to the stored masks (indexing, membership, comparison,
    hashing, copying, pickling) raises :class:`TypeError`, so none is read
    as if it were labels; ``repr`` is the list of label lists, and
    :meth:`text` writes it in batches.
    """

    def __new__(cls, p: Preorder, masks: Iterable[int]) -> OpenListing:
        listing = super().__new__(cls, masks)
        listing.p = p
        return listing

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return map(partial(labels_of, self.p), tuple.__iter__(self))

    def __repr__(self) -> str:
        return "".join(self.text())

    def text(self) -> Iterator[str]:
        """``repr(self)`` in batches, each open's label list built only when
        its batch is."""
        pieces = (f"{', ' if k else ''}{list(labels)!r}" for k, labels in enumerate(self))
        return _batches(itertools.chain(("[",), pieces, ("]",)))

    __getitem__ = __contains__ = __hash__ = __reduce_ex__ = count = index = _read_by_iterating
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read_by_iterating
    __add__ = __mul__ = __rmul__ = _read_by_iterating


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


def read_document(path: str, note: str = "") -> InstanceDocument:
    """The instance document in the file at ``path``; ``note`` ends the
    error when the file cannot be read."""
    try:
        # No name holds the file's bytes, so the parse frees them once decoded.
        return parse_instance(Path(path).read_bytes())
    except OSError as exc:
        raise err.OrdtopError(f"cannot read {path}: {exc}{note}") from None


def read_instance(path: str, topology: str | None = None) -> Instance:
    """The instance in the file at ``path``, in the topology that ``topology``
    names: a mode name, the path of an instance file carrying one (whose
    explicit opens are read by label), or None for the document's own."""
    doc = read_document(path)
    p = document_preorder(doc)
    if topology in TOPOLOGY_MODES:
        return Instance(p, TOPOLOGY_MODES[topology](p), topology)
    if topology is None:
        other = doc
    else:
        modes = ", ".join(TOPOLOGY_MODES)
        other = read_document(
            topology, f"; the topology is a readable instance file or one of the modes {modes}"
        )
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
