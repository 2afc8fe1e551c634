"""The topology and functions fields of an instance document.

The one table of topology mode names, the record a document's topology
field parses to, and the checks that parse the two fields.
:mod:`ordtop.instances` parses the rest of a document and re-exports the
table and the record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from ordtop import errors as err
from ordtop import topologies
from ordtop.preorders import Preorder
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


class TopologySpec(NamedTuple):
    mode: str
    explicit: Topology | None = None


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
