"""Finite preorders on labelled ground sets.

A :class:`Preorder` stores an ordered tuple of opaque string labels and a
reflexive-transitive relation as per-element bitmask rows: ``rows[i]``
holds the set ``{j : element i <= element j}``.  Subsets of the ground
set ("element sets") travel as plain int masks; :func:`mask_of` and
:func:`labels_of` convert at the boundary.

All values are immutable after construction and every operation is a
pure function of its inputs, so everything here is safe to share across
threads.  Randomised operations take explicit seeds.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from ordtop import kernels
from ordtop.errors import (
    DuplicateLabelError,
    EmptySetError,
    EmptyUniverseError,
    InconsistentForcingError,
    NotReflexiveError,
    NotTransitiveError,
    NotTotalError,
    PremiseFailedError,
    UnknownLabelError,
)

class PairClass(Enum):
    """How an ordered pair (a, b) sits in the preorder."""

    EQUIVALENT = "equivalent"
    STRICTLY_BELOW = "strictly-below"
    STRICTLY_ABOVE = "strictly-above"
    INCOMPARABLE = "incomparable"


class ContourKind(Enum):
    WEAK_LOWER = "weak-lower"
    WEAK_UPPER = "weak-upper"
    STRICT_LOWER = "strict-lower"
    STRICT_UPPER = "strict-upper"


class SetDirection(Enum):
    UP = "up"
    DOWN = "down"


class _lazy:
    """Compute an attribute on first access and store it in the instance dict.

    A non-data descriptor, so later reads find the stored value without
    calling back into Python; unlike ``functools.cached_property`` on
    Python 3.11, no lock is taken: two threads racing on a first access
    both compute the same value from immutable fields, and either store is
    correct.  Equality and hashing of the owner read its fields by name, so
    they never see the stored value.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        obj.__dict__[self.name] = value
        return value


class _Record:
    """Base of the hand-written records: immutable, with the fields named in
    ``_fields``, which alone are compared, hashed and shown in the repr.
    A record equals only records of its own class.  Subclasses store their
    fields in ``__init__`` through ``object.__setattr__`` (or the instance
    dict), since assignment raises :class:`AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return (type(self), self._values())


class Preorder(_Record):
    """Immutable finite preorder; construct via :func:`build_preorder`.

    Its fields are ``elements`` and ``rows``; the instance dict also holds
    ``n``, the number of elements, and the :class:`_lazy` attributes once
    they have been read.
    """

    _fields = ("elements", "rows")

    def __init__(self, elements: tuple[str, ...], rows: tuple[int, ...]) -> None:
        fields = self.__dict__
        fields["elements"] = elements
        fields["rows"] = rows
        fields["n"] = len(elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    @_lazy
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.elements)}

    @_lazy
    def cols(self) -> tuple[int, ...]:
        """cols[j] = mask of {i : element i <= element j}."""
        return tuple(kernels._columns(self.rows))

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def label(self, i: int) -> str:
        return self.elements[i]

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def leq(self, a: str, b: str) -> bool:
        return self.leq_idx(self.index(a), self.index(b))

    def eq_class_idx(self, i: int) -> int:
        """Mask of the equivalence class of element i."""
        return self.rows[i] & self.cols[i]

    def incomparable_pair(self) -> tuple[str, str] | None:
        """Some incomparable pair, or None when the preorder is total."""
        for i in range(self.n):
            comparable = self.rows[i] | self.cols[i]
            missing = ~comparable & self.full_mask
            if missing:
                j = (missing & -missing).bit_length() - 1
                return (self.elements[i], self.elements[j])
        return None

    def is_total(self) -> bool:
        return self.incomparable_pair() is None


def mask_of(p: Preorder, labels: Iterable[str]) -> int:
    mask = 0
    for label in labels:
        mask |= 1 << p.index(label)
    return mask


def labels_of(p: Preorder, mask: int) -> tuple[str, ...]:
    kernels.check_mask(mask, p.n)
    out = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(p.elements[i])
    return tuple(out)


def build_preorder(
    elements: Sequence[str],
    pairs: Iterable[tuple[str, str]] = (),
    autoclose: bool = True,
) -> Preorder:
    """Build a preorder from generating pairs.

    With ``autoclose`` the reflexive-transitive closure of the pairs is
    taken; otherwise the pairs must already satisfy both axioms (every
    ``(a, a)`` must be listed explicitly).
    """
    labels = tuple(elements)
    if not labels:
        raise EmptyUniverseError()
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabelError(label)
        seen.add(label)
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    rows = [0] * n
    for a, b in pairs:
        if a not in index:
            raise UnknownLabelError(a)
        if b not in index:
            raise UnknownLabelError(b)
        rows[index[a]] |= 1 << index[b]
    if autoclose:
        for i in range(n):
            rows[i] |= 1 << i
        rows = kernels.transitive_closure(rows)
    else:
        for i in range(n):
            if not rows[i] >> i & 1:
                raise NotReflexiveError(labels[i])
        bad = kernels.transitivity_violation(rows)
        if bad is not None:
            i, j, k = bad
            raise NotTransitiveError((labels[i], labels[j], labels[k]))
    return Preorder(labels, tuple(rows))


def classify_pair(p: Preorder, a: str, b: str) -> PairClass:
    ab = p.leq(a, b)
    ba = p.leq(b, a)
    if ab and ba:
        return PairClass.EQUIVALENT
    if ab:
        return PairClass.STRICTLY_BELOW
    if ba:
        return PairClass.STRICTLY_ABOVE
    return PairClass.INCOMPARABLE


def contour(p: Preorder, a: str, kind: ContourKind) -> int:
    """Mask of the requested contour set of ``a``."""
    i = p.index(a)
    if kind is ContourKind.WEAK_UPPER:
        return p.rows[i]
    if kind is ContourKind.WEAK_LOWER:
        return p.cols[i]
    if kind is ContourKind.STRICT_UPPER:
        return p.rows[i] & ~p.cols[i]
    return p.cols[i] & ~p.rows[i]


class MonotoneVerdict(NamedTuple):
    ok: bool
    witness: tuple[str, str] | None = None


def is_monotone_set(p: Preorder, mask: int, direction: SetDirection) -> MonotoneVerdict:
    """Check up-set / down-set closure; on failure return a violating pair."""
    kernels.check_mask(mask, p.n)
    reach = p.rows if direction is SetDirection.UP else p.cols
    i = kernels.first_escape(reach, mask)
    if i < 0:
        return MonotoneVerdict(True)
    escaped = reach[i] & ~mask
    j = (escaped & -escaped).bit_length() - 1
    return MonotoneVerdict(False, (p.elements[i], p.elements[j]))


class Quotient(NamedTuple):
    """Partial order on equivalence classes plus the projection map."""

    order: Preorder
    class_of: dict[str, int]
    class_masks: tuple[int, ...]


def quotient(p: Preorder) -> Quotient:
    """Collapse equivalence classes; the result is antisymmetric."""
    class_masks: list[int] = []
    class_id: dict[int, int] = {}
    class_of: dict[str, int] = {}
    reps = 0  # the first member of each class
    for i in range(p.n):
        m = p.eq_class_idx(i)
        if m not in class_id:
            class_id[m] = len(class_masks)
            class_masks.append(m)
            reps |= 1 << i
        class_of[p.elements[i]] = class_id[m]
    labels = tuple(",".join(sorted(labels_of(p, m))) for m in class_masks)
    rows = tuple(kernels.compact_rows(p.rows, reps))
    return Quotient(Preorder(labels, rows), class_of, tuple(class_masks))


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


class WidthResult(NamedTuple):
    size: int
    antichain: int


def width(p: Preorder) -> WidthResult:
    """The lowest maximum antichain, by Dilworth-Koenig matching in polynomial time."""
    mask = kernels.max_antichain(list(p.rows))
    return WidthResult(mask.bit_count(), mask)


def _total_preorder_from_class_order(p: Preorder, q: Quotient, order: Sequence[int]) -> Preorder:
    """The total preorder on p's elements that ranks q's classes by ``order``,
    lowest first, with its columns stored."""
    cols, rows = kernels.ranked_contours(p.n, [q.class_masks[c] for c in order])
    e = Preorder(p.elements, tuple(rows))
    e.__dict__["cols"] = tuple(cols)
    return e


def szpilrajn_extension(
    p: Preorder,
    forced: Iterable[tuple[str, str]] = (),
    seed: int = 0,
) -> Preorder:
    """Seeded total extension of ``p`` with the forced pairs made strict.

    The quotient is extended to a total order by a randomised topological
    sort (tie-breaking driven by ``seed``), then lifted back to the
    elements, which preserves the strict part by construction.
    """
    q = quotient(p)
    k = q.order.n
    class_rows = list(q.order.rows)
    for a, b in forced:
        ia, ib = p.index(a), p.index(b)
        if p.leq_idx(ib, ia):
            raise InconsistentForcingError(
                (a, b), f"{b!r} is already below-or-equivalent-to {a!r}"
            )
        class_rows[q.class_of[a]] |= 1 << q.class_of[b]
    class_rows = kernels.transitive_closure(class_rows)
    for ci in range(k):
        for cj in range(ci + 1, k):
            if class_rows[ci] >> cj & 1 and class_rows[cj] >> ci & 1:
                pair = (q.order.elements[ci], q.order.elements[cj])
                raise InconsistentForcingError(pair, "forced pairs create a cycle")
    order = _szpilrajn_class_order(kernels._columns(class_rows), seed)
    return _total_preorder_from_class_order(p, q, order)


def _szpilrajn_class_order(class_cols: Sequence[int], seed: int) -> list[int]:
    """Core of :func:`szpilrajn_extension`: the drawn class order, lowest
    first.  ``class_cols`` are the columns of a reflexive, transitive,
    antisymmetric relation on the classes of ``quotient(p)`` that contains
    its order; without forced pairs they are ``quotient(p).order.cols``, so
    a caller drawing many extensions of one preorder computes them once.
    A class is a source when its column meets the remaining classes in
    itself alone."""
    k = len(class_cols)
    rng = random.Random(seed)
    remaining = (1 << k) - 1
    order: list[int] = []
    while remaining:
        sources = [c for c in range(k) if class_cols[c] & remaining == 1 << c]
        pick = sources[rng.randrange(len(sources))]
        order.append(pick)
        remaining &= ~(1 << pick)
    return order


def enumerate_linear_extensions(p: Preorder, limit: int) -> list[Preorder]:
    """Distinct total extensions of ``p`` (strict part preserved), at most ``limit``.

    Extensions keep the equivalence classes intact and order them in every
    way compatible with the quotient; enumeration is lexicographic in class
    index, so the result is deterministic and exhaustive when the total
    count does not exceed ``limit``.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    q = quotient(p)
    k = q.order.n
    class_cols = q.order.cols
    results: list[Preorder] = []
    # Each frame is a class order so far and the classes it leaves; the
    # next classes are pushed highest first, so they pop lowest first.
    stack: list[tuple[list[int], int]] = [([], (1 << k) - 1)]
    while stack and len(results) < limit:
        acc, remaining = stack.pop()
        if not remaining:
            results.append(_total_preorder_from_class_order(p, q, acc))
            continue
        # c is next when no other remaining class lies below it
        stack.extend(
            (acc + [c], remaining & ~(1 << c))
            for c in range(k - 1, -1, -1)
            if class_cols[c] & remaining == 1 << c
        )
    return results


class DirectedSupVerdict(NamedTuple):
    is_directed: bool
    sup_class: int | None


def directed_sup(p: Preorder, mask: int) -> DirectedSupVerdict:
    """Directedness of a subset and its supremum class (if one exists).

    The supremum exists when the minimal upper bounds of the subset form a
    single equivalence class; that class mask is returned.
    """
    kernels.check_mask(mask, p.n)
    if not mask:
        raise EmptySetError("directed-set query")
    return DirectedSupVerdict(*kernels.directed_sup(p.rows, p.cols, mask))


def restrict(p: Preorder, mask: int) -> Preorder:
    """Induced sub-preorder on the elements of ``mask`` (labels kept)."""
    labels = labels_of(p, mask)
    if not mask:
        raise EmptySetError("carrier of a sub-preorder")
    return Preorder(labels, tuple(kernels.compact_rows(p.rows, mask)))


def _check_chain_and_outsider(p: Preorder, chain: int, x: str) -> None:
    """Validate a chain-restriction instance apart from its topology:
    ``chain`` a nonempty chain of ``p``, and ``x`` a point outside it that
    is comparable to none of it."""
    if not chain:
        raise PremiseFailedError("chain is empty")
    kernels.check_mask(chain, p.n)
    rows, cols = p.rows, p.cols
    m = chain
    while m:
        a = (m & -m).bit_length() - 1
        m &= m - 1
        loose = chain & ~(rows[a] | cols[a])
        if loose:
            b = (loose & -loose).bit_length() - 1
            raise PremiseFailedError(
                "chain is not totally ordered", (p.elements[a], p.elements[b])
            )
    xi = p.index(x)
    if chain >> xi & 1:
        raise PremiseFailedError(f"{x!r} lies inside the chain")
    touching = chain & (rows[xi] | cols[xi])
    if touching:
        c = (touching & -touching).bit_length() - 1
        raise PremiseFailedError(
            f"{x!r} is comparable to a chain element", (x, p.elements[c])
        )
