"""Utility functions, multi-utility families, and semicontinuity checks.

Values are exact rationals throughout; the strict inequalities in the
Richter-Peleg checks never touch floating point.  Inside the checkers a
function is compared through integer keys, each value's numerator over
the common denominator of that function's values: every comparison is
between two values of one function, so the keys order exactly as the
rationals do.  A ValueFunction is aligned with the element order of the
preorder it describes, which also pins it to a topology on the same
ground set.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from ordtop import kernels
from ordtop.errors import (
    DomainMismatchError,
    EmptyFamilyError,
    GroundMismatchError,
    NotLscPreorderError,
    NotTotalError,
)
from ordtop.preorders import Preorder, _Record, quotient
from ordtop.topologies import Topology

if TYPE_CHECKING:
    from fractions import Fraction


class ValueFunction(_Record):
    """Exact-rational function aligned with an element order."""

    __slots__ = ("elements", "values")
    _fields = __slots__

    def __init__(self, elements: tuple[str, ...], values: tuple[Fraction, ...]) -> None:
        if len(elements) != len(values):
            raise DomainMismatchError(
                f"{len(values)} values for {len(elements)} elements"
            )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, elements: Iterable[str], mapping: Mapping[str, object]) -> ValueFunction:
        labels = tuple(elements)
        missing = [x for x in labels if x not in mapping]
        if missing:
            raise DomainMismatchError(f"no value for {missing[0]!r}")
        known = set(labels)
        extra = [x for x in mapping if x not in known]
        if extra:
            raise DomainMismatchError(f"value for unknown element {extra[0]!r}")
        from fractions import Fraction

        return cls(labels, tuple(Fraction(mapping[x]) for x in labels))

    def __call__(self, label: str) -> Fraction:
        try:
            return self.values[self.elements.index(label)]
        except ValueError:
            raise DomainMismatchError(f"no value for {label!r}") from None

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.elements, self.values))


class FunctionFamily(NamedTuple):
    members: tuple[ValueFunction, ...]


class Sense(Enum):
    LOWER = "lower"
    UPPER = "upper"
    BOTH = "both"


class WitnessKind(Enum):
    #: x <= y but some member decreases
    ORDER_VIOLATED = "order-violated"
    #: not(x <= y) yet every member weakly increases
    NOT_SEPARATED = "not-separated"
    #: x strictly below y but some member is not strictly increasing
    STRICTNESS_VIOLATED = "strictness-violated"


class RepWitness(NamedTuple):
    x: str
    y: str
    member: int | None
    kind: WitnessKind


class RepVerdict(NamedTuple):
    ok: bool
    witness: RepWitness | None = None


class MonotonicityVerdict(NamedTuple):
    isotonic: bool
    order_preserving: bool
    witness: tuple[str, str] | None = None


def _require_same_domain(f: ValueFunction, p: Preorder) -> None:
    if f.elements != p.elements:
        raise DomainMismatchError("function is not aligned with the preorder's elements")


def _integer_keys(values: tuple[Fraction, ...]) -> list[int]:
    """Each value's numerator over the common denominator of ``values``."""
    denominator = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denominator // v.denominator) for v in values]


def _level_sets(f: ValueFunction) -> tuple[list[int], list[int]]:
    """Per position i, the masks {j : f(j) <= f(i)} and {j : f(j) >= f(i)}."""
    return _key_level_sets(_integer_keys(f.values))


def _key_level_sets(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """:func:`_level_sets` of a function given by its integer keys: the
    contours of the total preorder whose classes are the positions of equal keys."""
    classes: dict[int, int] = {}
    for i, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << i
    return kernels.ranked_contours(len(keys), [classes[key] for key in sorted(classes)])


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def monotonicity(f: ValueFunction, p: Preorder) -> MonotonicityVerdict:
    """Isotonicity (x <= y implies f(x) <= f(y)) and order preservation."""
    _require_same_domain(f, p)
    below, above = _level_sets(f)
    rows, cols = p.rows, p.cols
    for i in range(p.n):
        bad = rows[i] & ~above[i]  # i <= j yet f(i) > f(j)
        if bad:
            return MonotonicityVerdict(False, False, (p.elements[i], p.elements[_lowest(bad)]))
    for i in range(p.n):
        bad = rows[i] & ~cols[i] & below[i]  # i < j yet f(i) >= f(j)
        if bad:
            return MonotonicityVerdict(True, False, (p.elements[i], p.elements[_lowest(bad)]))
    return MonotonicityVerdict(True, True)


def _require_family(family: FunctionFamily, p: Preorder) -> None:
    if not family.members:
        raise EmptyFamilyError()
    for f in family.members:
        _require_same_domain(f, p)


def _multiutility_verdict(
    levels: list[tuple[list[int], list[int]]], p: Preorder
) -> RepVerdict:
    """The multi-utility check on the members' level sets (see :func:`_level_sets`).

    The witness is the first pair (i, j), in row-major order, where i <= j
    and "every member weakly increases" disagree.
    """
    for i in range(p.n):
        all_le = p.full_mask
        for _, above in levels:
            all_le &= above[i]
        diff = p.rows[i] ^ all_le
        if not diff:
            continue
        j = _lowest(diff)
        if p.rows[i] >> j & 1:
            member = next(k for k, (_, above) in enumerate(levels) if not above[i] >> j & 1)
            return RepVerdict(
                False,
                RepWitness(p.elements[i], p.elements[j], member,
                           WitnessKind.ORDER_VIOLATED),
            )
        return RepVerdict(
            False,
            RepWitness(p.elements[i], p.elements[j], None, WitnessKind.NOT_SEPARATED),
        )
    return RepVerdict(True)


def is_multiutility(family: FunctionFamily, p: Preorder) -> RepVerdict:
    """x <= y iff every member weakly increases from x to y, over all pairs."""
    _require_family(family, p)
    return _multiutility_verdict([_level_sets(f) for f in family.members], p)


def is_richter_peleg_multiutility(family: FunctionFamily, p: Preorder) -> RepVerdict:
    """A multi-utility whose members are all order-preserving.

    Also re-checks the derived strict-part equivalence (x strictly below y
    iff every member strictly increases), which such a family must satisfy.
    """
    _require_family(family, p)
    return _rp_verdict([_level_sets(f) for f in family.members], p)


def _rp_verdict(levels: list[tuple[list[int], list[int]]], p: Preorder) -> RepVerdict:
    """Core of :func:`is_richter_peleg_multiutility`, on the members' level sets."""
    base = _multiutility_verdict(levels, p)
    if not base.ok:
        return base
    n = p.n
    strict = [p.rows[i] & ~p.cols[i] for i in range(n)]
    for k, (below, _) in enumerate(levels):
        for i in range(n):
            bad = strict[i] & below[i]  # i < j yet f(i) >= f(j)
            if bad:
                return RepVerdict(
                    False,
                    RepWitness(p.elements[i], p.elements[_lowest(bad)], k,
                               WitnessKind.STRICTNESS_VIOLATED),
                )
    for i in range(n):
        all_lt = p.full_mask
        for below, _ in levels:
            all_lt &= ~below[i]
        diff = strict[i] ^ all_lt
        if diff:
            return RepVerdict(
                False,
                RepWitness(p.elements[i], p.elements[_lowest(diff)], None,
                           WitnessKind.STRICTNESS_VIOLATED),
            )
    return RepVerdict(True)


class ScVerdict(NamedTuple):
    ok: bool
    at: str | None = None
    failing_set: int | None = None


def semicontinuity(f: ValueFunction, t: Topology, sense: Sense) -> ScVerdict:
    """Semicontinuity of ``f`` via closedness of its level sets.

    Lower: every sublevel set {y : f(y) <= f(x)} is closed.  Upper: dually
    with superlevel sets.  Both: both, i.e. continuity at finite scale.
    """
    if len(f.elements) != t.ground_size:
        raise DomainMismatchError(
            f"{len(f.elements)} elements vs ground size {t.ground_size}"
        )
    below, above = _level_sets(f)
    senses = (Sense.LOWER, Sense.UPPER) if sense is Sense.BOTH else (sense,)
    for s in senses:
        levels = below if s is Sense.LOWER else above
        x = kernels.first_not_closed(t.rows, levels)
        if x >= 0:
            return ScVerdict(False, f.elements[x], levels[x])
    return ScVerdict(True)


class PreorderScVerdict(NamedTuple):
    ok: bool
    witness: str | None = None
    contour: int | None = None


def preorder_semicontinuity(p: Preorder, t: Topology, sense: Sense) -> PreorderScVerdict:
    """Closedness of every weak lower (resp. upper) contour in ``t``."""
    if p.n != t.ground_size:
        raise GroundMismatchError(p.n, t.ground_size)
    if sense is Sense.BOTH:
        raise ValueError("preorder semicontinuity is checked one sense at a time")
    # The weak lower contour of element i is p.cols[i]; the weak upper one is p.rows[i].
    contours = p.cols if sense is Sense.LOWER else p.rows
    i = kernels.first_not_closed(t.rows, contours)
    if i >= 0:
        return PreorderScVerdict(False, p.elements[i], contours[i])
    return PreorderScVerdict(True)


def _integer_function(p: Preorder, values: Iterable[int]) -> ValueFunction:
    """The function on ``p``'s elements taking the integer ``values``, as Fractions."""
    # Imported where a Fraction is built, not at module scope: fractions
    # loads decimal, about 0.44 MB and 4.5 ms per process on CPython 3.11,
    # and the commands that only decide properties never build a rational.
    from fractions import Fraction

    return ValueFunction(p.elements, tuple(map(Fraction, values)))


def _indicator_family(p: Preorder, masks: Iterable[int]) -> FunctionFamily:
    """One 0/1 member per mask: 1 on the mask, 0 off it."""
    positions = range(p.n)
    return FunctionFamily(tuple(
        _integer_function(p, [m >> j & 1 for j in positions]) for m in masks
    ))


def construct_indicator_multiutility(p: Preorder) -> FunctionFamily:
    """One 0/1 member per element x: the indicator of the up-set of x."""
    return _indicator_family(p, p.rows)


def construct_lsc_multiutility(p: Preorder, t: Topology) -> FunctionFamily:
    """One member per element x: 0 on the weak lower contour of x, 1 outside.

    Every member's sublevel sets are then exactly the closed contours, so
    the family is lower semicontinuous whenever the preorder is.
    """
    sc = preorder_semicontinuity(p, t, Sense.LOWER)
    if not sc.ok:
        assert sc.witness is not None and sc.contour is not None
        raise NotLscPreorderError(sc.witness, sc.contour)
    return _indicator_family(p, [p.full_mask ^ below for below in p.cols])


def construct_rp_utility(p: Preorder) -> ValueFunction:
    """f(y) = number of elements y is not below; isotonic and order-preserving."""
    return _integer_function(p, _rp_utility_keys(p))


def _rp_utility_keys(p: Preorder) -> list[int]:
    """The integer values of :func:`construct_rp_utility`."""
    n = p.n
    return [n - r.bit_count() for r in p.rows]


def rank_utility(p: Preorder) -> ValueFunction:
    """Rank of each element's equivalence class along a total preorder."""
    bad = p.incomparable_pair()
    if bad is not None:
        raise NotTotalError(bad)
    q = quotient(p)
    k = q.order.n
    # sort classes along the chain: fewer classes below means lower rank
    by_position = sorted(range(k), key=lambda c: q.order.cols[c].bit_count())
    rank_of_class = {c: pos for pos, c in enumerate(by_position)}
    return _integer_function(p, [rank_of_class[q.class_of[x]] for x in p.elements])


class LscRpResult(NamedTuple):
    """Certificate for the lsc Richter-Peleg decision procedure.

    Exactly one of ``family`` (the representation) and ``obstruction``
    (an element whose weak lower contour is not closed) is set.
    """

    family: FunctionFamily | None = None
    obstruction: str | None = None
    obstruction_contour: int | None = None

    @property
    def has_family(self) -> bool:
        return self.family is not None


def construct_finite_lsc_rp_multiutility(p: Preorder, t: Topology) -> LscRpResult:
    """Decide lsc Richter-Peleg multi-utility representability on ``(p, t)``.

    When every weak lower contour is closed, returns the family
    ``g_x = f + (n + 1) * v_x`` where ``f`` counts non-dominated elements,
    ``v_x`` is the 0/1 contour indicator, and ``n`` is the maximum of
    ``f``; the scale makes every separation an integer gap.  Otherwise
    returns the first offending contour as the obstruction.
    """
    sc, rows = _lsc_rp_keys(p, t)
    if not sc.ok:
        return LscRpResult(obstruction=sc.witness, obstruction_contour=sc.contour)
    return LscRpResult(family=FunctionFamily(tuple(_integer_function(p, row) for row in rows)))


def _lsc_rp_keys(p: Preorder, t: Topology) -> tuple[PreorderScVerdict, list[list[int]]]:
    """Core of :func:`construct_finite_lsc_rp_multiutility`.

    Returns the lower-semicontinuity verdict of ``p`` in ``t`` and, when it
    holds, the family as :func:`_lsc_rp_rows`; the rows are empty otherwise.
    """
    sc = preorder_semicontinuity(p, t, Sense.LOWER)
    return sc, (_lsc_rp_rows(p) if sc.ok else [])


def _lsc_rp_rows(p: Preorder) -> list[list[int]]:
    """The family of :func:`construct_finite_lsc_rp_multiutility` as integer
    rows (row i is g_i on the element order).  It depends on ``p`` alone;
    the topology decides only whether it is returned.  The values are
    integers, so each row is its own integer keys.
    """
    f = _rp_utility_keys(p)
    scale = max(f) + 1
    raised = [v + scale for v in f]
    positions = range(p.n)
    return [[f[j] if below >> j & 1 else raised[j] for j in positions] for below in p.cols]


def _scott_family(p: Preorder) -> tuple[list[list[int]], set[int], RepVerdict]:
    """The family of :func:`construct_finite_lsc_rp_multiutility`, as the
    scott-necessity theorem checks it: its members' sublevel sets, each
    distinct one of those, and the family's Richter-Peleg verdict; all
    depend on ``p`` alone."""
    levels = [_key_level_sets(row) for row in _lsc_rp_rows(p)]
    belows = [below for below, _ in levels]
    return belows, {m for below in belows for m in below}, _rp_verdict(levels, p)
