"""Finite topologies, stored as the minimal open neighbourhood of each point.

On a finite ground set every topology is the Alexandrov topology of its
specialisation preorder: ``rows[x]`` is U_x, the intersection of all opens
containing x, and a mask is open exactly when it contains U_x for each of
its points.  So n rows carry the whole topology, equal topologies have
equal rows, and every operation here works on the rows.  The open family
is listed only on demand (:attr:`Topology.opens`), by an up-set
enumeration whose cost grows with the number of opens, never with 2^n.
An explicit open family enters through :func:`from_opens`, which checks
that it is exactly a topology.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, NamedTuple

from ordtop import kernels
from ordtop.errors import (
    EmptySubspaceError,
    GroundMismatchError,
    NotATopologyError,
    OutOfBoundsError,
    TooLargeError,
)
from ordtop.preorders import ContourKind, Preorder, _Record, contour

# The largest preorder whose Scott topology is built.  kernels.scott_opens
# tests the 2^n - 1 nonempty subsets one at a time and holds only the up-set
# list: at 20 points scott_topology took 11 s at 15 MB on the chain (every
# subset directed) and 10 s at 109 MB on the antichain (2^20 up-sets, the
# UP_SETS_CAP), each in a fresh process on a 2-vCPU container.
SCOTT_CAP = 20


class Topology(_Record):
    """A finite topology; ``rows[x]`` is the minimal open neighbourhood of x.

    The rows must form a preorder: x lies in U_x, and y in U_x implies
    U_y within U_x.  Anything else raises :class:`NotATopologyError`.
    ``ground_size`` and ``rows`` are its only fields, fixed at construction.
    """

    __slots__ = ("ground_size", "rows")
    _fields = __slots__

    def __init__(self, ground_size: int, rows: tuple[int, ...]) -> None:
        if len(rows) != ground_size:
            raise NotATopologyError(
                f"{len(rows)} rows for a {ground_size}-element ground set"
            )
        for x, row in enumerate(rows):
            kernels.check_mask(row, ground_size)
            if not row >> x & 1:
                raise NotATopologyError(f"point {x} is outside its own neighbourhood {row:#x}")
        bad = kernels.transitivity_violation(rows)
        if bad is not None:
            x, y, z = bad
            raise NotATopologyError(
                f"point {y} is in the neighbourhood of {x} and {z} in that of {y}, "
                f"but {z} is not in that of {x}"
            )
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "rows", rows)

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1

    @property
    def opens(self) -> tuple[int, ...]:
        """Every open mask, ascending: the up-sets of the rows, at least 2^width of them.

        2^n bounds the family, so only a ground set whose 2^n passes
        ``UP_SETS_CAP`` can pass it; such a family is refused from its
        width, at once, or else from its up-sets counted by
        :func:`kernels.count_up_sets`, before anything is listed.
        """
        rows, cap = self.rows, kernels.UP_SETS_CAP
        cols = kernels._columns(rows)  # read by the width, the count and the listing
        if 1 << len(rows) > cap:
            w = kernels.max_antichain(rows, cols).bit_count()
            if 1 << w > cap:
                what = f"counting only the up-closures of a {w}-point antichain, the open family"
                raise TooLargeError(cap, 1 << w, what)
            count = kernels.count_up_sets(rows, cap, cols)
            if count > cap:
                raise TooLargeError(cap, count, "counted until it passed the cap, the open family")
        return tuple(kernels.up_sets(rows, cols))

    def is_open(self, mask: int) -> bool:
        """Whether ``mask`` is open; False for a mask outside the ground set."""
        try:
            kernels.check_mask(mask, self.ground_size)
        except OutOfBoundsError:
            return False
        return kernels.first_escape(self.rows, mask) < 0


def _preorder_rows(ground_size: int, rows: tuple[int, ...]) -> Topology:
    """A :class:`Topology` built without validation.

    Only for rows that are a preorder by construction: meets of a family
    of sets (each U_x is the meet of the members holding x), the trace of
    a valid topology, and the discrete and indiscrete rows.  Rows from
    outside, including a :class:`Preorder`'s, which that class does not
    validate, go through the validating constructor.
    """
    t = object.__new__(Topology)
    object.__setattr__(t, "ground_size", ground_size)
    object.__setattr__(t, "rows", rows)
    return t


class SubbasisRole(Enum):
    AS_OPEN_SUBBASIS = "open"
    AS_CLOSED_SUBBASIS = "closed"


def _meet_into(rows: list[int], s: int) -> None:
    """Intersect the neighbourhood row of every point of ``s`` with ``s``."""
    m = s
    while m:
        low = m & -m
        rows[low.bit_length() - 1] &= s
        m ^= low


def _check_ground_size(ground_size: int) -> None:
    if ground_size < 0:
        raise NotATopologyError(f"negative ground size {ground_size}")


def discrete(ground_size: int) -> Topology:
    _check_ground_size(ground_size)
    return _preorder_rows(ground_size, tuple(1 << x for x in range(ground_size)))


def indiscrete(ground_size: int) -> Topology:
    _check_ground_size(ground_size)
    return _preorder_rows(ground_size, ((1 << ground_size) - 1,) * ground_size)


def from_opens(ground_size: int, opens: Iterable[int]) -> Topology:
    """The topology whose open family is exactly ``opens``.

    U_x is derived as the intersection of the members containing x.  The
    family is accepted iff it holds the empty set, the ground set, every
    U_x, and m | U_x for every member m and point x.  Each member is then
    an up-set of the derived rows, and unions with rows build every up-set
    from the empty set, so the family is exactly the topology of the rows.
    Costs O(|opens| * n); raises :class:`NotATopologyError` otherwise.
    """
    _check_ground_size(ground_size)
    members = set()
    for m in opens:
        kernels.check_mask(m, ground_size)
        members.add(m)
    full = (1 << ground_size) - 1
    if full not in members:
        raise NotATopologyError("ground set absent")
    if 0 not in members:
        raise NotATopologyError("empty set absent")
    members_sorted = sorted(members)
    rows = [full] * ground_size
    for m in members_sorted:
        _meet_into(rows, m)
    for x, u in enumerate(rows):
        if u not in members:
            raise NotATopologyError(
                f"intersection {u:#x} of the opens containing point {x} is not open"
            )
    for m in members_sorted:
        for u in rows:
            if m | u not in members:
                raise NotATopologyError(f"union of {m:#x} and {u:#x} is not open")
    return _preorder_rows(ground_size, tuple(rows))


def generate(ground_size: int, sets: Iterable[int], role: SubbasisRole) -> Topology:
    """Smallest topology whose opens (resp. closeds) include the given family.

    U_x is the intersection of the (complemented, for closed) members that
    contain x, or the ground set when none does.
    """
    _check_ground_size(ground_size)
    full = (1 << ground_size) - 1
    rows = [full] * ground_size
    for s in sets:
        kernels.check_mask(s, ground_size)
        if role is SubbasisRole.AS_CLOSED_SUBBASIS:
            s = full & ~s
        _meet_into(rows, s)
    return _preorder_rows(ground_size, tuple(rows))


def upper_topology(p: Preorder) -> Topology:
    """Closed sets generated by the weak lower contours, the columns of ``p``."""
    return generate(p.n, p.cols, SubbasisRole.AS_CLOSED_SUBBASIS)


def alexandrov_topology(p: Preorder) -> Topology:
    """Opens are exactly the up-sets: U_x is the up-set of x."""
    return Topology(p.n, p.rows)


def scott_topology(p: Preorder) -> Topology:
    """Up-sets that no directed set's supremum can enter from outside.

    Computed literally from the directed-subset definition (every nonempty
    subset is tested for directedness and for a supremum class), not via
    any finite-case shortcut, and the resulting family is validated by
    :func:`from_opens`, so agreement with the other generators stays a
    checkable fact.
    """
    if p.n > SCOTT_CAP:
        raise TooLargeError(SCOTT_CAP, p.n)
    return from_opens(p.n, kernels.scott_opens(list(p.rows)))


def order_topology(p: Preorder) -> Topology:
    """Generated by the strict contours as an open subbasis."""
    sets = [contour(p, a, ContourKind.STRICT_LOWER) for a in p.elements]
    sets += [contour(p, a, ContourKind.STRICT_UPPER) for a in p.elements]
    return generate(p.n, sets, SubbasisRole.AS_OPEN_SUBBASIS)


class FinerVerdict(NamedTuple):
    ok: bool
    missing_open: int | None = None


def is_finer(t1: Topology, t2: Topology) -> FinerVerdict:
    """True when every open of ``t2`` is open in ``t1``, i.e. U1_x within U2_x for all x.

    On failure ``missing_open`` is the first U2_x not containing U1_x: open
    in ``t2`` and not in ``t1``.
    """
    if t1.ground_size != t2.ground_size:
        raise GroundMismatchError(t1.ground_size, t2.ground_size)
    for u1, u2 in zip(t1.rows, t2.rows):
        if u1 & ~u2:
            return FinerVerdict(False, u2)
    return FinerVerdict(True)


def is_closed(t: Topology, mask: int) -> bool:
    """The complement is open: no point outside ``mask`` has U_x meeting it."""
    kernels.check_mask(mask, t.ground_size)
    return kernels.first_not_closed(t.rows, (mask,)) < 0


def closure(t: Topology, mask: int) -> int:
    """Smallest closed superset of ``mask``: the points whose U_x meets it."""
    kernels.check_mask(mask, t.ground_size)
    acc = 0
    for x, u in enumerate(t.rows):
        if u & mask:
            acc |= 1 << x
    return acc


def interior(t: Topology, mask: int) -> int:
    """Largest open subset of ``mask``: the points whose U_x lies inside it."""
    kernels.check_mask(mask, t.ground_size)
    acc = 0
    for x, u in enumerate(t.rows):
        if not u & ~mask:
            acc |= 1 << x
    return acc


def subspace(t: Topology, mask: int) -> Topology:
    """Trace topology on ``mask``, re-indexed to a compact ground set."""
    kernels.check_mask(mask, t.ground_size)
    if not mask:
        raise EmptySubspaceError()
    return _preorder_rows(mask.bit_count(), tuple(kernels.compact_rows(t.rows, mask)))


def _chain_refines_alexandrov(p: Preorder, t: Topology, chain: int) -> int | None:
    """The chain-restriction conclusion: the trace of ``t`` on ``chain``
    refines the Alexandrov topology of ``p`` restricted to it, i.e.
    ``t.rows[i] & chain`` lies in ``p.rows[i]`` for each i in the chain.
    None if it does, else the open missing as ``is_finer(subspace(t, chain),
    alexandrov_topology(restrict(p, chain)))`` reports it: the compacted
    row of the first point that fails."""
    t_rows, p_rows = t.rows, p.rows
    m = chain
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if t_rows[i] & chain & ~p_rows[i]:
            return kernels.compact_rows(p_rows, chain)[(chain & (low - 1)).bit_count()]
        m ^= low
    return None


def random_topology_between(lower: Topology, seed: int, extra_sets: int) -> Topology:
    """Seeded topology refining ``lower`` by ``extra_sets`` random subsets."""
    rng = random.Random(seed)
    full = lower.full_mask
    rows = list(lower.rows)
    for _ in range(extra_sets):
        _meet_into(rows, rng.randrange(full + 1))
    return _preorder_rows(lower.ground_size, tuple(rows))
