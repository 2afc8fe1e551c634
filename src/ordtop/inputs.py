"""The inputs of the theorem steps, and the shape of their answers.

An input record holds the instances of one preorder and the facts several
steps share, each computed on first use.  A step answers with its counts
and its :class:`TheoremViolation` records.  The steps live in one module
per theorem family (:mod:`ordtop.lsc_steps`, :mod:`ordtop.topology_steps`),
and the table of :mod:`ordtop.checkers` names them; both import from here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ordtop import instances
from ordtop.preorders import Preorder
from ordtop.representations import (
    PreorderScVerdict,
    RepVerdict,
    Sense,
    _scott_family,
    preorder_semicontinuity,
)
from ordtop.topologies import Topology, scott_topology


class TheoremViolation(NamedTuple):
    theorem_id: str
    instance: str  # serialised InstanceDocument
    params: dict
    detail: str


_Answer = tuple[int, int, list[TheoremViolation]]  # (checked, non_vacuous, violations)


def _violation(
    theorem_id: str,
    p: Preorder,
    t: Topology | None = None,
    params: dict | None = None,
    detail: str = "",
) -> TheoremViolation:
    doc = instances.make_document(p, topology=t)
    return TheoremViolation(theorem_id, instances.serialize_instance(doc), params or {}, detail)


class _Inputs:
    """The instances of one preorder ``p`` that the steps decide, and the
    facts that several steps share, each computed on first use.

    The ``sample_ts`` are grouped by rows once (equal rows mean equal
    topologies on one ground set): ``distinct`` holds each one once and
    ``slots[k]`` indexes sample k's.  ``tu`` and ``ta`` are the upper and
    Alexandrov topologies of ``p``, ``fine`` refines ``p`` and ``ta_fine``
    is its Alexandrov topology, ``cases`` are (topology, seed) pairs that
    each draw ``samples`` linear extensions, and ``pairs`` are (chain,
    outsider) pairs.  A step reads only what its theorem needs.
    """

    __slots__ = ("p", "slots", "distinct", "tu", "ta", "fine", "ta_fine", "cases", "samples",
                 "pairs", "_lsc", "_scott", "_family")

    def __init__(self, p: Preorder, *, sample_ts=(), tu=None, ta=None, fine=None, ta_fine=None,
                 cases=(), samples=0, pairs=()) -> None:
        index: dict[tuple[int, ...], int] = {}
        self.slots = [index.setdefault(t.rows, len(index)) for t in sample_ts]
        self.distinct = [sample_ts[self.slots.index(i)] for i in range(len(index))]
        self.p, self.tu, self.ta, self.fine, self.ta_fine = p, tu, ta, fine, ta_fine
        self.cases, self.samples, self.pairs = cases, samples, list(pairs)
        self._lsc = self._scott = self._family = None

    def lsc(self) -> list[PreorderScVerdict]:
        """The lower semicontinuity verdict of ``p`` in each distinct sample."""
        if self._lsc is None:
            self._lsc = [preorder_semicontinuity(self.p, t, Sense.LOWER) for t in self.distinct]
        return self._lsc

    def scott(self) -> Topology:
        if self._scott is None:
            self._scott = scott_topology(self.p)
        return self._scott

    def family(self) -> tuple[list[list[int]], set[int], RepVerdict]:
        if self._family is None:
            self._family = _scott_family(self.p)
        return self._family

    def per_sample(self, held: Sequence[bool], found: Sequence[list]) -> tuple[int, int, list]:
        """A step's (checked, non_vacuous, violations), one instance per
        sample topology in sample order, given the premise ``held`` and the
        violations ``found`` in each distinct one."""
        slots = self.slots
        return len(slots), sum(held[i] for i in slots), [v for i in slots for v in found[i]]
