"""One-instance checkers for the order-topology theorems.

Each theorem has one step, which decides the instances of one preorder
held in an :class:`_Inputs`, and a public ``check_*``, which builds the
inputs of its one instance and runs the step.  A check either passes,
passes vacuously (its premise failed, which the report makes explicit
through ``non_vacuous``), or emits a replayable violation carrying a
serialised instance document.  Violations should never occur; any one of
them is a bug certificate.  The steps live in one module per theorem
family, the lower-semicontinuity steps in :mod:`ordtop.lsc_steps` and the
topology steps in :mod:`ordtop.topology_steps`; the table of theorems
here names each step, and the suite drivers in :mod:`ordtop.theorems`
run it.  The violation records and the inputs class come from
:mod:`ordtop.inputs` and are re-exported.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from ordtop import instances
from ordtop.errors import GroundMismatchError
# The violation record is re-exported with the inputs class.
from ordtop.inputs import TheoremViolation, _Inputs
from ordtop.lsc_steps import (
    _chain_restriction,
    _linear_extensions_lsc,
    _lsc_iff_upper,
    _scott_necessity,
)
from ordtop.preorders import Preorder, build_preorder, mask_of
from ordtop.topologies import Topology, alexandrov_topology, upper_topology
from ordtop.topology_steps import _alexandrov_antitone, _topology_coincidence


class TheoremReport(NamedTuple):
    theorem_id: str
    instances_checked: int
    non_vacuous: int
    violations: tuple[TheoremViolation, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def premise_held(self) -> bool:
        return self.non_vacuous > 0


def _run(theorem_id: str, started: float, inputs: _Inputs) -> TheoremReport:
    """The report of the step of ``theorem_id`` on ``inputs``, timed from ``started``."""
    checked, non_vacuous, violations = _THEOREMS[theorem_id].step(inputs)
    elapsed = time.perf_counter() - started
    return TheoremReport(theorem_id, checked, non_vacuous, tuple(violations), elapsed)


def check_lsc_iff_upper(p: Preorder, t: Topology) -> TheoremReport:
    """Lower semicontinuity of the preorder iff the topology refines its upper topology."""
    started = time.perf_counter()
    return _run("lsc-iff-upper", started, _Inputs(p, sample_ts=[t], tu=upper_topology(p)))


def check_scott_necessity(p: Preorder, t: Topology) -> TheoremReport:
    """A finite lsc Richter-Peleg multi-utility forces the topology above Scott.

    The constructed family is re-verified with the independent checkers
    before the refinement conclusion is asserted; an obstruction makes the
    instance a vacuous pass (after confirming the obstruction itself).
    """
    started = time.perf_counter()
    return _run("scott-necessity", started, _Inputs(p, sample_ts=[t]))


def check_alexandrov_antitone(p_coarse: Preorder, p_fine: Preorder) -> TheoremReport:
    """Refining the preorder can only shrink the Alexandrov topology."""
    started = time.perf_counter()
    inputs = _Inputs(p_coarse, ta=alexandrov_topology(p_coarse), fine=p_fine,
                     ta_fine=alexandrov_topology(p_fine))
    return _run("alexandrov-antitone", started, inputs)


def check_linear_extensions_lsc(
    p: Preorder, t: Topology, samples: int, seed: int
) -> TheoremReport:
    """Above the Alexandrov topology every linear extension is lower semicontinuous.

    ``samples`` below 1 raises :class:`ValueError` before anything is enumerated.
    """
    started = time.perf_counter()
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if p.n != t.ground_size:
        raise GroundMismatchError(p.n, t.ground_size)
    inputs = _Inputs(p, ta=alexandrov_topology(p), cases=[(t, seed)], samples=samples)
    return _run("linear-extensions-lsc", started, inputs)


def check_chain_restriction(
    p: Preorder, t: Topology, chain: int, x: str
) -> TheoremReport:
    """If all linear extensions are lsc, the trace topology on a chain refines Alexandrov.

    The chain must be totally ordered and ``x`` incomparable to all of it.
    The premise is decided from the rows, without enumerating extensions:
    the weak lower contours of the linear extensions of ``p`` are exactly
    its nonempty down-sets, so all extensions are lsc iff every up-set of
    ``p`` is open, i.e. iff ``t`` refines ``alexandrov_topology(p)``
    (``U^t_y`` within the up-set of y for each point y).
    """
    started = time.perf_counter()
    if p.n != t.ground_size:
        raise GroundMismatchError(p.n, t.ground_size)
    inputs = _Inputs(p, sample_ts=[t], ta=alexandrov_topology(p), pairs=[(chain, x)])
    return _run("chain-restriction", started, inputs)


def check_topology_coincidence(p: Preorder) -> TheoremReport:
    """Upper within Scott within Alexandrov, and (finite fact) all three equal."""
    started = time.perf_counter()
    inputs = _Inputs(p, tu=upper_topology(p), ta=alexandrov_topology(p))
    return _run("topology-coincidence", started, inputs)


class _Theorem(NamedTuple):
    step: Callable  # decides one preorder's _Inputs: (checked, non_vacuous, violations)
    needs_topology: bool
    replay: Callable


# One entry per theorem, in report order: its step; whether its record needs
# a topology; and how it replays the record (document, preorder p, topology
# t, params) through its public checker, looked up when it runs.
_THEOREMS = {
    "topology-coincidence": _Theorem(
        _topology_coincidence, False, lambda doc, p, t, params: check_topology_coincidence(p)),
    "lsc-iff-upper": _Theorem(
        _lsc_iff_upper, True, lambda doc, p, t, params: check_lsc_iff_upper(p, t)),
    "scott-necessity": _Theorem(
        _scott_necessity, True, lambda doc, p, t, params: check_scott_necessity(p, t)),
    "alexandrov-antitone": _Theorem(
        _alexandrov_antitone, False, lambda doc, p, t, params: check_alexandrov_antitone(
            build_preorder(doc.elements, [tuple(ab) for ab in params["coarse_relation"]],
                           autoclose=False), p)),
    "linear-extensions-lsc": _Theorem(
        _linear_extensions_lsc, True, lambda doc, p, t, params: check_linear_extensions_lsc(
            p, t, params["samples"], params["seed"])),
    "chain-restriction": _Theorem(
        _chain_restriction, True, lambda doc, p, t, params: check_chain_restriction(
            p, t, mask_of(p, params["chain"]), params["x"])),
}
THEOREM_IDS = tuple(_THEOREMS)


def replay_violation(v: TheoremViolation) -> TheoremReport:
    """Re-run the checker on a serialised violation; must reproduce it.

    An unknown theorem id, or a record whose theorem needs a topology that
    its document lacks, raises :class:`ValueError`.
    """
    if v.theorem_id not in _THEOREMS:
        raise ValueError(f"unknown theorem id {v.theorem_id!r}")
    theorem = _THEOREMS[v.theorem_id]
    doc = instances.parse_instance(v.instance)
    p = instances.document_preorder(doc)
    t = instances.document_topology(doc, p)
    if theorem.needs_topology and t is None:
        raise ValueError(f"a {v.theorem_id!r} record needs a topology; its document has none")
    return theorem.replay(doc, p, t, v.params)
