"""One-instance checkers for the order-topology theorems.

Each theorem has one step, which decides the instances of one preorder
held in an :class:`_Inputs`, and a public ``check_*``, which builds the
inputs of its one instance and runs the step.  A check either passes,
passes vacuously (its premise failed, which the report makes explicit
through ``non_vacuous``), or emits a replayable violation carrying a
serialised instance document.  Violations should never occur; any one of
them is a bug certificate.  The table of theorems names each step, and
the suite drivers in :mod:`ordtop.theorems` run it.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from ordtop import instances, kernels
from ordtop.errors import GroundMismatchError, PremiseFailedError, RefinementViolatedError
from ordtop.inputs import _Inputs
from ordtop.preorders import (
    Preorder,
    _check_chain_and_outsider,
    _szpilrajn_class_order,
    build_preorder,
    enumerate_linear_extensions,
    labels_of,
    mask_of,
    quotient,
)
from ordtop.representations import _members_not_lsc
from ordtop.topologies import (
    Topology,
    _chain_refines_alexandrov,
    alexandrov_topology,
    is_closed,
    is_finer,
    upper_topology,
)

class TheoremViolation(NamedTuple):
    theorem_id: str
    instance: str  # serialised InstanceDocument
    params: dict
    detail: str


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


_Answer = tuple[int, int, list[TheoremViolation]]  # (checked, non_vacuous, violations)


def _run(theorem_id: str, started: float, inputs: _Inputs) -> TheoremReport:
    """The report of the step of ``theorem_id`` on ``inputs``, timed from ``started``."""
    checked, non_vacuous, violations = _THEOREMS[theorem_id].step(inputs)
    elapsed = time.perf_counter() - started
    return TheoremReport(theorem_id, checked, non_vacuous, tuple(violations), elapsed)


def _violation(
    theorem_id: str,
    p: Preorder,
    t: Topology | None = None,
    params: dict | None = None,
    detail: str = "",
) -> TheoremViolation:
    doc = instances.make_document(p, topology=t)
    return TheoremViolation(theorem_id, instances.serialize_instance(doc), params or {}, detail)


def check_lsc_iff_upper(p: Preorder, t: Topology) -> TheoremReport:
    """Lower semicontinuity of the preorder iff the topology refines its upper topology."""
    started = time.perf_counter()
    return _run("lsc-iff-upper", started, _Inputs(p, sample_ts=[t], tu=upper_topology(p)))


def _lsc_iff_upper(inputs: _Inputs) -> _Answer:
    """Step of lsc-iff-upper in each sample topology; its premise always holds."""
    p, found = inputs.p, []
    for t, sc in zip(inputs.distinct, inputs.lsc()):
        rhs = is_finer(t, inputs.tu).ok
        found.append([] if sc.ok == rhs else [_violation(
            "lsc-iff-upper", p, t, detail=f"semicontinuity={sc.ok} but upper-refinement={rhs}")])
    return inputs.per_sample([True] * len(found), found)


def check_scott_necessity(p: Preorder, t: Topology) -> TheoremReport:
    """A finite lsc Richter-Peleg multi-utility forces the topology above Scott.

    The constructed family is re-verified with the independent checkers
    before the refinement conclusion is asserted; an obstruction makes the
    instance a vacuous pass (after confirming the obstruction itself).
    """
    started = time.perf_counter()
    return _run("scott-necessity", started, _Inputs(p, sample_ts=[t]))


def _scott_necessity(inputs: _Inputs) -> _Answer:
    """Step of scott-necessity in each sample topology, whose premise is the
    lower semicontinuity of ``p`` there.  Only an instance whose premise
    holds reads the Scott family and topology."""
    p, lsc, found = inputs.p, inputs.lsc(), []
    for t, sc in zip(inputs.distinct, lsc):
        details = []
        if not sc.ok:
            assert sc.contour is not None
            if is_closed(t, sc.contour):
                details.append(f"obstruction contour of {sc.witness!r} is closed after all")
        else:
            belows, sublevels, verdict = inputs.family()
            if not verdict.ok:
                details.append(f"constructed family fails the RP check: {verdict.witness}")
            for k, x in _members_not_lsc(t, belows, sublevels):
                details.append(f"member {k} is not lower semicontinuous at {p.elements[x]!r}")
            fin = is_finer(t, inputs.scott())
            if not fin.ok:
                details.append(f"family exists but Scott open {fin.missing_open:#x} is missing")
        found.append([_violation("scott-necessity", p, t, detail=d) for d in details])
    return inputs.per_sample([sc.ok for sc in lsc], found)


def check_alexandrov_antitone(p_coarse: Preorder, p_fine: Preorder) -> TheoremReport:
    """Refining the preorder can only shrink the Alexandrov topology."""
    started = time.perf_counter()
    inputs = _Inputs(p_coarse, ta=alexandrov_topology(p_coarse), fine=p_fine,
                     ta_fine=alexandrov_topology(p_fine))
    return _run("alexandrov-antitone", started, inputs)


def _alexandrov_antitone(inputs: _Inputs) -> _Answer:
    """Step of alexandrov-antitone on its one instance, ``p`` and ``fine``."""
    p_coarse, p_fine = inputs.p, inputs.fine
    if p_coarse.elements != p_fine.elements:
        raise GroundMismatchError(p_coarse.n, p_fine.n)
    for i in range(p_coarse.n):
        escaped = p_coarse.rows[i] & ~p_fine.rows[i]
        if escaped:
            j = (escaped & -escaped).bit_length() - 1
            raise RefinementViolatedError((p_coarse.elements[i], p_coarse.elements[j]))
    fin = is_finer(inputs.ta, inputs.ta_fine)
    if fin.ok:
        return 1, 1, []
    coarse_relation = instances.make_document(p_coarse).relation
    return 1, 1, [
        _violation(
            "alexandrov-antitone", p_fine,
            params={"coarse_relation": [list(ab) for ab in coarse_relation]},
            detail=f"fine Alexandrov open {fin.missing_open:#x} missing from the coarse one",
        )
    ]


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


def _linear_extensions_lsc(inputs: _Inputs) -> _Answer:
    """Step of linear-extensions-lsc over the (topology, seed) ``cases``;
    each extension checked is a non-vacuous instance.

    Every case's premise is decided first, so a failing one raises before
    anything is enumerated.  It then enumerates ``samples + 1``
    extensions of ``p``.  When there are more than ``samples``, ``samples``
    of them are drawn per topology from ``quotient(p)``; else all of them
    are checked.  A drawn extension stays a class order: its contours are
    the prefix unions.
    """
    p, samples = inputs.p, inputs.samples
    for t, _ in inputs.cases:
        fin = is_finer(t, inputs.ta)
        if not fin.ok:
            raise PremiseFailedError(
                "topology is not finer than the Alexandrov topology", fin.missing_open
            )
    extensions = enumerate_linear_extensions(p, samples + 1)
    # Without forced pairs the extension draws on the quotient's own order,
    # so one quotient serves every sample.
    q = quotient(p) if len(extensions) > samples else None
    checked, violations = 0, []
    for t, seed in inputs.cases:
        if q is not None:
            orders = [_szpilrajn_class_order(q.order.cols, seed * 8191 + i) for i in range(samples)]
            contours = [
                kernels.ranked_contours(p.n, [q.class_masks[c] for c in order])[0]
                for order in orders
            ]
        else:
            contours = [e.cols for e in extensions]
        checked += len(contours)
        # Extension by extension, element by element: the first failure is the witness.
        i = kernels.first_not_closed(t.rows, [c for cols in contours for c in cols])
        if i >= 0:
            violations.append(
                _violation(
                    "linear-extensions-lsc", p, t,
                    params={"samples": samples, "seed": seed},
                    detail=f"extension contour of {p.elements[i % p.n]!r} is not closed",
                )
            )
    return checked, checked, violations


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


def _chain_restriction(inputs: _Inputs) -> _Answer:
    """Step of chain-restriction: each (chain, outsider) of ``pairs`` in each
    sample topology, pair by pair and then in sample order.

    Every pair is validated first.  The premise, that a topology refines
    ``ta``, is decided once per distinct topology, and where it holds the
    conclusion once per distinct chain: all outsiders of a chain share it.
    """
    p, pairs, slots = inputs.p, inputs.pairs, inputs.slots
    for chain, x in pairs:
        _check_chain_and_outsider(p, chain, x)
    chains = list(dict.fromkeys(chain for chain, _ in pairs))
    # Per distinct topology: None when the premise fails, else the missing
    # open of each chain that fails the conclusion.
    failed = [
        {c: m for c in chains if (m := _chain_refines_alexandrov(p, t, c)) is not None}
        if is_finer(t, inputs.ta).ok else None
        for t in inputs.distinct
    ]
    violations = [
        _violation(
            "chain-restriction", p, inputs.distinct[i],
            params={"chain": list(labels_of(p, chain)), "x": x},
            detail=f"trace open {failed[i][chain]:#x} missing on the chain",
        )
        for chain, x in pairs
        for i in slots
        if failed[i] and chain in failed[i]
    ]
    held = sum(failed[i] is not None for i in slots)
    return len(pairs) * len(slots), len(pairs) * held, violations


def check_topology_coincidence(p: Preorder) -> TheoremReport:
    """Upper within Scott within Alexandrov, and (finite fact) all three equal."""
    started = time.perf_counter()
    inputs = _Inputs(p, tu=upper_topology(p), ta=alexandrov_topology(p))
    return _run("topology-coincidence", started, inputs)


def _topology_coincidence(inputs: _Inputs) -> _Answer:
    """Step of topology-coincidence on its one instance, ``p``."""
    p, ts, tu, ta = inputs.p, inputs.scott(), inputs.tu, inputs.ta
    violations = []
    if not is_finer(ts, tu).ok:
        violations.append(_violation("topology-coincidence", p, detail="upper not within scott"))
    if not is_finer(ta, ts).ok:
        violations.append(_violation("topology-coincidence", p, detail="scott not within alexandrov"))
    # Equal rows mean equal open families: the Scott family came through the
    # validating constructor, so its rows describe it exactly.
    if not (tu.rows == ts.rows == ta.rows):
        violations.append(
            _violation("topology-coincidence", p,
                       detail="generators disagree at finite scale")
        )
    return 1, 1, violations


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
