"""One-instance checkers for the order-topology theorems.

Each ``check_*`` decides one instance through the theorem's core, and
either passes, passes vacuously (its premise failed, which the report
makes explicit through ``non_vacuous``), or emits a replayable violation
carrying a serialised instance document.  Violations should never occur;
any one of them is a bug certificate.  The cores are shared with the
suite drivers in :mod:`ordtop.theorems`.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from ordtop import instances, kernels
from ordtop.errors import GroundMismatchError, PremiseFailedError, RefinementViolatedError
from ordtop.preorders import (
    Preorder,
    _szpilrajn_class_order,
    build_preorder,
    enumerate_linear_extensions,
    labels_of,
    mask_of,
    quotient,
)
from ordtop.representations import (
    PreorderScVerdict,
    RepVerdict,
    Sense,
    _key_level_sets,
    _lsc_rp_rows,
    _rp_verdict,
    preorder_semicontinuity,
)
from ordtop.topologies import (
    Topology,
    alexandrov_topology,
    is_closed,
    is_finer,
    scott_topology,
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


def _report(theorem_id, checked, non_vacuous, violations, started) -> TheoremReport:
    return TheoremReport(
        theorem_id,
        checked,
        non_vacuous,
        tuple(violations),
        time.perf_counter() - started,
    )


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
    sc = preorder_semicontinuity(p, t, Sense.LOWER)
    return _report("lsc-iff-upper", 1, 1, _lsc_iff_upper(p, t, sc, upper_topology(p)), started)


def _lsc_iff_upper(
    p: Preorder, t: Topology, sc: PreorderScVerdict, tu: Topology
) -> list[TheoremViolation]:
    """Core of :func:`check_lsc_iff_upper`: the violations of the instance
    (p, t), whose premise always holds.  ``sc`` is the lower
    semicontinuity verdict of ``p`` in ``t`` and ``tu`` is
    ``upper_topology(p)``."""
    rhs = is_finer(t, tu).ok
    if sc.ok == rhs:
        return []
    detail = f"semicontinuity={sc.ok} but upper-refinement={rhs}"
    return [_violation("lsc-iff-upper", p, t, detail=detail)]


def check_scott_necessity(p: Preorder, t: Topology) -> TheoremReport:
    """A finite lsc Richter-Peleg multi-utility forces the topology above Scott.

    The constructed family is re-verified with the independent checkers
    before the refinement conclusion is asserted; an obstruction makes the
    instance a vacuous pass (after confirming the obstruction itself).
    """
    started = time.perf_counter()
    sc = preorder_semicontinuity(p, t, Sense.LOWER)
    family, scott = (_scott_family(p), scott_topology(p)) if sc.ok else (None, None)
    violations = _scott_necessity(p, t, sc, family, scott)
    return _report("scott-necessity", 1, int(sc.ok), violations, started)


def _scott_family(p: Preorder) -> tuple[list[list[int]], set[int], RepVerdict]:
    """The family of :func:`construct_finite_lsc_rp_multiutility` as its
    members' sublevel sets, each distinct one of those, and the family's
    Richter-Peleg verdict; all depend on ``p`` alone."""
    levels = [_key_level_sets(row) for row in _lsc_rp_rows(p)]
    belows = [below for below, _ in levels]
    return belows, {m for below in belows for m in below}, _rp_verdict(levels, p)


def _members_not_lsc(t: Topology, belows: list, sublevels: set[int]) -> list[tuple[int, int]]:
    """Each member (given by its sublevel sets) that is not lsc in ``t``, with
    its first non-closed position.  Each distinct sublevel set is decided
    once; the members are searched only when one of those is not closed."""
    if kernels.first_not_closed(t.rows, sublevels) < 0:
        return []
    firsts = [(k, kernels.first_not_closed(t.rows, below)) for k, below in enumerate(belows)]
    return [(k, x) for k, x in firsts if x >= 0]


def _scott_necessity(
    p: Preorder,
    t: Topology,
    sc: PreorderScVerdict,
    family: tuple[list[list[int]], set[int], RepVerdict] | None,
    scott: Topology | None,
) -> list[TheoremViolation]:
    """Core of :func:`check_scott_necessity`: the violations of the instance
    (p, t).  Its premise is ``sc``, the lower semicontinuity verdict of
    ``p`` in ``t``.  ``family`` is :func:`_scott_family` of ``p`` and
    ``scott`` is ``scott_topology(p)``; only an instance whose premise
    holds reads them, so both may be None when it fails."""
    details = []
    if not sc.ok:
        assert sc.contour is not None
        if is_closed(t, sc.contour):
            details.append(f"obstruction contour of {sc.witness!r} is closed after all")
    else:
        assert family is not None and scott is not None
        belows, sublevels, verdict = family
        if not verdict.ok:
            details.append(f"constructed family fails the RP check: {verdict.witness}")
        for k, x in _members_not_lsc(t, belows, sublevels):
            details.append(f"member {k} is not lower semicontinuous at {p.elements[x]!r}")
        fin = is_finer(t, scott)
        if not fin.ok:
            details.append(f"family exists but Scott open {fin.missing_open:#x} is missing")
    return [_violation("scott-necessity", p, t, detail=d) for d in details]


def check_alexandrov_antitone(p_coarse: Preorder, p_fine: Preorder) -> TheoremReport:
    """Refining the preorder can only shrink the Alexandrov topology."""
    started = time.perf_counter()
    ta_coarse, ta_fine = alexandrov_topology(p_coarse), alexandrov_topology(p_fine)
    violations = _alexandrov_antitone(p_coarse, p_fine, ta_coarse, ta_fine)
    return _report("alexandrov-antitone", 1, 1, violations, started)


def _alexandrov_antitone(
    p_coarse: Preorder, p_fine: Preorder, ta_coarse: Topology, ta_fine: Topology
) -> list[TheoremViolation]:
    """Core of :func:`check_alexandrov_antitone`: the violations of its one
    instance.  ``ta_coarse`` and ``ta_fine`` are the Alexandrov topologies
    of the two preorders."""
    if p_coarse.elements != p_fine.elements:
        raise GroundMismatchError(p_coarse.n, p_fine.n)
    for i in range(p_coarse.n):
        escaped = p_coarse.rows[i] & ~p_fine.rows[i]
        if escaped:
            j = (escaped & -escaped).bit_length() - 1
            raise RefinementViolatedError((p_coarse.elements[i], p_coarse.elements[j]))
    fin = is_finer(ta_coarse, ta_fine)
    if fin.ok:
        return []
    coarse_relation = instances.make_document(p_coarse).relation
    return [
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
    checked, violations = _linear_extensions_lsc(p, [(t, seed)], samples, alexandrov_topology(p))
    return _report("linear-extensions-lsc", checked, checked, violations, started)


def _linear_extensions_lsc(
    p: Preorder, cases: Sequence[tuple[Topology, int]], samples: int, ta: Topology
) -> tuple[int, list[TheoremViolation]]:
    """Core of :func:`check_linear_extensions_lsc` over the (topology, seed)
    ``cases``; ``ta`` is ``alexandrov_topology(p)``.  Returns the
    extensions checked, each a non-vacuous instance, and the violations.

    Every case's premise is decided first, so a failing one raises before
    anything is enumerated.  It then enumerates ``samples + 1``
    extensions of ``p``.  When there are more than ``samples``, ``samples``
    of them are drawn per topology from ``quotient(p)``; else all of them
    are checked.  A drawn extension stays a class order: its contours are
    the prefix unions.
    """
    for t, _ in cases:
        fin = is_finer(t, ta)
        if not fin.ok:
            raise PremiseFailedError(
                "topology is not finer than the Alexandrov topology", fin.missing_open
            )
    extensions = enumerate_linear_extensions(p, samples + 1)
    # Without forced pairs the extension draws on the quotient's own order,
    # so one quotient serves every sample.
    q = quotient(p) if len(extensions) > samples else None
    checked, violations = 0, []
    for t, seed in cases:
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
    return checked, violations


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
    ta = alexandrov_topology(p)
    _check_chain_and_outsider(p, chain, x)
    failed = _chain_restriction(p, t, [chain], ta)
    violations = _chain_violations(p, [(chain, x)], [(t, failed)])
    return _report("chain-restriction", 1, int(failed is not None), violations, started)


def _chain_restriction(
    p: Preorder, t: Topology, chains: Sequence[int], ta: Topology
) -> dict[int, int] | None:
    """Core of :func:`check_chain_restriction` on the instance (p, t), for
    each of the validated ``chains``: None when the premise fails, else the
    missing open of each chain that fails the conclusion.  ``ta`` is
    ``alexandrov_topology(p)``, and the premise is that ``t`` refines it.
    All outsiders of a chain share its conclusion."""
    if not is_finer(t, ta).ok:
        return None
    return {
        chain: missing
        for chain in chains
        if (missing := _chain_refines_alexandrov(p, t, chain)) is not None
    }


def _chain_violations(
    p: Preorder,
    pairs: Sequence[tuple[int, str]],
    decided: Sequence[tuple[Topology, dict[int, int] | None]],
) -> list[TheoremViolation]:
    """The chain-restriction violations of each (chain, outsider) of
    ``pairs`` in each topology of ``decided``, pair by pair and then in
    the order of ``decided``, which pairs each topology with its
    :func:`_chain_restriction` answer."""
    return [
        _violation(
            "chain-restriction", p, t,
            params={"chain": list(labels_of(p, chain)), "x": x},
            detail=f"trace open {failed[chain]:#x} missing on the chain",
        )
        for chain, x in pairs
        for t, failed in decided
        if failed and chain in failed
    ]


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


def check_topology_coincidence(p: Preorder) -> TheoremReport:
    """Upper within Scott within Alexandrov, and (finite fact) all three equal."""
    started = time.perf_counter()
    ts, tu, ta = scott_topology(p), upper_topology(p), alexandrov_topology(p)
    return _report("topology-coincidence", 1, 1, _topology_coincidence(p, ts, tu, ta), started)


def _topology_coincidence(
    p: Preorder, ts: Topology, tu: Topology, ta: Topology
) -> list[TheoremViolation]:
    """Core of :func:`check_topology_coincidence`: the violations of its one
    instance.  ``ts``, ``tu`` and ``ta`` are the Scott, upper and
    Alexandrov topologies of ``p``."""
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
    return violations


# One entry per theorem, in report order: whether its record needs a
# topology, and how it replays the record (document, preorder p, topology
# t, params) through its public checker, looked up when it runs.
_THEOREMS = {
    "topology-coincidence": (False, lambda doc, p, t, params: check_topology_coincidence(p)),
    "lsc-iff-upper": (True, lambda doc, p, t, params: check_lsc_iff_upper(p, t)),
    "scott-necessity": (True, lambda doc, p, t, params: check_scott_necessity(p, t)),
    "alexandrov-antitone": (False, lambda doc, p, t, params: check_alexandrov_antitone(
        build_preorder(doc.elements, [tuple(ab) for ab in params["coarse_relation"]],
                       autoclose=False), p)),
    "linear-extensions-lsc": (True, lambda doc, p, t, params: check_linear_extensions_lsc(
        p, t, params["samples"], params["seed"])),
    "chain-restriction": (True, lambda doc, p, t, params: check_chain_restriction(
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
    needs_topology, replay = _THEOREMS[v.theorem_id]
    doc = instances.parse_instance(v.instance)
    p = instances.document_preorder(doc)
    t = instances.document_topology(doc, p)
    if needs_topology and t is None:
        raise ValueError(f"a {v.theorem_id!r} record needs a topology; its document has none")
    return replay(doc, p, t, v.params)
