"""Executable checkers for the order-topology theorems, plus an instance miner.

Each checker either passes, passes vacuously (its premise failed, which
the report makes explicit through ``non_vacuous``), or emits a replayable
violation carrying a serialised instance document.  Violations should
never occur; any one of them is a bug certificate.
"""

from __future__ import annotations

import functools
import json
import random
import time
from typing import Iterator, NamedTuple, Sequence

from ordtop import instances, kernels
from ordtop.errors import (
    GroundMismatchError,
    PremiseFailedError,
    RefinementViolatedError,
    TooLargeError,
)
from ordtop.preorders import (
    Preorder,
    _class_order_rows_cols,
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
    _first_not_closed,
    _preorder_rows,
    alexandrov_topology,
    discrete,
    indiscrete,
    is_closed,
    is_finer,
    random_topology_between,
    scott_topology,
    upper_topology,
)

# The largest preorder that ``mine`` draws.  What bounds it is the 2^n
# directed-subset scan behind ``scott_topology``, which topology-coincidence
# and scott-necessity run for every trial: mine(114, 200, n) took 0.21,
# 0.61, 2.3 and 9.5 s for n = 8, 10, 12 and 14 on a 2-vCPU container, and
# those two theorems took 64% of it at 8 points and 85-99% from 10 up.
MINE_CAP = 8
SUITE_CAP = 6

THEOREM_IDS = (
    "topology-coincidence",
    "lsc-iff-upper",
    "scott-necessity",
    "alexandrov-antitone",
    "linear-extensions-lsc",
    "chain-restriction",
)


class TheoremViolation(NamedTuple):
    theorem_id: str
    instance: str  # serialised InstanceDocument
    params: dict
    detail: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem": self.theorem_id,
                "instance": json.loads(self.instance),
                "params": self.params,
                "detail": self.detail,
            }
        )


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
    if _first_not_closed(t.rows, sublevels) < 0:
        return []
    firsts = [(k, _first_not_closed(t.rows, below)) for k, below in enumerate(belows)]
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
    """Above the Alexandrov topology every linear extension is lower semicontinuous."""
    started = time.perf_counter()
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

    It enumerates ``max(samples, 1) + 1`` extensions of ``p``.  When there
    are more than ``samples``, ``samples`` of them are drawn per topology
    from ``quotient(p)``; else all of them are checked.  A drawn extension
    stays a class order: its contours are the prefix unions.
    """
    extensions = enumerate_linear_extensions(p, max(samples, 1) + 1)
    # Without forced pairs the extension draws on the quotient's own order,
    # so one quotient serves every sample.
    q = quotient(p) if len(extensions) > samples else None
    checked, violations = 0, []
    for t, seed in cases:
        fin = is_finer(t, ta)
        if not fin.ok:
            raise PremiseFailedError(
                "topology is not finer than the Alexandrov topology", fin.missing_open
            )
        if q is not None:
            orders = [_szpilrajn_class_order(q.order.cols, seed * 8191 + i) for i in range(samples)]
            contours = [_class_order_rows_cols(p.n, q, order)[1] for order in orders]
        else:
            contours = [e.cols for e in extensions]
        checked += len(contours)
        # Extension by extension, element by element: the first failure is the witness.
        i = _first_not_closed(t.rows, [c for cols in contours for c in cols])
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


def replay_violation(v: TheoremViolation) -> TheoremReport:
    """Re-run the checker on a serialised violation; must reproduce it."""
    doc = instances.parse_instance(v.instance)
    p = instances.document_preorder(doc)
    t = instances.document_topology(doc, p)
    if v.theorem_id == "topology-coincidence":
        return check_topology_coincidence(p)
    if v.theorem_id == "lsc-iff-upper":
        assert t is not None
        return check_lsc_iff_upper(p, t)
    if v.theorem_id == "scott-necessity":
        assert t is not None
        return check_scott_necessity(p, t)
    if v.theorem_id == "alexandrov-antitone":
        coarse = build_preorder(doc.elements,
                                [tuple(ab) for ab in v.params["coarse_relation"]],
                                autoclose=False)
        return check_alexandrov_antitone(coarse, p)
    if v.theorem_id == "linear-extensions-lsc":
        assert t is not None
        return check_linear_extensions_lsc(p, t, v.params["samples"], v.params["seed"])
    if v.theorem_id == "chain-restriction":
        assert t is not None
        return check_chain_restriction(p, t, mask_of(p, v.params["chain"]), v.params["x"])
    raise ValueError(f"unknown theorem id {v.theorem_id!r}")


# ---------------------------------------------------------------------------
# instance generation


def _set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@functools.cache
def _all_partial_order_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """All reflexive-transitive-antisymmetric row tuples on k elements."""
    pair_slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out: list[tuple[int, ...]] = []
    rows = [1 << i for i in range(k)]

    def assign(slot: int) -> None:
        if slot == len(pair_slots):
            if kernels.transitivity_violation(rows) is None:
                out.append(tuple(rows))
            return
        i, j = pair_slots[slot]
        assign(slot + 1)  # incomparable
        rows[i] |= 1 << j
        assign(slot + 1)  # i below j
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
        assign(slot + 1)  # j below i
        rows[j] &= ~(1 << i)

    assign(0)
    return tuple(out)


def all_preorders(labels: Sequence[str]) -> Iterator[Preorder]:
    """Every labelled preorder on the given ground set.

    Enumerated as (equivalence partition, partial order on the blocks),
    which is an independent route from filtering raw relation matrices.
    More than :data:`SUITE_CAP` labels are refused before anything is
    yielded: the partial orders on k blocks are found among 3^(k(k-1)/2)
    assignments.
    """
    labels = tuple(labels)
    n = len(labels)
    if n > SUITE_CAP:
        raise TooLargeError(SUITE_CAP, n)
    index = {x: i for i, x in enumerate(labels)}
    for blocks in _set_partitions(labels):
        k = len(blocks)
        block_of = {}
        for b, block in enumerate(blocks):
            for x in block:
                block_of[index[x]] = b
        block_masks = [0] * k
        for i in range(n):
            block_masks[block_of[i]] |= 1 << i
        for po_rows in _all_partial_order_rows(k):
            rows = []
            for i in range(n):
                r = 0
                reach = po_rows[block_of[i]]
                while reach:
                    b = (reach & -reach).bit_length() - 1
                    reach &= reach - 1
                    r |= block_masks[b]
                rows.append(r)
            yield Preorder(labels, tuple(rows))


def default_labels(n: int) -> tuple[str, ...]:
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def random_preorder(rng: random.Random, labels: Sequence[str]) -> Preorder:
    """Seeded preorder: random generating pairs, then reflexive-transitive closure."""
    labels = tuple(labels)
    density = rng.choice((0.1, 0.2, 0.3, 0.45))
    pairs = [
        (a, b)
        for a in labels
        for b in labels
        if a != b and rng.random() < density
    ]
    return build_preorder(labels, pairs, autoclose=True)


def random_refinement(rng: random.Random, p: Preorder) -> Preorder:
    """Add a few random comparabilities to ``p`` and close transitively."""
    rows = list(p.rows)
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(p.n)
        rows[a] |= 1 << rng.randrange(p.n)  # a pair (a, a) is already in p
    return Preorder(p.elements, tuple(kernels.transitive_closure(rows)))


def find_chain_and_outsider(p: Preorder, rng: random.Random) -> tuple[int, str] | None:
    """A nonempty chain mask plus an element incomparable to all of it."""
    order = list(range(p.n))
    rng.shuffle(order)
    comparable = [r | c for r, c in zip(p.rows, p.cols)]
    for xi in order:
        # Greedy over the points incomparable to x, ascending: each joins
        # the chain when it is comparable to all of it so far.
        chain = 0
        m = p.full_mask & ~comparable[xi]
        while m:
            low = m & -m
            if not chain & ~comparable[low.bit_length() - 1]:
                chain |= low
            m ^= low
        if chain:
            return chain, p.elements[xi]
    return None


# ---------------------------------------------------------------------------
# aggregation


class _Tally:
    """Running counts, violations and time of one theorem."""

    __slots__ = ("checked", "non_vacuous", "violations", "elapsed")

    def __init__(self) -> None:
        self.checked = self.non_vacuous = 0
        self.violations: list[TheoremViolation] = []
        self.elapsed = 0.0

    def add(self, report: TheoremReport) -> None:
        self.record(report.instances_checked, report.non_vacuous, report.violations)
        self.elapsed += report.elapsed

    def record(self, checked: int, non_vacuous: int, violations: Sequence) -> None:
        """Add counts and violations but no time."""
        self.checked += checked
        self.non_vacuous += non_vacuous
        self.violations += violations

    def per_sample(self, slots: Sequence[int], held: Sequence[bool], found: Sequence[list]) -> None:
        """Add one instance per sample topology, in sample order: ``slots[k]``
        indexes the distinct topology of sample k in ``held`` (its premise)
        and ``found`` (its violations)."""
        for i in slots:
            self.record(1, held[i], found[i])

    def charge(self, started: float) -> float:
        """Add the time since ``started``; return now, to start the next block."""
        now = time.perf_counter()
        self.elapsed += now - started
        return now

    def vacuous(self) -> None:
        self.checked += 1


class SuiteReport(NamedTuple):
    reports: tuple[TheoremReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.reports)


def _finish(tallies: dict[str, _Tally]) -> SuiteReport:
    reports = tuple(
        TheoremReport(tid, tally.checked, tally.non_vacuous,
                      tuple(tally.violations), tally.elapsed)
        for tid, tally in tallies.items()
    )
    return SuiteReport(reports)


def mine(seed: int, trials: int, max_size: int) -> SuiteReport:
    """Seeded random (preorder, topology) instances fed to every checker.

    A pure function of ``(seed, trials, max_size)``: each trial derives its
    own generator, so aggregation is order-insensitive.
    """
    if max_size > MINE_CAP:
        raise TooLargeError(MINE_CAP, max_size, what="mining instance")
    tallies = {tid: _Tally() for tid in THEOREM_IDS}
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        n = rng.randint(2, max(2, max_size))
        p = random_preorder(rng, default_labels(n))
        base_kind = rng.choice(("indiscrete", "upper", "alexandrov"))
        if base_kind == "indiscrete":
            base = indiscrete(n)
        elif base_kind == "upper":
            base = upper_topology(p)
        else:
            base = alexandrov_topology(p)
        t = random_topology_between(base, rng.randrange(1 << 30), rng.randint(0, 3))

        tallies["topology-coincidence"].add(check_topology_coincidence(p))
        tallies["lsc-iff-upper"].add(check_lsc_iff_upper(p, t))
        tallies["scott-necessity"].add(check_scott_necessity(p, t))
        tallies["alexandrov-antitone"].add(
            check_alexandrov_antitone(p, random_refinement(rng, p))
        )
        try:
            tallies["linear-extensions-lsc"].add(
                check_linear_extensions_lsc(p, t, samples=6, seed=rng.randrange(1 << 30))
            )
        except PremiseFailedError:
            tallies["linear-extensions-lsc"].vacuous()
            above = random_topology_between(
                alexandrov_topology(p), rng.randrange(1 << 30), rng.randint(0, 2)
            )
            tallies["linear-extensions-lsc"].add(
                check_linear_extensions_lsc(p, above, samples=6, seed=rng.randrange(1 << 30))
            )
        found = find_chain_and_outsider(p, rng)
        if found is None:
            tallies["chain-restriction"].vacuous()
        else:
            chain, x = found
            tallies["chain-restriction"].add(check_chain_restriction(p, t, chain, x))
    return _finish(tallies)


def run_theorem_suite(max_size: int = 4, seed: int = 0) -> SuiteReport:
    """Exhaustive suite over all labelled preorders up to ``max_size``.

    Each preorder is paired with a spread of topologies (its own derived
    ones, the two trivial ones, and seeded refinements) and run through
    every checker; chain-restriction instances enumerate every chain plus
    incomparable outsider, and decide their premise from the rows, so the
    only linear extensions enumerated are the ``samples + 1`` that
    linear-extensions-lsc reads.  Sizes above :data:`SUITE_CAP` are refused
    before anything is enumerated.  The six samples of each preorder are
    grouped by rows once, and each (p, t) core of the public ``check_*``
    functions runs once per distinct sample.  Its counts and violations
    then count once per sample, in the order that one public call per
    instance gives them, so the suite's answers are those calls'.  Each
    theorem's ``elapsed`` is the time of its block, and work that several
    blocks share per preorder is timed in the first block that needs it.
    """
    if max_size > SUITE_CAP:
        raise TooLargeError(SUITE_CAP, max_size, what="largest suite instance")
    tallies = {tid: _Tally() for tid in THEOREM_IDS}
    samples = 4  # linear extensions drawn per linear-extensions-lsc instance
    started = time.perf_counter()
    for n in range(1, max_size + 1):
        for pi, p in enumerate(all_preorders(default_labels(n))):
            rng = random.Random(seed * 7_777_777 + pi * 101 + n)
            tu = upper_topology(p)
            ta = _preorder_rows(n, p.rows)
            sample_ts = [
                indiscrete(n),
                discrete(n),
                tu,
                ta,
                random_topology_between(tu, rng.randrange(1 << 30), 2),
                random_topology_between(indiscrete(n), rng.randrange(1 << 30), 2),
            ]
            # Equal rows mean equal topologies on one ground set: each core
            # runs once per distinct sample, and slots[k] indexes sample k's.
            index: dict[tuple[int, ...], int] = {}
            slots = [index.setdefault(t.rows, len(index)) for t in sample_ts]
            distinct = [sample_ts[slots.index(i)] for i in range(len(index))]
            lsc = [preorder_semicontinuity(p, t, Sense.LOWER) for t in distinct]
            found = [_lsc_iff_upper(p, t, sc, tu) for t, sc in zip(distinct, lsc)]
            tallies["lsc-iff-upper"].per_sample(slots, [True] * len(distinct), found)
            started = tallies["lsc-iff-upper"].charge(started)

            ts = scott_topology(p)
            tallies["topology-coincidence"].record(1, 1, _topology_coincidence(p, ts, tu, ta))
            started = tallies["topology-coincidence"].charge(started)

            family = _scott_family(p)
            found = [_scott_necessity(p, t, sc, family, ts) for t, sc in zip(distinct, lsc)]
            tallies["scott-necessity"].per_sample(slots, [sc.ok for sc in lsc], found)
            started = tallies["scott-necessity"].charge(started)

            fine = random_refinement(rng, p)
            violations = _alexandrov_antitone(p, fine, ta, _preorder_rows(n, fine.rows))
            tallies["alexandrov-antitone"].record(1, 1, violations)
            started = tallies["alexandrov-antitone"].charge(started)

            above = [ta, random_topology_between(ta, rng.randrange(1 << 30), 2)]
            cases = [(t, rng.randrange(1 << 30)) for t in above]
            checked, violations = _linear_extensions_lsc(p, cases, samples, ta)
            tallies["linear-extensions-lsc"].record(checked, checked, violations)
            started = tallies["linear-extensions-lsc"].charge(started)

            pairs = list(_chain_outsider_pairs(p))
            for chain, x in pairs:
                _check_chain_and_outsider(p, chain, x)
            chains = list(dict.fromkeys(chain for chain, _ in pairs))
            failed = [_chain_restriction(p, t, chains, ta) for t in distinct]
            decided = [(distinct[i], failed[i]) for i in slots]
            held = sum(f is not None for _, f in decided)
            tallies["chain-restriction"].record(
                len(pairs) * len(slots), len(pairs) * held, _chain_violations(p, pairs, decided)
            )
            started = tallies["chain-restriction"].charge(started)
    return _finish(tallies)


def _chain_outsider_pairs(p: Preorder) -> Iterator[tuple[int, str]]:
    """Every (nonempty chain mask, incomparable outsider) pair of ``p``.

    A mask is a chain when it lies inside the comparability set of each
    of its points; the outsiders are the points comparable to none of
    them.  Chains ascend, and so do the outsiders of each chain.
    """
    full = p.full_mask
    comparable = [r | c for r, c in zip(p.rows, p.cols)]
    elements = p.elements
    for chain in range(1, full + 1):
        reach = chain
        m = chain
        while m:
            low = m & -m
            around = comparable[low.bit_length() - 1]
            if chain & ~around:
                break
            reach |= around
            m ^= low
        else:
            out = full & ~reach
            while out:
                low = out & -out
                yield chain, elements[low.bit_length() - 1]
                out ^= low
