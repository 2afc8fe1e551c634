"""The lower-semicontinuity theorem steps: lsc-iff-upper, scott-necessity,
linear-extensions-lsc and chain-restriction.

Each step decides the instances of one preorder held in an
:class:`~ordtop.inputs._Inputs` and answers with its counts and its
violations; the table of :mod:`ordtop.checkers` names it.  The helpers
that only one step calls sit beside it.
"""

from __future__ import annotations

from ordtop import kernels
from ordtop.errors import PremiseFailedError
from ordtop.inputs import _Answer, _Inputs, _violation
from ordtop.preorders import (
    Preorder,
    _szpilrajn_class_order,
    enumerate_linear_extensions,
    labels_of,
    quotient,
)
from ordtop.topologies import Topology, is_closed, is_finer


def _lsc_iff_upper(inputs: _Inputs) -> _Answer:
    """Step of lsc-iff-upper in each sample topology; its premise always holds."""
    p, found = inputs.p, []
    for t, sc in zip(inputs.distinct, inputs.lsc()):
        rhs = is_finer(t, inputs.tu).ok
        found.append([] if sc.ok == rhs else [_violation(
            "lsc-iff-upper", p, t, detail=f"semicontinuity={sc.ok} but upper-refinement={rhs}")])
    return inputs.per_sample([True] * len(found), found)


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


def _members_not_lsc(t: Topology, belows: list, sublevels: set[int]) -> list[tuple[int, int]]:
    """Each member (given by its sublevel sets) that is not lsc in ``t``, with
    its first non-closed position.  Each distinct sublevel set is decided
    once; the members are searched only when one of those is not closed."""
    if kernels.first_not_closed(t.rows, sublevels) < 0:
        return []
    firsts = [(k, kernels.first_not_closed(t.rows, below)) for k, below in enumerate(belows)]
    return [(k, x) for k, x in firsts if x >= 0]


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


def _chain_restriction(inputs: _Inputs) -> _Answer:
    """Step of chain-restriction: each (chain, outsider) of ``pairs`` in each
    sample topology, pair by pair and then in sample order.

    Every pair is validated first, in pair order: its chain where the chain
    first appears, and its outsider.  The premise, that a topology refines
    ``ta``, is decided once per distinct topology, and where it holds the
    conclusion once per distinct chain: all outsiders of a chain share it.
    """
    p, pairs, slots = inputs.p, inputs.pairs, inputs.slots
    chains: dict[int, None] = {}  # each distinct chain, in pair order
    for chain, x in pairs:
        if chain not in chains:
            _check_chain(p, chain)
            chains[chain] = None
        _check_outsider(p, chain, x)
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


def _check_chain(p: Preorder, chain: int) -> None:
    """Validate the chain of a chain-restriction instance: a nonempty chain of ``p``."""
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


def _check_outsider(p: Preorder, chain: int, x: str) -> None:
    """Validate the outsider of a chain-restriction instance: a point outside
    ``chain`` that is comparable to none of it."""
    xi = p.index(x)
    if chain >> xi & 1:
        raise PremiseFailedError(f"{x!r} lies inside the chain")
    touching = chain & (p.rows[xi] | p.cols[xi])
    if touching:
        c = (touching & -touching).bit_length() - 1
        raise PremiseFailedError(
            f"{x!r} is comparable to a chain element", (x, p.elements[c])
        )


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
