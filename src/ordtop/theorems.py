"""The exhaustive theorem suite and the seeded instance miner.

:func:`run_theorem_suite` builds every labelled preorder up to
:data:`SUITE_CAP` points by one-point extension and :func:`mine` draws
seeded random ones; both hand each preorder's instances to one driver,
which runs the step of every theorem in the table of
:mod:`ordtop.checkers`.  The public one-instance checkers, their reports
and violation records are re-exported from there.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from typing import Iterator, NamedTuple, Sequence

from ordtop import kernels

# The public checkers are re-exported; the table and the inputs class are
# what _check_preorder runs.
from ordtop.checkers import (
    _THEOREMS,
    THEOREM_IDS,
    TheoremReport,
    TheoremViolation,
    _Inputs,
    check_alexandrov_antitone,
    check_chain_restriction,
    check_linear_extensions_lsc,
    check_lsc_iff_upper,
    check_scott_necessity,
    check_topology_coincidence,
    replay_violation,
)
from ordtop.errors import TooLargeError
from ordtop.preorders import Preorder, build_preorder
from ordtop.topologies import (
    _preorder_rows,
    alexandrov_topology,
    discrete,
    indiscrete,
    is_finer,
    random_topology_between,
    upper_topology,
)

# The largest preorder that ``mine`` draws.  What bounds it is the 2^n
# directed-subset scan behind ``scott_topology``, which topology-coincidence
# and scott-necessity run for every trial: mine(114, 200, n) took 0.09,
# 0.21, 0.8 and 3.8 s for n = 8, 10, 12 and 14 in process on a 2-vCPU
# container, and those two theorems took 54% of it at 8 points and 79-98%
# from 10 up.
MINE_CAP = 8
# The largest suite preorder: the 209,527 on 6 points took 1.6-2.1 s at a
# 47 MB peak in a fresh process on a 2-vCPU container; the 9,535,241 on 7
# (OEIS A000798) would all be held and sorted in memory at once.
SUITE_CAP = 6


# ---------------------------------------------------------------------------
# instance generation


def _preorder_levels(max_n: int) -> Iterator[list[tuple[int, ...]]]:
    """For n = 1 .. ``max_n``, the rows of every preorder on the points
    0..n-1, in :func:`_suite_key` order.  Only the level last built is kept.

    Each preorder on 0..n-2 gains the point n-1 once per down-set D below
    it (the complement of an up-set) and up-set U above it inside every
    row of D; it joins a class when D meets U.
    """
    level = [()]
    for n in range(1, max_n + 1):
        new = 1 << (n - 1)
        out = []
        for rows in level:
            ups = kernels.up_sets(rows)
            for up in ups:
                grown = tuple(r if up >> i & 1 else r | new for i, r in enumerate(rows))
                common = functools.reduce(int.__and__, (r for r in grown if r & new), new - 1)
                out.extend(grown + (u | new,) for u in ups if not u & ~common)
        out.sort(key=_suite_key)
        level = out
        yield level


def _suite_key(rows: tuple[int, ...]) -> int:
    """The suite's order of the preorders on n points, as one int.  The
    suite seeds each preorder by its index, so the order is part of its
    results.  The key's digits, compared lexicographically: for k = n-2 down to 0, the
    highest point tops[k] of k's class, or n when that is k itself; then,
    for each pair a < b of highest points, 0, 1 (a below b) or 2 (b below
    a); padded to a fixed width.
    """
    n = len(rows)
    tops = []
    for k, r in enumerate(rows):
        j = r.bit_length() - 1
        while not rows[j] >> k & 1:
            r ^= 1 << j  # j is above k but not in k's class
            j = r.bit_length() - 1
        tops.append(j)
    key = 0
    for k in range(n - 2, -1, -1):
        key = key * (n + 1) + (n if tops[k] == k else tops[k])
    heads = sorted(set(tops))
    for i, a in enumerate(heads):
        for b in heads[i + 1 :]:
            key = key * 3 + (rows[a] >> b & 1 | (rows[b] >> a & 1) << 1)
    k = len(heads)
    return key * 3 ** ((n * (n - 1) - k * (k - 1)) // 2)


def all_preorders(labels: Sequence[str]) -> Iterator[Preorder]:
    """Every labelled preorder on the given ground set, in the suite's order.

    More than :data:`SUITE_CAP` labels, no labels or a repeated label are
    refused before anything is enumerated.
    """
    labels = tuple(labels)
    n = len(labels)
    if n > SUITE_CAP:
        raise TooLargeError(SUITE_CAP, n)
    build_preorder(labels)  # refuses an empty or repeating ground set
    for rows in next(itertools.islice(_preorder_levels(n), n - 1, None)):
        yield Preorder(labels, rows)


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

    def record(self, checked: int, non_vacuous: int, violations: Sequence) -> None:
        """Add counts and violations but no time."""
        self.checked += checked
        self.non_vacuous += non_vacuous
        self.violations += violations

    def charge(self, started: float) -> float:
        """Add the time since ``started``; return now, to start the next step."""
        now = time.perf_counter()
        self.elapsed += now - started
        return now


class SuiteReport(NamedTuple):
    reports: tuple[TheoremReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)


def _finish(tallies: dict[str, _Tally]) -> SuiteReport:
    reports = tuple(
        TheoremReport(tid, tally.checked, tally.non_vacuous,
                      tuple(tally.violations), tally.elapsed)
        for tid, tally in tallies.items()
    )
    return SuiteReport(reports)


def mine(seed: int, trials: int, max_size: int) -> SuiteReport:
    """Seeded random (preorder, topology) instances run through every theorem.

    A pure function of ``(seed, trials, max_size)``: each trial derives its
    own generator, so aggregation is order-insensitive.  Each trial draws
    one instance of each theorem and hands them to :func:`_check_preorder`,
    the suite's driver.  A topology outside linear-extensions-lsc's premise
    counts as a vacuous instance, and one drawn above the Alexandrov
    topology is checked in its place; a preorder without a chain and
    outsider counts as a vacuous chain-restriction instance.  Sizes are
    drawn from 2 to ``max_size``, so a ``max_size`` below 2 raises
    :class:`ValueError`, as do ``trials`` below 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if max_size > MINE_CAP:
        raise TooLargeError(MINE_CAP, max_size, what="mining instance")
    tallies = {tid: _Tally() for tid in THEOREM_IDS}
    started = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        n = rng.randint(2, max_size)
        p = random_preorder(rng, default_labels(n))
        tu, ta = upper_topology(p), alexandrov_topology(p)
        base = rng.choice((indiscrete(n), tu, ta))
        t = random_topology_between(base, rng.randrange(1 << 30), rng.randint(0, 3))
        fine = random_refinement(rng, p)
        case = (t, rng.randrange(1 << 30))
        if not is_finer(t, ta).ok:
            tallies["linear-extensions-lsc"].record(1, 0, ())
            above = random_topology_between(ta, rng.randrange(1 << 30), rng.randint(0, 2))
            case = (above, rng.randrange(1 << 30))
        found = find_chain_and_outsider(p, rng)
        if found is None:
            tallies["chain-restriction"].record(1, 0, ())
        inputs = _Inputs(p, sample_ts=[t], tu=tu, ta=ta, fine=fine,
                         ta_fine=_preorder_rows(n, fine.rows), cases=[case], samples=6,
                         pairs=[found] if found else [])
        started = _check_preorder(tallies, started, inputs)
    return _finish(tallies)


def run_theorem_suite(max_size: int = 4, seed: int = 0) -> SuiteReport:
    """Exhaustive suite over all labelled preorders up to ``max_size``.

    Each preorder is paired with a spread of topologies (its own derived
    ones, the two trivial ones, and seeded refinements), and its instances
    are drawn into one inputs record, which groups the topologies by their
    rows once.  :func:`_check_preorder` runs every theorem's step on it,
    the same step that the theorem's public ``check_*`` runs on one
    instance, so counts and violations come in the order of one public
    call per instance.  Chain-restriction instances enumerate every chain
    plus incomparable outsider, and decide their premise from the rows, so
    the only linear extensions enumerated are the ``samples + 1`` that
    linear-extensions-lsc reads.  Sizes above :data:`SUITE_CAP`, and below
    1 (:class:`ValueError`), are refused first.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if max_size > SUITE_CAP:
        raise TooLargeError(SUITE_CAP, max_size, what="largest suite instance")
    tallies = {tid: _Tally() for tid in THEOREM_IDS}
    samples = 4  # linear extensions drawn per linear-extensions-lsc instance
    started = time.perf_counter()
    for n, level in enumerate(_preorder_levels(max_size), 1):
        labels = default_labels(n)
        for pi, rows in enumerate(level):
            p = Preorder(labels, rows)
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
            fine = random_refinement(rng, p)
            above = [ta, random_topology_between(ta, rng.randrange(1 << 30), 2)]
            cases = [(t, rng.randrange(1 << 30)) for t in above]
            inputs = _Inputs(p, sample_ts=sample_ts, tu=tu, ta=ta, fine=fine,
                             ta_fine=_preorder_rows(n, fine.rows), cases=cases,
                             samples=samples, pairs=_chain_outsider_pairs(p))
            started = _check_preorder(tallies, started, inputs)
    return _finish(tallies)


def _check_preorder(tallies: dict[str, _Tally], started: float, inputs: _Inputs) -> float:
    """Run the step of every theorem of the table on one preorder's
    ``inputs``, in report order, and add the answers to ``tallies``; the
    one driver of :func:`run_theorem_suite` and :func:`mine`.

    Each theorem is charged the time of its step, the first step also the
    time since ``started``, which covers drawing the inputs.  Returns the
    time the last step ended.
    """
    for theorem_id, theorem in _THEOREMS.items():
        tallies[theorem_id].record(*theorem.step(inputs))
        started = tallies[theorem_id].charge(started)
    return started


def _chain_outsider_pairs(p: Preorder) -> Iterator[tuple[int, str]]:
    """Every (nonempty chain mask, incomparable outsider) pair of ``p``.

    A mask is a chain when it lies inside the comparability set of each
    of its points; the outsiders are the points comparable to none of
    them.  Chains ascend, and so do the outsiders of each chain.  All 2^n
    masks are walked, so more than :data:`SUITE_CAP` points are refused
    before the first one.
    """
    if p.n > SUITE_CAP:
        raise TooLargeError(SUITE_CAP, p.n, what="chain/outsider preorder")
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
