"""Kernel correctness against naive oracles."""

import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtop import kernels
from ordtop.errors import TooLargeError
from ordtop.representations import _key_level_sets
from ordtop.theorems import _preorder_levels
from ordtop.topologies import SCOTT_CAP, Topology
from tests.test_preorders import preorders


def random_relation(
    rng: random.Random, n: int, closed: bool = True, density: float = 0.3
) -> list[int]:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    return kernels.transitive_closure(rows) if closed else rows


def closure_by_matrix_powering(rows: list[int]) -> list[int]:
    """Independent oracle: square the boolean matrix until it stabilises."""
    n = len(rows)
    cur = [rows[i] | (1 << i) for i in range(n)]
    while True:
        nxt = list(cur)
        for i in range(n):
            m = cur[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                nxt[i] |= cur[j]
        if nxt == cur:
            return cur
        cur = nxt


def brute_up_sets(rows: list[int]) -> list[int]:
    n = len(rows)
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            for j in range(n):
                if mask >> i & 1 and rows[i] >> j & 1 and not mask >> j & 1:
                    ok = False
        if ok:
            out.append(mask)
    return out


def brute_max_antichains(rows: list[int]) -> list[int]:
    """Every maximum antichain, by a scan of all subsets."""
    n = len(rows)
    antichains = [
        mask
        for mask in range(1 << n)
        if all(not rows[i] & mask & ~(1 << i) for i in range(n) if mask >> i & 1)
    ]
    best = max(m.bit_count() for m in antichains)
    return [m for m in antichains if m.bit_count() == best]


def down_closure(rows: list[int], mask: int) -> int:
    return sum(1 << i for i, r in enumerate(rows) if r & mask)


def test_transitive_closure_matches_matrix_powering():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 7)
        raw = random_relation(rng, n, closed=False)
        assert kernels.transitive_closure(raw) == closure_by_matrix_powering(raw)


def test_transitivity_violation_detects_and_clears():
    rows = [0b011, 0b110, 0b100]  # a<=b, b<=c but not a<=c
    bad = kernels.transitivity_violation(rows)
    assert bad == (0, 1, 2)
    assert kernels.transitivity_violation(kernels.transitive_closure(rows)) is None


def test_up_sets_match_pair_scan():
    rng = random.Random(13)
    for _ in range(60):
        rows = random_relation(rng, rng.randint(1, 6))
        assert kernels.up_sets(rows) == brute_up_sets(rows)


def test_up_sets_stop_as_soon_as_the_listing_passes_the_cap(monkeypatch):
    # a Scott family at its size cap, all up-sets of an antichain, must fit
    assert kernels.UP_SETS_CAP >= 1 << SCOTT_CAP
    monkeypatch.setattr(kernels, "UP_SETS_CAP", 8)
    assert len(kernels.up_sets([1, 2, 4])) == 8
    monkeypatch.setattr(kernels, "UP_SETS_CAP", 7)
    with pytest.raises(TooLargeError):
        kernels.up_sets([1, 2, 4])
    with pytest.raises(TooLargeError) as exc:
        kernels.up_sets([1 << i for i in range(30)])
    assert exc.value.actual == 8


def test_up_set_count_matches_pair_scan_and_stops_past_its_limit():
    rng = random.Random(17)
    every = [list(rows) for level in _preorder_levels(4) for rows in level]
    assert len(every) == 389
    for rows in every + [random_relation(rng, rng.randint(1, 7)) for _ in range(60)]:
        exact = len(brute_up_sets(rows))
        assert kernels.count_up_sets(rows, exact) == exact
        for limit in range(exact):
            assert kernels.count_up_sets(rows, limit) > limit
    # 6-14 points, from dense (one or two classes) to sparse (many parts)
    for _ in range(100):
        rows = random_relation(rng, rng.randint(6, 14), density=rng.choice((0.05, 0.1, 0.2, 0.3)))
        exact = len(kernels.up_sets(rows))
        assert kernels.count_up_sets(rows, exact) == exact
        assert kernels.count_up_sets(rows, exact - 1) > exact - 1
    # a point below 20 others: 2^20 + 1 up-sets, counted without a listing
    below = [(1 << 21) - 1] + [1 << i for i in range(1, 21)]
    tracemalloc.start()
    try:
        assert kernels.count_up_sets(below, kernels.UP_SETS_CAP) == (1 << 20) + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def root_below_chains(k: int, length: int) -> list[int]:
    """Rows of one point (0) below k disjoint chains of ``length`` points."""
    n = 1 + k * length
    rows = [(1 << n) - 1]
    for c in range(k):
        for i in range(length):
            rows.append(sum(1 << (1 + c * length + j) for j in range(i, length)))
    return rows


def test_up_set_count_multiplies_the_parts_left_by_each_branch():
    # Out of every up-set the root is either in (one up-set: all) or out,
    # and then the chains are free: (length + 1)^k + 1.  Counted up-set by
    # up-set, 7 chains of 9 alone would take seconds.
    started = time.perf_counter()
    for k, length in [(1, 1), (2, 3), (3, 5), (7, 9), (3, 100)]:
        rows = root_below_chains(k, length)
        exact = (length + 1) ** k + 1
        assert kernels.count_up_sets(rows, exact) == exact
        assert kernels.count_up_sets(rows, exact - 1) > exact - 1
    assert time.perf_counter() - started < 1.0


def test_up_set_count_runs_on_an_explicit_stack():
    # A 1,200-point chain; and one point below 1,200 others, which the
    # count branches on first: both branches leave only single points.
    n = 1200
    chain = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
    assert kernels.count_up_sets(chain, kernels.UP_SETS_CAP) == n + 1
    star = root_below_chains(n, 1)
    started = time.perf_counter()
    assert kernels.count_up_sets(star, 1 << (n + 1)) == (1 << n) + 1
    assert time.perf_counter() - started < 0.1
    # Each of 150 points below all of 150 others: every branch takes one
    # lower point out and leaves the rest one part, 150 counts deep, past a
    # recursion limit 100 frames above this one, were the count recursive.
    # Its up-sets: any set of upper points, or a nonempty set of lower
    # points with every upper one.
    a = 150
    uppers = ((1 << 2 * a) - 1) ^ ((1 << a) - 1)
    rows = [uppers | 1 << i for i in range(a)] + [1 << (a + j) for j in range(a)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    recursion_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        count = kernels.count_up_sets(rows, 1 << (2 * a))
    finally:
        sys.setrecursionlimit(recursion_limit)
    assert count == (1 << a) + (1 << a) - 1


def brute_directed_sup(leq: list[list[bool]], d: int) -> tuple[bool, int | None]:
    """Independent oracle from the definitions, on the relation matrix:
    directed when every pair of members has an upper bound among the
    members; the supremum exists when the minimal upper bounds form one
    equivalence class."""
    n = len(leq)
    members = [i for i in range(n) if d >> i & 1]
    directed = all(
        any(leq[a][c] and leq[b][c] for c in members) for a in members for b in members
    )
    bounds = [u for u in range(n) if all(leq[a][u] for a in members)]
    minimal = [u for u in bounds if not any(leq[v][u] and not leq[u][v] for v in bounds)]
    if not minimal or not all(leq[u][v] for u in minimal for v in minimal):
        return directed, None
    least = minimal[0]
    return directed, sum(1 << v for v in range(n) if leq[v][least] and leq[least][v])


def test_directed_sup_kernel_matches_pairwise_definition():
    from ordtop.preorders import Preorder, directed_sup
    from ordtop.theorems import all_preorders

    rng = random.Random(17)
    cases = [
        list(p.rows)
        for n in range(1, 6)
        for p in all_preorders(tuple(f"e{i}" for i in range(n)))
    ]
    cases += [random_relation(rng, rng.randint(1, 7)) for _ in range(40)]
    for rows in cases:
        n = len(rows)
        p = Preorder(tuple(f"e{i}" for i in range(n)), tuple(rows))
        leq = [[bool(rows[a] >> b & 1) for b in range(n)] for a in range(n)]
        expected = []
        for mask in range(1, 1 << n):
            verdict = brute_directed_sup(leq, mask)
            assert tuple(directed_sup(p, mask)) == verdict
            if verdict[0] and verdict[1] is not None:
                expected.append((mask, verdict[1]))
        # the two-pass scan: an up-set is Scott open unless some directed
        # set's supremum class meets it while the set itself misses it
        assert kernels.scott_opens(rows) == [
            u for u in kernels.up_sets(rows) if not any(s & u and not d & u for d, s in expected)
        ]


def test_scott_opens_strikes_up_sets_of_unclosed_relations():
    # On a preorder every directed set holds its supremum, so the scan never
    # strikes an up-set and never meets a directed set without a supremum.
    # Rows that are not transitively closed run both branches; the oracle
    # is the two-pass scan on the kernel's own verdicts.
    rng = random.Random(29)
    struck = 0
    for _ in range(200):
        rows = random_relation(rng, rng.randint(1, 6), closed=False)
        cols = kernels._columns(rows)
        verdicts = [(d, *kernels.directed_sup(rows, cols, d)) for d in range(1, 1 << len(rows))]
        ups = kernels.up_sets(rows)
        expected = [
            u
            for u in ups
            if not any(ok and s is not None and s & u and not d & u for d, ok, s in verdicts)
        ]
        assert kernels.scott_opens(rows) == expected
        struck += expected != ups
    assert struck


def test_scott_opens_keeps_nothing_per_subset():
    # A 12-point chain has 4,095 directed subsets but only 13 up-sets; the
    # scan holds the up-set list and nothing per subset.
    rows = chains_rows([12])
    tracemalloc.start()
    try:
        opens = kernels.scott_opens(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opens == kernels.up_sets(rows)
    assert peak < 64 * 1024


def test_max_antichain_size_matches_subset_scan():
    # The kernel's antichain holds the first point of its classes, is as
    # large as any, and lies below every other maximum antichain.
    from ordtop.theorems import all_preorders

    rng = random.Random(19)
    cases = [
        list(p.rows)
        for n in range(1, 5)
        for p in all_preorders(tuple(f"e{i}" for i in range(n)))
    ]
    cases += [random_relation(rng, rng.randint(1, 8)) for _ in range(40)]
    for rows in cases:
        mask = kernels.max_antichain(rows)
        maximum = brute_max_antichains(rows)
        assert mask in maximum
        # each point is the first of its class: nothing before it is equivalent
        points = [i for i in range(len(rows)) if mask >> i & 1]
        assert all(not rows[i] & down_closure(rows, 1 << i) & ((1 << i) - 1) for i in points)
        low = down_closure(rows, mask)
        assert all(not low & ~down_closure(rows, other) for other in maximum)


def chains_rows(lengths: list[int]) -> list[int]:
    """Disjoint chains of the given lengths, each numbered bottom to top."""
    rows, start = [], 0
    for length in lengths:
        top = (1 << (start + length)) - 1
        rows += [top & ~((1 << i) - 1) for i in range(start, start + length)]
        start += length
    return rows


def grid_rows(a: int, b: int) -> list[int]:
    """The product of an a-chain and a b-chain, point (x, y) at index x*b + y."""
    return [
        sum(1 << (u * b + v) for u in range(x, a) for v in range(y, b))
        for x in range(a)
        for y in range(b)
    ]


@pytest.mark.parametrize(
    ("rows", "width"),
    [
        (chains_rows([43] * 6 + [42]), 7),
        (chains_rows([1] * 100 + [200]), 101),
        (grid_rows(15, 20), 15),
        (grid_rows(20, 15), 15),
        ([1 << i for i in range(300)], 300),
    ],
    ids=["7-chains", "100-points-and-a-chain", "grid-15x20", "grid-20x15", "antichain"],
)
def test_max_antichain_of_300_points_with_known_width(rows, width):
    mask = kernels.max_antichain(rows)
    assert mask.bit_count() == width
    assert all(not rows[i] & mask & ~(1 << i) for i in range(len(rows)) if mask >> i & 1)


def test_transitive_closure_on_wide_ground():
    # 70 elements: masks wider than a machine word
    n = 70
    rows = [(1 << i) for i in range(n)]
    rows[0] |= 1 << 69
    rows[69] |= 1 << 35
    closed = kernels.transitive_closure(rows)
    assert closed[0] >> 69 & 1 and closed[0] >> 35 & 1
    assert kernels.transitivity_violation(closed) is None


def reach_by_search(raw: list[int]) -> list[int]:
    """Oracle: the points reachable from each point by a path of one or more
    steps, searched pair by pair."""
    n = len(raw)
    out = []
    for i in range(n):
        seen = {j for j in range(n) if raw[i] >> j & 1}
        stack = list(seen)
        while stack:
            j = stack.pop()
            for k in range(n):
                if raw[j] >> k & 1 and k not in seen:
                    seen.add(k)
                    stack.append(k)
        out.append(sum(1 << j for j in seen))
    return out


@st.composite
def rows_masks_and_pairs(draw):
    """A preorder's rows (up to 12 points), some subsets, and some extra pairs."""
    rows = list(draw(preorders(max_size=12)).rows)
    n = len(rows)
    # A subset as one coin per point: drawn integers would favour small masks.
    subset = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda coins: sum(coin << i for i, coin in enumerate(coins))
    )
    masks = draw(st.lists(subset, min_size=1, max_size=4))
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=n))
    return rows, masks, pairs


@settings(max_examples=100)
@given(rows_masks_and_pairs())
def test_row_kernels_match_pairwise_definitions(case):
    rows, masks, pairs = case
    n = len(rows)
    leq = [[bool(rows[a] >> b & 1) for b in range(n)] for a in range(n)]
    for mask in masks:
        points = [i for i in range(n) if mask >> i & 1]
        assert kernels.compact_rows(rows, mask) == [
            sum(1 << k for k, j in enumerate(points) if leq[i][j]) for i in points
        ]
        escapes = [i for i in points if any(leq[i][j] and not mask >> j & 1 for j in range(n))]
        assert Topology(n, tuple(rows)).is_open(mask) == (not escapes)
    # A mask is closed when no point outside it lies below a point inside it.
    not_closed = [
        k
        for k, mask in enumerate(masks)
        if any(leq[x][y] for x in range(n) for y in range(n) if mask >> y & 1 and not mask >> x & 1)
    ]
    assert kernels.first_not_closed(rows, masks) == (not_closed[0] if not_closed else -1)
    raw = list(rows)
    for a, b in pairs:
        raw[a] |= 1 << b
    assert kernels.transitive_closure(raw) == reach_by_search(raw)


def pairwise_ranked_contours(keys):
    """Oracle: j lies in below[i] when key j is at most key i, in above[i]
    when it is at least key i."""
    n = len(keys)
    below = [sum(1 << j for j in range(n) if keys[j] <= keys[i]) for i in range(n)]
    above = [sum(1 << j for j in range(n) if keys[j] >= keys[i]) for i in range(n)]
    return below, above


@settings(max_examples=200)
@given(st.lists(st.integers(-3, 3), max_size=12))
def test_ranked_contours_match_the_pairwise_definition(keys):
    n = len(keys)
    ranks = sorted(set(keys))
    classes = [sum(1 << i for i in range(n) if keys[i] == r) for r in ranks]
    expected = pairwise_ranked_contours(keys)
    assert kernels.ranked_contours(n, classes) == expected
    assert kernels.ranked_contours(n, iter(classes)) == expected  # one pass suffices
    # The level sets of a function are the contours of its ranking by value.
    assert _key_level_sets(keys) == expected
