"""Kernel correctness against naive oracles."""

import random

from ordtop import kernels


def random_relation(rng: random.Random, n: int, closed: bool = True) -> list[int]:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
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


def brute_max_antichain_size(rows: list[int]) -> int:
    n = len(rows)
    best = 0
    for mask in range(1 << n):
        elems = [i for i in range(n) if mask >> i & 1]
        if all(
            not rows[a] >> b & 1 and not rows[b] >> a & 1
            for ai, a in enumerate(elems)
            for b in elems[ai + 1 :]
        ):
            best = max(best, len(elems))
    return best


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


def test_directed_sups_match_singleton_queries():
    from ordtop.preorders import Preorder, directed_sup

    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = random_relation(rng, n)
        labels = tuple(f"e{i}" for i in range(n))
        p = Preorder(labels, tuple(rows))
        expected = []
        for mask in range(1, 1 << n):
            verdict = directed_sup(p, mask)
            if verdict.is_directed and verdict.sup_class is not None:
                expected.append((mask, verdict.sup_class))
        assert kernels.directed_sups(rows) == expected


def test_max_antichain_size_matches_subset_scan():
    rng = random.Random(19)
    for _ in range(40):
        rows = random_relation(rng, rng.randint(1, 8))
        mask = kernels.max_antichain(rows)
        assert mask.bit_count() == brute_max_antichain_size(rows)


def test_transitive_closure_on_wide_ground():
    # 70 elements: masks wider than a machine word
    n = 70
    rows = [(1 << i) for i in range(n)]
    rows[0] |= 1 << 69
    rows[69] |= 1 << 35
    closed = kernels.transitive_closure(rows)
    assert closed[0] >> 69 & 1 and closed[0] >> 35 & 1
    assert kernels.transitivity_violation(closed) is None
