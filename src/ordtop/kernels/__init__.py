"""Bitmask kernels for relations and finite topologies, in pure Python.

A relation is passed as ``rows`` where ``rows[i]`` is the bitmask of
``{j : i <= j}``; subsets of the ground set are plain int masks.  The same
rows describe a finite topology, whose opens are exactly the up-sets
(``rows[i]`` is then the minimal open neighbourhood of ``i``).
"""

from __future__ import annotations


def using_native() -> bool:
    """Always False: there is no compiled backend, every kernel is pure Python."""
    return False


def transitive_closure(rows: list[int]) -> list[int]:
    """Warshall closure over bit rows; existing bits (incl. diagonal) are kept."""
    out = list(rows)
    n = len(out)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return out


def transitivity_violation(rows: list[int]) -> tuple[int, int, int] | None:
    """First (i, j, k) with i<=j and j<=k but not i<=k, or None."""
    for i, reach in enumerate(rows):
        m = reach
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            extra = rows[j] & ~reach
            if extra:
                k = (extra & -extra).bit_length() - 1
                return (i, j, k)
    return None


def up_sets(rows: list[int]) -> list[int]:
    """All up-set masks of a preorder, ascending.

    Branches on the lowest undecided point x: either x is in, and with it
    everything above it, or x is out, and with it everything below it.
    Both branches stay consistent, so every leaf is an up-set and each one
    costs O(n) steps; no subset outside the answer is ever visited.
    """
    n = len(rows)
    full = (1 << n) - 1
    cols = _columns(rows)
    out = []
    stack = [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        undecided = full & ~(inside | outside)
        if not undecided:
            out.append(inside)
            continue
        bit = undecided & -undecided
        x = bit.bit_length() - 1
        stack.append((inside | rows[x] | bit, outside))
        stack.append((inside, outside | cols[x] | bit))
    out.sort()
    return out


def _columns(rows: list[int]) -> list[int]:
    n = len(rows)
    cols = [0] * n
    for i, r in enumerate(rows):
        m = r
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            cols[j] |= 1 << i
    return cols


def directed_sups(rows: list[int]) -> list[tuple[int, int]]:
    """(subset mask, supremum class mask) for every nonempty directed subset.

    A subset is directed when every two members have an upper bound inside
    it; its supremum exists when the minimal upper bounds form a single
    equivalence class.  Subsets without a supremum are omitted.
    """
    n = len(rows)
    full = (1 << n) - 1
    cols = _columns(rows)
    strict_below = [cols[i] & ~rows[i] for i in range(n)]
    eq_class = [cols[i] & rows[i] for i in range(n)]
    out = []
    for d in range(1, 1 << n):
        elems = []
        m = d
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            elems.append(i)
        directed = True
        for ai in range(len(elems)):
            for bi in range(ai + 1, len(elems)):
                if not rows[elems[ai]] & rows[elems[bi]] & d:
                    directed = False
                    break
            if not directed:
                break
        if not directed:
            continue
        ub = full
        for x in elems:
            ub &= rows[x]
        if not ub:
            continue
        minima = 0
        m = ub
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if not strict_below[i] & ub:
                minima |= 1 << i
        m0 = (minima & -minima).bit_length() - 1
        if minima & ~eq_class[m0]:
            continue
        out.append((d, eq_class[m0]))
    return out


def scott_opens(rows: list[int]) -> list[int]:
    """Up-sets U with: sup class of a directed set meets U => the set meets U."""
    pairs = directed_sups(rows)
    out = []
    for u in up_sets(rows):
        ok = True
        for d, sup_class in pairs:
            if sup_class & u and not d & u:
                ok = False
                break
        if ok:
            out.append(u)
    return out


def max_antichain(rows: list[int]) -> int:
    """Mask of a maximum set of mutually incomparable elements.

    Exhaustive branch-and-bound over subsets; deterministic (prefers the
    earliest elements among equally large antichains).
    """
    n = len(rows)
    if n == 0:
        return 0
    cols = _columns(rows)
    full = (1 << n) - 1
    incomp = [~(rows[i] | cols[i]) & full for i in range(n)]
    best_mask = 0
    best_size = 0

    def dfs(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_mask, best_size
        if cur_size + cand.bit_count() <= best_size:
            return
        if not cand:
            best_size, best_mask = cur_size, cur_mask
            return
        v = (cand & -cand).bit_length() - 1
        dfs(cand & incomp[v], cur_mask | (1 << v), cur_size + 1)
        dfs(cand & ~(1 << v), cur_mask, cur_size)

    dfs(full, 0, 0)
    return best_mask
