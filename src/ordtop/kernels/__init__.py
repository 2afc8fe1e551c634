"""Bitmask kernels for relations and finite topologies, in pure Python.

A relation is passed as ``rows`` where ``rows[i]`` is the bitmask of
``{j : i <= j}``; subsets of the ground set are plain int masks.  The same
rows describe a finite topology, whose opens are exactly the up-sets
(``rows[i]`` is then the minimal open neighbourhood of ``i``).  Each row
walk that the preorder, topology, theorem and instance layers share lives
here once; their public functions wrap it.
"""

from __future__ import annotations

from typing import Generator, Iterable, Sequence

from ordtop.errors import OutOfBoundsError, TooLargeError

# Most up-sets (opens) that one listing may hold: the 2^20 up-sets of a
# 20-point antichain, the worst case of a Scott topology at its size cap.
UP_SETS_CAP = 1 << 20


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


def check_mask(mask: int, n: int) -> None:
    """Raise :class:`OutOfBoundsError` unless ``mask`` is a subset of the
    n-point ground set."""
    if mask >> n:
        raise OutOfBoundsError(mask, n)


def first_not_closed(rows: Sequence[int], masks: Iterable[int]) -> int:
    """Index of the first of ``masks`` not closed under the rows, or -1: a
    mask is closed when no point of its complement has a row that meets it."""
    full = (1 << len(rows)) - 1
    for k, mask in enumerate(masks):
        m = full ^ mask
        while m:
            low = m & -m
            if rows[low.bit_length() - 1] & mask:
                return k
            m ^= low
    return -1


def ranked_contours(n: int, classes: Iterable[int]) -> tuple[list[int], list[int]]:
    """(below, above) of the total preorder on n points whose classes, lowest
    first, are the masks ``classes``: ``below[i]`` is the weak lower contour
    of i, its class and every class before it, and ``above[i]`` the weak
    upper contour, its class and every class after it."""
    full = (1 << n) - 1
    below = [0] * n
    above = [0] * n
    prefix = 0
    for m in classes:
        suffix = full ^ prefix
        prefix |= m
        while m:
            low = m & -m
            i = low.bit_length() - 1
            below[i] = prefix
            above[i] = suffix
            m ^= low
    return below, above


def compact_rows(rows: Sequence[int], mask: int) -> list[int]:
    """The rows of the points of ``mask``, each cut down to ``mask`` and
    re-indexed so that the k-th point of ``mask`` becomes point k."""
    out = []
    m = mask
    while m:
        low = m & -m
        trace = rows[low.bit_length() - 1] & mask
        compact = 0
        while trace:
            bit = trace & -trace
            compact |= 1 << (mask & (bit - 1)).bit_count()
            trace ^= bit
        out.append(compact)
        m ^= low
    return out


def relation_pairs(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Every pair (i, j) with i <= j, in row-major order."""
    out = []
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            out.append((i, low.bit_length() - 1))
            r ^= low
    return out


def up_sets(rows: Sequence[int], cols: Sequence[int] | None = None) -> list[int]:
    """All up-set masks of a preorder, ascending; ``cols`` are its columns
    when the caller has them.

    Branches on the lowest undecided point x: either x is in, and with it
    everything above it, or x is out, and with it everything below it.
    Both branches stay consistent, so every leaf is an up-set and each one
    costs O(n) steps; no subset outside the answer is ever visited.  Raises
    :class:`TooLargeError` as soon as the listing passes ``UP_SETS_CAP``.
    """
    n = len(rows)
    full = (1 << n) - 1
    cols = _columns(rows) if cols is None else cols
    out = []
    stack = [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        undecided = full & ~(inside | outside)
        if not undecided:
            out.append(inside)
            if len(out) > UP_SETS_CAP:
                raise TooLargeError(UP_SETS_CAP, len(out), "open family listed so far")
            continue
        bit = undecided & -undecided
        x = bit.bit_length() - 1
        stack.append((inside | rows[x] | bit, outside))
        stack.append((inside, outside | cols[x] | bit))
    out.sort()
    return out


def count_up_sets(rows: Sequence[int], limit: int, cols: Sequence[int] | None = None) -> int:
    """The number of up-sets of a preorder when it is at most ``limit``,
    else some number above ``limit``; none is listed.  ``cols`` are its
    columns when the caller has them.

    The counts of the connected parts multiply, 2 for a single point.  A
    larger part branches as :func:`up_sets` does, on a point comparable with
    the most of it (of those, the one whose up-set in it is nearest half of
    it), and sums the two rests' counts; each part is counted once, and each
    sum or product stops once past its limit.  A point below or above all
    of a part takes the part apart at once.
    """
    cols, known = _columns(rows) if cols is None else cols, {}
    near = [r | c for r, c in zip(rows, cols)]  # the points comparable with each
    stack, count = [_count_parts(rows, cols, near, known, (1 << len(rows)) - 1, limit)], None
    while stack:
        try:
            stack.append(_count_parts(rows, cols, near, known, *stack[-1].send(count)))
            count = None
        except StopIteration as done:
            stack.pop()
            count = done.value
    return count


def _count_parts(
    rows: Sequence[int], cols: Sequence[int], near: list[int], known: dict[int, int], mask: int,
    limit: int,
) -> Generator[tuple[int, int], int, int]:
    """The up-set count of the points of ``mask``, as a generator run by
    :func:`count_up_sets`: it yields each (mask, limit) it needs counted,
    in place of a recursive call, and is sent back the count."""
    product = 1
    while mask and product <= limit:
        p = grow = mask & -mask
        while grow:  # p grows to the connected part of mask's lowest point
            i = (grow & -grow).bit_length() - 1
            new = near[i] & mask & ~p
            p |= new
            grow = grow & (grow - 1) | new
        mask ^= p
        if p & (p - 1) and p not in known:
            size, m = p.bit_count(), p
            best = -1
            # x: a point comparable with the most points of p (one branch
            # takes those above it out, the other those below); of those,
            # the one whose up-set in p is nearest half of p.  That gap is
            # at most size, so the reach decides first.
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                reach = (near[i] & p).bit_count()
                score = reach * (size + 1) - abs(2 * (rows[i] & p).bit_count() - size)
                if score > best:
                    x, best = i, score
            share = limit // product
            c = yield p & ~(rows[x] | 1 << x), share
            if c <= share:
                c += yield p & ~(cols[x] | 1 << x), share - c
            known[p] = c  # a c past its share ends every count above it: never read again
        product *= known.get(p, 2)
    return product


def _columns(rows: Sequence[int]) -> list[int]:
    n = len(rows)
    cols = [0] * n
    for i, r in enumerate(rows):
        m = r
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            cols[j] |= 1 << i
    return cols


def directed_sup(rows: Sequence[int], cols: Sequence[int], d: int) -> tuple[bool, int | None]:
    """(directed, supremum class mask or None) of a nonempty subset ``d``.

    ``d`` is directed when every two members have an upper bound inside it:
    member b has one in common with member a exactly when b lies below some
    point of ``d`` above a.  The supremum is the class of a least upper
    bound, an upper bound whose row is all of the upper bounds; there is
    one exactly when the minimal upper bounds form a single class.
    """
    directed = True
    ub = (1 << len(rows)) - 1
    m = d
    while m:
        low = m & -m
        above = rows[low.bit_length() - 1]
        ub &= above
        if directed:
            joined = 0
            c = above & d
            while c:
                top = c & -c
                joined |= cols[top.bit_length() - 1]
                c ^= top
            directed = not d & ~joined
        m ^= low
    m = ub
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if rows[i] == ub:
            return directed, ub & cols[i]
        m ^= low
    return directed, None


def scott_opens(rows: list[int]) -> list[int]:
    """Up-sets U with: sup class of a directed set meets U => the set meets U.

    One pass over the nonempty subsets d, each tested by :func:`directed_sup`
    and then against every up-set still listed; nothing is kept per subset,
    and the list is rebuilt only when d strikes some up-set from it.
    """
    cols = _columns(rows)
    out = up_sets(rows, cols)
    for d in range(1, 1 << len(rows)):
        directed, sup_class = directed_sup(rows, cols, d)
        if directed and sup_class is not None:
            for u in out:
                if sup_class & u and not d & u:
                    out = [v for v in out if not (sup_class & v and not d & v)]
                    break
    return out


def max_antichain(rows: Sequence[int], cols: Sequence[int] | None = None) -> int:
    """Mask of the lowest maximum antichain (of first points of classes), by
    Dilworth-Koenig: a maximum matching of points to points strictly below
    them, grown along augmenting paths on a stack, then the points that
    alternating paths from the unmatched ones reach, less those reached
    below.  ``cols`` are the preorder's columns when the caller has them."""
    cols = _columns(rows) if cols is None else cols
    firsts = [i for i in range(len(rows)) if not rows[i] & cols[i] & ((1 << i) - 1)]
    reps = sum(1 << i for i in firsts)
    below = [c & ~r & reps for r, c in zip(rows, cols)]
    low_of, up_of = {}, {}  # the matching, from each end
    dead = 0  # lower points that no augmenting path passes while the matching holds
    # Round two augments nothing (the matching is maximum): it marks what the unmatched reach.
    for start in firsts + firsts:
        if start in low_of:
            continue
        stack = [[start, below[start], -1]]  # upper point, untried lowers, lower taken
        while stack:
            frame = stack[-1]
            frame[1] &= ~dead
            if not frame[1]:
                stack.pop()
                continue
            frame[2] = i = (frame[1] & -frame[1]).bit_length() - 1
            dead |= 1 << i
            if i not in up_of:
                for j, _, i in stack:
                    low_of[j], up_of[i] = i, j
                dead = 0
                break
            stack.append([up_of[i], below[up_of[i]], -1])
    reached = sum(1 << up_of[i] for i in up_of if dead >> i & 1)
    return (reps & ~sum(1 << j for j in low_of) | reached) & ~dead
