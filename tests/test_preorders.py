"""Order-core operations: construction, contours, quotients, extensions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop as ot
from ordtop.errors import (
    DuplicateLabelError,
    EmptySetError,
    EmptyUniverseError,
    InconsistentForcingError,
    NotReflexiveError,
    NotTotalError,
    NotTransitiveError,
    UnknownLabelError,
)
from ordtop import kernels
from ordtop import preorders as preorders_module
from ordtop.preorders import (
    ContourKind,
    PairClass,
    SetDirection,
    _szpilrajn_class_order,
    _total_preorder_from_class_order,
)
from ordtop.theorems import all_preorders, default_labels


@st.composite
def preorders(draw, max_size=5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = tuple(f"e{i}" for i in range(n))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
            max_size=n * n,
        )
    )
    return ot.build_preorder(labels, pairs, autoclose=True)


# --- construction -----------------------------------------------------------


def test_build_chain_forces_transitivity(chain3):
    assert chain3.leq("a", "c")
    assert not chain3.leq("c", "a")


def test_build_symmetric_pair_gives_equivalence(equiv2):
    assert ot.classify_pair(equiv2, "a", "b") is PairClass.EQUIVALENT


def test_build_vee_closure_matches_matrix_powering(vee):
    # independent closure oracle: iterate boolean matrix products
    rows = [0b101, 0b110, 0b100]
    cur = list(rows)
    while True:
        nxt = list(cur)
        for i in range(3):
            for j in range(3):
                if cur[i] >> j & 1:
                    nxt[i] |= cur[j]
        if nxt == cur:
            break
        cur = nxt
    assert vee.rows == tuple(cur)
    assert ot.classify_pair(vee, "a", "b") is PairClass.INCOMPARABLE


def test_build_errors():
    with pytest.raises(EmptyUniverseError):
        ot.build_preorder(())
    with pytest.raises(DuplicateLabelError):
        ot.build_preorder(("a", "a"))
    with pytest.raises(UnknownLabelError):
        ot.build_preorder(("a",), [("a", "z")])
    with pytest.raises(NotReflexiveError):
        ot.build_preorder(("a", "b"), [("a", "a")], autoclose=False)
    with pytest.raises(NotTransitiveError):
        ot.build_preorder(
            ("a", "b", "c"),
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
            autoclose=False,
        )


@given(preorders())
@settings(max_examples=80)
def test_built_preorders_satisfy_axioms(p):
    for i in range(p.n):
        assert p.leq_idx(i, i)
        for j in range(p.n):
            if p.leq_idx(i, j):
                assert p.rows[j] & ~p.rows[i] == 0


# --- pair classification and contours ---------------------------------------


def test_classify_examples(chain3, equiv2, vee):
    assert ot.classify_pair(chain3, "a", "c") is PairClass.STRICTLY_BELOW
    assert ot.classify_pair(equiv2, "a", "b") is PairClass.EQUIVALENT
    assert ot.classify_pair(vee, "a", "b") is PairClass.INCOMPARABLE


@given(preorders(), st.data())
@settings(max_examples=80)
def test_classify_swap_symmetry(p, data):
    a = data.draw(st.sampled_from(p.elements))
    b = data.draw(st.sampled_from(p.elements))
    swap = {
        PairClass.STRICTLY_BELOW: PairClass.STRICTLY_ABOVE,
        PairClass.STRICTLY_ABOVE: PairClass.STRICTLY_BELOW,
        PairClass.EQUIVALENT: PairClass.EQUIVALENT,
        PairClass.INCOMPARABLE: PairClass.INCOMPARABLE,
    }
    assert ot.classify_pair(p, b, a) is swap[ot.classify_pair(p, a, b)]


def test_contour_examples(chain3, vee, equiv2):
    assert ot.contour(chain3, "b", ContourKind.WEAK_LOWER) == ot.mask_of(chain3, "ab")
    assert ot.contour(vee, "c", ContourKind.WEAK_LOWER) == vee.full_mask
    assert ot.contour(equiv2, "a", ContourKind.STRICT_LOWER) == 0


@given(preorders(), st.data())
@settings(max_examples=80)
def test_contour_duality_and_monotonicity(p, data):
    a = data.draw(st.sampled_from(p.elements))
    ai = p.index(a)
    weak_lower = ot.contour(p, a, ContourKind.WEAK_LOWER)
    for ti in range(p.n):
        in_lower = bool(weak_lower >> ti & 1)
        in_upper_of_t = bool(
            ot.contour(p, p.elements[ti], ContourKind.WEAK_UPPER) >> ai & 1
        )
        assert in_lower == in_upper_of_t
    eq_mask = p.eq_class_idx(ai)
    assert ot.contour(p, a, ContourKind.STRICT_LOWER) & eq_mask == 0
    assert ot.contour(p, a, ContourKind.STRICT_UPPER) & eq_mask == 0
    assert ot.is_monotone_set(p, ot.contour(p, a, ContourKind.WEAK_UPPER), SetDirection.UP).ok
    assert ot.is_monotone_set(p, weak_lower, SetDirection.DOWN).ok


def test_is_monotone_set_examples(chain3, vee):
    assert ot.is_monotone_set(chain3, ot.mask_of(chain3, "bc"), SetDirection.UP).ok
    verdict = ot.is_monotone_set(chain3, ot.mask_of(chain3, "ac"), SetDirection.UP)
    assert not verdict.ok
    assert verdict.witness == ("a", "b")
    assert ot.is_monotone_set(vee, ot.mask_of(vee, "ac"), SetDirection.UP).ok


# --- quotient and width ------------------------------------------------------


def test_quotient_examples(equiv2, chain3):
    q = ot.quotient(equiv2)
    assert q.order.n == 1
    assert q.order.elements == ("a,b",)

    q = ot.quotient(chain3)
    assert q.order.n == 3

    p = ot.build_preorder(("a", "b", "c"), [("a", "b"), ("b", "a"), ("a", "c")])
    q = ot.quotient(p)
    assert q.order.elements == ("a,b", "c")
    assert q.order.leq("a,b", "c") and not q.order.leq("c", "a,b")
    assert q.class_of["a"] == q.class_of["b"] != q.class_of["c"]


@given(preorders())
@settings(max_examples=80)
def test_quotient_is_antisymmetric_and_faithful(p):
    q = ot.quotient(p)
    for i in range(q.order.n):
        for j in range(q.order.n):
            if i != j:
                assert not (q.order.leq_idx(i, j) and q.order.leq_idx(j, i))
    for a in p.elements:
        for b in p.elements:
            ca, cb = q.class_of[a], q.class_of[b]
            assert p.leq(a, b) == q.order.leq_idx(ca, cb)


def test_width_examples(chain3, vee, antichain2):
    w = ot.width(chain3)
    assert (w.size, w.antichain) == (1, ot.mask_of(chain3, "a"))
    assert ot.width(vee).size == 2
    assert ot.width(vee).antichain == ot.mask_of(vee, "ab")
    assert ot.width(antichain2).size == 2


def test_width_is_uncapped():
    # 26 points: past the old exhaustive search's cap of 25
    p = ot.build_preorder(tuple(f"e{i}" for i in range(26)))
    assert ot.width(p) == (26, p.full_mask)


# --- linear extensions -------------------------------------------------------


def test_szpilrajn_examples(vee, antichain2, chain3):
    forced = ot.szpilrajn_extension(vee, [("a", "b")], seed=0)
    assert forced.leq("a", "b") and not forced.leq("b", "a")
    assert forced.leq("b", "c") and forced.is_total()

    for seed in range(5):
        ext = ot.szpilrajn_extension(antichain2, seed=seed)
        assert ext.is_total()
        assert ot.classify_pair(ext, "a", "b") in (
            PairClass.STRICTLY_BELOW,
            PairClass.STRICTLY_ABOVE,
        )

    assert ot.szpilrajn_extension(chain3, seed=7) == chain3


def test_szpilrajn_postconditions_seeded():
    rng = random.Random(99)
    for trial in range(300):
        n = rng.randint(2, 6)
        labels = tuple(f"e{i}" for i in range(n))
        pairs = [
            (a, b) for a in labels for b in labels if a != b and rng.random() < 0.3
        ]
        p = ot.build_preorder(labels, pairs)
        incomparable = [
            (a, b)
            for a in labels
            for b in labels
            if ot.classify_pair(p, a, b) is PairClass.INCOMPARABLE
        ]
        forced = [rng.choice(incomparable)] if incomparable and trial % 2 else []
        ext = ot.szpilrajn_extension(p, forced, seed=trial)
        assert ext.is_total()
        for i in range(n):
            assert p.rows[i] & ~ext.rows[i] == 0  # containment
            for j in range(n):
                if p.leq_idx(i, j) and not p.leq_idx(j, i):
                    assert ext.leq_idx(i, j) and not ext.leq_idx(j, i)
        for a, b in forced:
            assert ext.leq(a, b) and not ext.leq(b, a)
        # determinism
        assert ext == ot.szpilrajn_extension(p, forced, seed=trial)


def test_szpilrajn_core_on_a_shared_quotient_draws_the_same_extensions():
    for n in range(1, 5):
        for p in all_preorders(default_labels(n)):
            q = ot.quotient(p)
            for seed in (0, 1, 8191 * 5 + 3):
                order = _szpilrajn_class_order(q.order.cols, seed)
                assert _total_preorder_from_class_order(p, q, order) == (
                    ot.szpilrajn_extension(p, seed=seed)
                )


def pairwise_class_order_lift(p, q, order):
    """Oracle: element i lies below j when i's class ranks no higher than j's."""
    rank = {c: pos for pos, c in enumerate(order)}
    rows = [0] * p.n
    for i in range(p.n):
        ri = rank[q.class_of[p.elements[i]]]
        for j in range(p.n):
            if ri <= rank[q.class_of[p.elements[j]]]:
                rows[i] |= 1 << j
    return ot.Preorder(p.elements, tuple(rows))


def test_class_order_lift_matches_pairwise_oracle(monkeypatch):
    # Each lift takes its rows and its stored columns from one
    # kernels.ranked_contours call; both are checked here, the rows against
    # the pairwise oracle and the columns against the rows.
    real = preorders_module._total_preorder_from_class_order
    real_kernel = kernels.ranked_contours
    lifts = []
    kernel_calls = []

    def recording(p, q, order):
        lifted = real(p, q, order)
        lifts.append((p, q, tuple(order), lifted))
        return lifted

    def recording_kernel(n, classes):
        kernel_calls.append(n)
        return real_kernel(n, classes)

    monkeypatch.setattr(preorders_module, "_total_preorder_from_class_order", recording)
    monkeypatch.setattr(kernels, "ranked_contours", recording_kernel)
    drawn = 0
    for n in range(1, 6):
        for p in all_preorders(default_labels(n)):
            ot.enumerate_linear_extensions(p, 1000)
            q = ot.quotient(p)
            for seed in (0, 1, 8191 * 5 + 3):
                ot.szpilrajn_extension(p, seed=seed)
                drawn += 1
    assert len(lifts) > drawn  # every enumerated order as well as each draw
    assert kernel_calls == [p.n for p, *_ in lifts]
    for p, q, order, lifted in lifts:
        assert sorted(order) == list(range(q.order.n))
        assert lifted == pairwise_class_order_lift(p, q, order)
        assert lifted.cols == tuple(kernels._columns(lifted.rows))


def looped_class_orders(q, limit):
    """Oracle: the class orders of the enumeration, finding each next class
    by a loop over the other remaining classes."""
    k = q.order.n
    rows = q.order.rows
    out, acc = [], []

    def dfs(remaining):
        if len(out) >= limit:
            return
        if not remaining:
            out.append(tuple(acc))
            return
        for c in range(k):
            if not remaining >> c & 1:
                continue
            if any(remaining >> d & 1 and rows[d] >> c & 1 for d in range(k) if d != c):
                continue
            acc.append(c)
            dfs(remaining & ~(1 << c))
            acc.pop()
            if len(out) >= limit:
                return

    dfs((1 << k) - 1)
    return out


def looped_szpilrajn_class_order(class_rows, seed):
    """Oracle: the Szpilrajn draw, finding the sources by a loop per candidate."""
    k = len(class_rows)
    rng = random.Random(seed)
    remaining = (1 << k) - 1
    order = []
    while remaining:
        sources = [
            c for c in range(k)
            if remaining >> c & 1
            and not any(
                remaining >> d & 1 and class_rows[d] >> c & 1 for d in range(k) if d != c
            )
        ]
        pick = sources[rng.randrange(len(sources))]
        order.append(pick)
        remaining &= ~(1 << pick)
    return order


def test_extension_kernels_match_looped_oracle():
    for n in range(1, 6):
        for p in all_preorders(default_labels(n)):
            q = ot.quotient(p)
            exts = ot.enumerate_linear_extensions(p, 1000)
            orders = looped_class_orders(q, 1000)
            assert exts == [_total_preorder_from_class_order(p, q, o) for o in orders]
            for e in exts:
                assert e.cols == ot.Preorder(e.elements, e.rows).cols  # stored == lazy
            for seed in (0, 1, 8191 * 5 + 3):
                order = _szpilrajn_class_order(q.order.cols, seed)
                assert order == looped_szpilrajn_class_order(q.order.rows, seed)
                drawn = ot.szpilrajn_extension(p, seed=seed)
                assert drawn.cols == ot.Preorder(drawn.elements, drawn.rows).cols
    forced = ot.szpilrajn_extension(ot.build_preorder(default_labels(4)), [("d", "a")], seed=3)
    assert forced.cols == ot.Preorder(forced.elements, forced.rows).cols


def test_szpilrajn_inconsistent_forcing(chain3, equiv2, antichain2):
    with pytest.raises(InconsistentForcingError):
        ot.szpilrajn_extension(chain3, [("c", "a")])
    with pytest.raises(InconsistentForcingError):
        ot.szpilrajn_extension(equiv2, [("a", "b")])
    p = ot.build_preorder(("a", "b", "c", "d"))
    with pytest.raises(InconsistentForcingError):
        ot.szpilrajn_extension(p, [("a", "b"), ("b", "c"), ("c", "a")])
    assert ot.szpilrajn_extension(antichain2, [("a", "b")]).leq("a", "b")


def test_enumerate_linear_extensions_examples(antichain2, vee, chain3):
    assert len(ot.enumerate_linear_extensions(antichain2, 10)) == 2
    exts = ot.enumerate_linear_extensions(vee, 10)
    assert len(exts) == 2
    assert all(e.leq("a", "c") and e.leq("b", "c") and e.is_total() for e in exts)
    assert ot.enumerate_linear_extensions(chain3, 10) == [chain3]
    assert len(ot.enumerate_linear_extensions(antichain2, 1)) == 1


def test_enumerate_linear_extensions_count_matches_permutation_oracle():
    import itertools

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        labels = tuple(f"e{i}" for i in range(n))
        pairs = [
            (a, b) for a in labels for b in labels if a != b and rng.random() < 0.35
        ]
        p = ot.build_preorder(labels, pairs)
        q = ot.quotient(p)
        k = q.order.n
        count = 0
        for perm in itertools.permutations(range(k)):
            pos = {c: idx for idx, c in enumerate(perm)}
            if all(
                pos[i] <= pos[j]
                for i in range(k)
                for j in range(k)
                if q.order.leq_idx(i, j)
            ):
                count += 1
        exts = ot.enumerate_linear_extensions(p, 1000)
        assert len(exts) == count
        assert len({e.rows for e in exts}) == count  # distinct


# --- directed sets and suprema ----------------------------------------------


def test_directed_sup_examples(vee, antichain2):
    verdict = ot.directed_sup(vee, ot.mask_of(vee, "ab"))
    assert not verdict.is_directed

    verdict = ot.directed_sup(vee, ot.mask_of(vee, "ac"))
    assert verdict.is_directed
    assert verdict.sup_class == ot.mask_of(vee, "c")

    verdict = ot.directed_sup(antichain2, ot.mask_of(antichain2, "a"))
    assert verdict.is_directed and verdict.sup_class == ot.mask_of(antichain2, "a")

    with pytest.raises(EmptySetError):
        ot.directed_sup(vee, 0)


@given(preorders(), st.data())
@settings(max_examples=80)
def test_directed_sup_class_is_least_upper_bound(p, data):
    mask = data.draw(st.integers(min_value=1, max_value=p.full_mask))
    verdict = ot.directed_sup(p, mask)
    if verdict.sup_class is None:
        return
    members = [i for i in range(p.n) if verdict.sup_class >> i & 1]
    queried = [i for i in range(p.n) if mask >> i & 1]
    upper_bounds = [
        u for u in range(p.n) if all(p.leq_idx(x, u) for x in queried)
    ]
    for s in members:
        assert all(p.leq_idx(x, s) for x in queried)
        assert all(p.leq_idx(s, u) for u in upper_bounds)


def test_restrict_keeps_labels(vee):
    sub = ot.restrict(vee, ot.mask_of(vee, "ac"))
    assert sub.elements == ("a", "c")
    assert sub.leq("a", "c") and not sub.leq("c", "a")


def test_rank_utility_examples(chain3, vee):
    total = ot.build_preorder(("a", "b", "c"), [("a", "b"), ("b", "a"), ("b", "c")])
    u = ot.rank_utility(total)
    assert [int(x) for x in u.values] == [0, 0, 1]
    assert [int(x) for x in ot.rank_utility(chain3).values] == [0, 1, 2]
    with pytest.raises(NotTotalError) as exc:
        ot.rank_utility(vee)
    assert set(exc.value.pair) == {"a", "b"}


def test_lazy_columns_and_index_leave_equality_alone(vee):
    fresh = ot.Preorder(vee.elements, vee.rows)
    assert vee.cols == (0b001, 0b010, 0b111)
    assert vee.index("c") == 2
    assert vee.cols is vee.cols  # computed once, then read from the instance
    assert vee == fresh and hash(vee) == hash(fresh)
    assert "cols" not in vars(fresh)
    assert fresh.cols == vee.cols and vee == fresh
