"""Topology generation, the four derived topologies, and the operators.

The operators work on minimal-neighbourhood rows; ``brute_family_closure``
is the independent oracle they are checked against on small ground sets.
"""

import random

import pytest

import ordtop as ot
from ordtop import kernels
from ordtop.errors import (
    EmptySubspaceError,
    GroundMismatchError,
    NotATopologyError,
    OrdtopError,
    OutOfBoundsError,
    TooLargeError,
)
from ordtop.theorems import all_preorders, default_labels
from ordtop.topologies import SubbasisRole, Topology


def brute_family_closure(members, ground):
    """Fixpoint of pairwise union and intersection over the family plus 0 and ground."""
    fam = set(members) | {0, ground}
    while True:
        new = set()
        for a in fam:
            for b in fam:
                new.add(a | b)
                new.add(a & b)
        if new <= fam:
            return sorted(fam)
        fam |= new


def brute_verify_topology(t: Topology) -> None:
    """Independent axiom validator used throughout this module."""
    opens = set(t.opens)
    assert 0 in opens and t.full_mask in opens
    assert len(opens) == len(t.opens)
    assert list(t.opens) == sorted(opens)
    for a in opens:
        assert a & ~t.full_mask == 0
        for b in opens:
            assert a | b in opens
            assert a & b in opens


def assert_rows_checked(t: Topology) -> None:
    """Rows built without validation are a preorder all the same."""
    assert kernels.transitivity_violation(t.rows) is None
    assert Topology(t.ground_size, t.rows) == t


def opens_as_labelsets(p, t):
    return {frozenset(ot.labels_of(p, o)) for o in t.opens}


# --- generation ---------------------------------------------------------------


def test_generate_single_open():
    t = ot.generate(2, [0b01], SubbasisRole.AS_OPEN_SUBBASIS)
    assert t.opens == (0, 0b01, 0b11)
    brute_verify_topology(t)


def test_generate_closed_subbasis_gives_discrete():
    t = ot.generate(2, [0b01, 0b10], SubbasisRole.AS_CLOSED_SUBBASIS)
    assert len(t.opens) == 4
    brute_verify_topology(t)


def test_generate_empty_subbasis_is_indiscrete():
    t = ot.generate(3, [], SubbasisRole.AS_OPEN_SUBBASIS)
    assert t.opens == (0, 0b111)


def test_generate_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        sets = [rng.randrange(ground + 1) for _ in range(rng.randint(0, 4))]
        t = ot.generate(g, sets, SubbasisRole.AS_OPEN_SUBBASIS)
        brute_verify_topology(t)
        assert ot.generate(g, t.opens, SubbasisRole.AS_OPEN_SUBBASIS) == t


def test_generate_out_of_bounds():
    with pytest.raises(OutOfBoundsError):
        ot.generate(2, [0b100], SubbasisRole.AS_OPEN_SUBBASIS)


# --- the four derived topologies ----------------------------------------------


def test_upper_topology_examples(chain3, antichain2, equiv2):
    t = ot.upper_topology(chain3)
    assert opens_as_labelsets(chain3, t) == {
        frozenset(),
        frozenset("c"),
        frozenset("bc"),
        frozenset("abc"),
    }
    assert len(ot.upper_topology(antichain2).opens) == 4
    assert ot.upper_topology(equiv2).opens == (0, 0b11)


def test_alexandrov_topology_examples(vee, chain3, antichain2):
    t = ot.alexandrov_topology(vee)
    assert opens_as_labelsets(vee, t) == {
        frozenset(),
        frozenset("c"),
        frozenset("ac"),
        frozenset("bc"),
        frozenset("abc"),
    }
    assert opens_as_labelsets(chain3, ot.alexandrov_topology(chain3)) == {
        frozenset(),
        frozenset("c"),
        frozenset("bc"),
        frozenset("abc"),
    }
    assert len(ot.alexandrov_topology(antichain2).opens) == 4


def test_scott_topology_examples(vee, chain3, single):
    assert ot.scott_topology(vee) == ot.alexandrov_topology(vee)
    assert opens_as_labelsets(chain3, ot.scott_topology(chain3)) == {
        frozenset(),
        frozenset("c"),
        frozenset("bc"),
        frozenset("abc"),
    }
    assert ot.scott_topology(single).opens == (0, 1)


def test_scott_cap():
    p = ot.build_preorder(tuple(f"e{i}" for i in range(21)))
    with pytest.raises(TooLargeError):
        ot.scott_topology(p)


def test_order_topology_examples(chain3, antichain2, equiv2):
    assert len(ot.order_topology(chain3).opens) == 8  # discrete on 3 points
    assert ot.order_topology(antichain2).opens == (0, 0b11)
    assert ot.order_topology(equiv2).opens == (0, 0b11)


def test_topology_coincidence_small_exhaustive():
    for n in (1, 2, 3):
        for p in all_preorders(default_labels(n)):
            tu = ot.upper_topology(p)
            ts = ot.scott_topology(p)
            ta = ot.alexandrov_topology(p)
            assert tu.opens == ts.opens == ta.opens
            brute_verify_topology(tu)


# --- operators ------------------------------------------------------------------


def test_is_finer_examples(vee):
    d = ot.discrete(2)
    i = ot.indiscrete(2)
    assert ot.is_finer(d, i).ok
    verdict = ot.is_finer(i, d)
    assert not verdict.ok and verdict.missing_open in (0b01, 0b10)
    assert ot.is_finer(ot.upper_topology(vee), ot.alexandrov_topology(vee)).ok
    assert ot.is_finer(ot.alexandrov_topology(vee), ot.upper_topology(vee)).ok
    with pytest.raises(GroundMismatchError):
        ot.is_finer(d, ot.discrete(3))


def test_closure_examples(chain3):
    t = ot.upper_topology(chain3)
    a = ot.mask_of(chain3, "a")
    b = ot.mask_of(chain3, "b")
    assert ot.is_closed(t, a)
    assert ot.closure(t, a) == a
    assert ot.closure(t, b) == ot.mask_of(chain3, "ab")
    assert ot.closure(t, 0) == 0


def test_subspace_examples(chain3):
    assert len(ot.subspace(ot.discrete(3), 0b011).opens) == 4
    assert ot.subspace(ot.indiscrete(3), 0b101).opens == (0, 0b11)
    t = ot.subspace(ot.upper_topology(chain3), ot.mask_of(chain3, "ac"))
    # re-indexed ground (a, c): expect {}, {c}, {a, c}
    assert t.opens == (0, 0b10, 0b11)
    with pytest.raises(EmptySubspaceError):
        ot.subspace(ot.discrete(2), 0)


def test_subspace_preserves_refinement():
    rng = random.Random(31)
    for _ in range(40):
        g = rng.randint(2, 5)
        ground = (1 << g) - 1
        t2 = ot.generate(
            g,
            [rng.randrange(ground + 1) for _ in range(2)],
            SubbasisRole.AS_OPEN_SUBBASIS,
        )
        t1 = ot.random_topology_between(t2, rng.randrange(1 << 30), 2)
        mask = rng.randrange(1, ground + 1)
        assert ot.is_finer(t1, t2).ok
        assert ot.is_finer(ot.subspace(t1, mask), ot.subspace(t2, mask)).ok


def test_random_topology_between_examples(chain3):
    i2 = ot.indiscrete(2)
    assert ot.random_topology_between(i2, 4, 0) == i2
    for seed in range(6):
        t = ot.random_topology_between(i2, seed, 4)
        assert ot.is_finer(t, i2).ok
        brute_verify_topology(t)
    tu = ot.upper_topology(chain3)
    t = ot.random_topology_between(tu, 1, 2)
    assert ot.is_finer(t, tu).ok
    assert t == ot.random_topology_between(tu, 1, 2)  # deterministic


def test_from_opens_rejects_broken_families():
    assert ot.from_opens(2, (0, 0b11)) == ot.indiscrete(2)
    with pytest.raises(NotATopologyError, match="empty set absent"):
        ot.from_opens(2, (0b01, 0b11))
    assert ot.from_opens(2, (0, 0b01, 0b10, 0b11)) == ot.discrete(2)
    with pytest.raises(NotATopologyError, match="ground set absent"):
        ot.from_opens(2, (0, 0b01, 0b10))
    with pytest.raises(NotATopologyError):  # {a} | {b} missing
        ot.from_opens(3, (0, 0b001, 0b010, 0b111))
    with pytest.raises(NotATopologyError):  # {a, b} & {b, c} missing
        ot.from_opens(3, (0, 0b011, 0b110, 0b111))
    with pytest.raises(OutOfBoundsError):
        ot.from_opens(2, (0, 0b11, 0b100))


def test_rows_must_form_a_preorder():
    with pytest.raises(OrdtopError):
        Topology(2, (0b10, 0b11))  # point 0 outside its own neighbourhood
    with pytest.raises(NotATopologyError):
        Topology(3, (0b011, 0b110, 0b100))  # 1 in U_0 but U_1 not within U_0
    with pytest.raises(NotATopologyError):
        Topology(2, (0b11,))
    with pytest.raises(OutOfBoundsError):
        Topology(2, (0b101, 0b10))
    assert Topology(3, (0b011, 0b010, 0b111)).opens == (0, 0b010, 0b011, 0b111)


@pytest.mark.parametrize(
    "make",
    [
        ot.discrete,
        ot.indiscrete,
        pytest.param(lambda n: ot.from_opens(n, [0]), id="from_opens"),
        pytest.param(lambda n: ot.generate(n, [], SubbasisRole.AS_OPEN_SUBBASIS), id="generate"),
    ],
)
def test_constructors_refuse_a_negative_ground_size(make):
    with pytest.raises(NotATopologyError) as exc:
        make(-1)
    assert str(exc.value) == "not a topology: negative ground size -1"
    assert make(0) == Topology(0, ())


# --- differential checks against the closure oracle ---------------------------


def random_family(rng, ground):
    return [rng.randrange(ground + 1) for _ in range(rng.randint(0, 5))]


def test_generate_matches_brute_closure():
    rng = random.Random(11)
    for _ in range(120):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        sets = random_family(rng, ground)
        t = ot.generate(g, sets, SubbasisRole.AS_OPEN_SUBBASIS)
        assert list(t.opens) == brute_family_closure(sets, ground)
        assert_rows_checked(t)
        t = ot.generate(g, sets, SubbasisRole.AS_CLOSED_SUBBASIS)
        assert list(t.opens) == brute_family_closure([ground & ~s for s in sets], ground)
        assert_rows_checked(t)
        for t in (ot.discrete(g), ot.indiscrete(g)):
            assert_rows_checked(t)


def test_random_topology_between_matches_brute_closure():
    rng = random.Random(12)
    for _ in range(80):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        lower = ot.generate(g, random_family(rng, ground), SubbasisRole.AS_OPEN_SUBBASIS)
        seed, extra = rng.randrange(1 << 30), rng.randint(0, 4)
        draws = random.Random(seed)
        members = list(lower.opens) + [draws.randrange(ground + 1) for _ in range(extra)]
        t = ot.random_topology_between(lower, seed, extra)
        assert list(t.opens) == brute_family_closure(members, ground)
        assert_rows_checked(t)


def test_subspace_matches_brute_traces():
    rng = random.Random(14)
    for _ in range(80):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        t = ot.generate(g, random_family(rng, ground), SubbasisRole.AS_OPEN_SUBBASIS)
        mask = rng.randrange(1, ground + 1)
        kept = [i for i in range(g) if mask >> i & 1]
        traces = set()
        for o in brute_family_closure(t.opens, ground):
            traces.add(sum(1 << pos for pos, i in enumerate(kept) if o >> i & 1))
        trace = ot.subspace(t, mask)
        assert list(trace.opens) == sorted(traces)
        assert_rows_checked(trace)


def test_closure_and_interior_match_definitions():
    rng = random.Random(15)
    for _ in range(60):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        sets = random_family(rng, ground)
        t = ot.generate(g, sets, SubbasisRole.AS_OPEN_SUBBASIS)
        opens = brute_family_closure(sets, ground)
        closeds = [ground & ~o for o in opens]
        for mask in range(ground + 1):
            smallest_closed = ground
            for c in closeds:
                if c & mask == mask:
                    smallest_closed &= c
            assert ot.closure(t, mask) == smallest_closed
            assert ot.is_closed(t, mask) == (mask in closeds)
            assert t.is_open(mask) == (mask in opens)


def test_is_finer_matches_family_containment():
    rng = random.Random(16)
    for _ in range(150):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        t1 = ot.generate(g, random_family(rng, ground), SubbasisRole.AS_OPEN_SUBBASIS)
        t2 = ot.generate(g, random_family(rng, ground), SubbasisRole.AS_OPEN_SUBBASIS)
        opens1, opens2 = set(t1.opens), set(t2.opens)
        verdict = ot.is_finer(t1, t2)
        assert verdict.ok == (opens2 <= opens1)
        if not verdict.ok:
            assert verdict.missing_open in opens2 - opens1


def test_from_opens_accepts_exactly_closed_families():
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(300):
        g = rng.randint(1, 6)
        ground = (1 << g) - 1
        family = set(brute_family_closure(random_family(rng, ground), ground))
        edit = rng.random()
        if edit < 0.3:
            family.discard(rng.choice(sorted(family)))
        elif edit < 0.6:
            family.add(rng.randrange(ground + 1))
        is_topology = sorted(family) == brute_family_closure(family, ground)
        try:
            t = ot.from_opens(g, family)
        except NotATopologyError:
            assert not is_topology
            rejected += 1
        else:
            assert is_topology and list(t.opens) == sorted(family)
            assert_rows_checked(t)
            accepted += 1
    assert accepted > 50 and rejected > 50


# --- large ground sets: everything goes through the rows ----------------------


def test_large_ground_operations_never_list_subsets():
    n = 40
    full = (1 << n) - 1
    d = ot.discrete(n)
    i = ot.indiscrete(n)
    assert d.rows == tuple(1 << x for x in range(n))
    assert i.opens == (0, full)
    labels = tuple(f"e{k:02d}" for k in range(n))
    chain = ot.build_preorder(labels, list(zip(labels, labels[1:])))
    ta = ot.alexandrov_topology(chain)
    tu = ot.upper_topology(chain)
    assert ta == tu
    assert ta.opens == tuple(full & ~((1 << k) - 1) for k in range(n, -1, -1))
    assert len(tu.opens) == 41
    assert ot.is_finer(d, ta).ok and ot.is_finer(ta, i).ok
    assert not ot.is_finer(i, ta).ok and not ot.is_finer(ta, d).ok
    evens = sum(1 << k for k in range(0, n, 2))
    trace = ot.subspace(ta, evens)
    assert trace == ot.alexandrov_topology(ot.restrict(chain, evens))
    assert len(trace.opens) == 21
    assert ot.subspace(d, evens) == ot.discrete(20)
    assert ot.closure(ta, 1 << 39) == full


def test_open_listing_is_refused_by_its_width_or_by_its_count(monkeypatch):
    monkeypatch.setattr(kernels, "UP_SETS_CAP", 8)
    assert len(ot.discrete(3).opens) == 8
    # On 4 points 2^4 passes the cap, so nothing is listed before the family fits.
    monkeypatch.setattr(kernels, "up_sets", lambda rows, cols=None: pytest.fail("listed"))
    # a point below three others: connected and of width 3, but 9 up-sets, counted
    with pytest.raises(TooLargeError, match="counted until it passed the cap.* has 9 elements"):
        Topology(4, (0b1111, 0b0010, 0b0100, 0b1000)).opens
    # two disjoint 2-chains: width 2, but 3 * 3 up-sets, counted part by part
    with pytest.raises(TooLargeError, match="counted until it passed the cap.* has 9 elements"):
        Topology(4, (0b0011, 0b0010, 0b1100, 0b1000)).opens
    # width 4: its antichain alone has 16 up-closures
    with pytest.raises(TooLargeError, match="4-point antichain"):
        ot.discrete(4).opens


def test_open_listing_on_at_most_twenty_points_runs_no_guard(monkeypatch):
    # 2^20 opens fit the cap, so no family on 20 points can pass it: neither
    # the width's matching nor a count runs before the listing.
    def never(*args):
        raise AssertionError("guard ran")

    monkeypatch.setattr(kernels, "max_antichain", never)
    monkeypatch.setattr(kernels, "count_up_sets", never)
    assert len(ot.discrete(8).opens) == 1 << 8
    labels = default_labels(20)
    chain = ot.build_preorder(labels, list(zip(labels, labels[1:])))
    assert len(ot.alexandrov_topology(chain).opens) == 21
