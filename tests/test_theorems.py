"""Theorem checkers, enumeration, mining, and violation plumbing."""

import gc
import itertools
import json
import random
from fractions import Fraction

import pytest

import ordtop as ot
from ordtop import (
    checkers,
    inputs,
    instances,
    kernels,
    lsc_steps,
    representations,
    theorems,
)
from ordtop.errors import (
    DuplicateLabelError,
    EmptyUniverseError,
    GroundMismatchError,
    PremiseFailedError,
    RefinementViolatedError,
    TooLargeError,
)
from ordtop.theorems import (
    TheoremViolation,
    all_preorders,
    check_alexandrov_antitone,
    check_chain_restriction,
    check_lsc_iff_upper,
    check_linear_extensions_lsc,
    check_scott_necessity,
    check_topology_coincidence,
    default_labels,
    replay_violation,
)


def brute_preorder_count(n: int) -> int:
    """Independent oracle: filter every reflexive relation matrix for transitivity."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(slots)):
        rows = [1 << i for i in range(n)]
        for s, (i, j) in enumerate(slots):
            if bits >> s & 1:
                rows[i] |= 1 << j
        transitive = True
        for i in range(n):
            for j in range(n):
                if rows[i] >> j & 1 and rows[j] & ~rows[i]:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            count += 1
    return count


def test_enumeration_counts_match_matrix_oracle():
    expected = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}  # OEIS A000798
    for n, value in expected.items():
        enumerated = list(all_preorders(default_labels(n)))
        assert len(enumerated) == value
        assert len({p.rows for p in enumerated}) == value  # all distinct
        if n <= 3:
            assert brute_preorder_count(n) == value
    # every enumerated relation really is a preorder
    for p in all_preorders(default_labels(3)):
        for i in range(3):
            assert p.leq_idx(i, i)
            for j in range(3):
                if p.leq_idx(i, j):
                    assert p.rows[j] & ~p.rows[i] == 0


def filtered_partial_order_rows(k):
    """Oracle: every assignment of (incomparable, i below j, j below i) to the
    pairs i < j, in itertools.product order, kept when it is transitive."""
    slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(slots)):
        rows = [1 << i for i in range(k)]
        for (i, j), c in zip(slots, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        if all(
            rows[j] >> m & 1 <= rows[i] >> m & 1
            for i in range(k) for j in range(k) if rows[i] >> j & 1 for m in range(k)
        ):
            out.append(tuple(rows))
    return tuple(out)


def set_partitions(items):
    """Oracle: each partition of the rest, with items[0] put into each of
    its blocks in turn and then into a new block in front."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def block_lifted_preorder_rows(n):
    """Oracle: every set partition of range(n), times every partial order
    on its blocks from the ordered filter, lifted to the points."""
    posets = {}
    out = []
    for blocks in set_partitions(list(range(n))):
        k = len(blocks)
        masks = [sum(1 << x for x in block) for block in blocks]
        block_of = {x: b for b, block in enumerate(blocks) for x in block}
        if k not in posets:
            posets[k] = filtered_partial_order_rows(k)
        for po_rows in posets[k]:
            out.append(tuple(
                sum(masks[c] for c in range(k) if po_rows[block_of[x]] >> c & 1)
                for x in range(n)
            ))
    return out


def test_partial_order_rows_match_the_ordered_filter():
    # The suite seeds each preorder by its index, so the order matters too.
    counts = [1, 1, 3, 19, 219, 4231]  # labelled posets (OEIS A001035)
    for n in range(1, 6):
        rows = [p.rows for p in all_preorders(default_labels(n))]
        assert rows == block_lifted_preorder_rows(n)
        posets = sum(
            not any(r[i] >> j & 1 and r[j] >> i & 1 for i in range(n) for j in range(i + 1, n))
            for r in rows
        )
        assert posets == counts[n]
    for k in range(6):
        assert len(filtered_partial_order_rows(k)) == counts[k]


def test_all_preorders_refuses_more_than_the_suite_cap(monkeypatch):
    def fail(max_n):
        raise AssertionError("preorders enumerated past the cap")

    monkeypatch.setattr(theorems, "_preorder_levels", fail)
    with pytest.raises(TooLargeError) as exc:
        next(all_preorders(default_labels(7)))
    assert (exc.value.limit, exc.value.actual) == (theorems.SUITE_CAP, 7)


@pytest.mark.parametrize(
    "labels, error", [(["a", "b", "a"], DuplicateLabelError), ([], EmptyUniverseError)]
)
def test_all_preorders_refuses_labels_that_build_preorder_refuses(labels, error):
    with pytest.raises(error):
        next(all_preorders(labels))


def test_check_lsc_iff_upper_examples(chain3):
    tu = ot.upper_topology(chain3)
    assert check_lsc_iff_upper(chain3, tu).ok
    report = check_lsc_iff_upper(chain3, ot.indiscrete(3))
    assert report.ok  # both sides false
    assert check_lsc_iff_upper(chain3, ot.discrete(3)).ok


def test_check_scott_necessity_examples(vee, chain3, single):
    report = check_scott_necessity(vee, ot.upper_topology(vee))
    assert report.ok and report.premise_held

    report = check_scott_necessity(chain3, ot.indiscrete(3))
    assert report.ok and not report.premise_held  # vacuous via obstruction

    report = check_scott_necessity(single, ot.indiscrete(1))
    assert report.ok and report.premise_held


def test_check_alexandrov_antitone_examples(antichain2, vee):
    finer = ot.build_preorder(("a", "b"), [("a", "b")])
    report = check_alexandrov_antitone(antichain2, finer)
    assert report.ok

    report = check_alexandrov_antitone(vee, vee)
    assert report.ok

    vee_plus = ot.build_preorder(
        ("a", "b", "c"), [("a", "c"), ("b", "c"), ("a", "b")]
    )
    assert check_alexandrov_antitone(vee, vee_plus).ok

    with pytest.raises(RefinementViolatedError):
        check_alexandrov_antitone(finer, antichain2)


def test_check_alexandrov_antitone_names_the_ground_mismatch():
    abc = ot.build_preorder(("a", "b", "c"))
    with pytest.raises(GroundMismatchError, match="ground sizes differ: 3 vs 2"):
        check_alexandrov_antitone(abc, ot.build_preorder(("a", "b")))
    # Equal sizes, different labels: the first position that differs is named.
    with pytest.raises(PremiseFailedError, match="labels differ at position 2: 'c' vs 'd'"):
        check_alexandrov_antitone(abc, ot.build_preorder(("a", "b", "d")))
    with pytest.raises(PremiseFailedError, match="labels differ at position 0: 'a' vs 'b'") as exc:
        check_alexandrov_antitone(abc, ot.build_preorder(("b", "a", "c")))
    assert exc.value.witness == ("a", "b")


def test_check_linear_extensions_examples(vee, antichain2, chain3):
    assert check_linear_extensions_lsc(vee, ot.alexandrov_topology(vee), 10, 0).ok
    assert check_linear_extensions_lsc(antichain2, ot.discrete(2), 10, 0).ok
    report = check_linear_extensions_lsc(chain3, ot.alexandrov_topology(chain3), 10, 0)
    assert report.ok and report.instances_checked == 1  # its only extension is itself

    with pytest.raises(PremiseFailedError):
        check_linear_extensions_lsc(chain3, ot.indiscrete(3), 10, 0)


def test_linear_extensions_checker_draws_each_sample_with_its_own_seed(monkeypatch):
    # 4! = 24 extensions of the 4-antichain, so 3 of them are drawn; the
    # closedness kernel sees their contours, 4 per extension, in one call.
    real, seen = kernels.first_not_closed, []

    def spy(rows, masks):
        seen.append(list(masks))
        return real(rows, seen[-1])

    monkeypatch.setattr(kernels, "first_not_closed", spy)
    antichain4 = ot.build_preorder(default_labels(4))
    assert check_linear_extensions_lsc(antichain4, ot.discrete(4), 3, 0).ok
    [masks] = seen
    assert len(masks) == 12 and len({tuple(masks[k:k + 4]) for k in (0, 4, 8)}) == 3


def _hook_instance():
    # a <= b plus x incomparable to both
    return ot.build_preorder(("a", "b", "x"), [("a", "b")])


def _long_hook_instance():
    # the chain e0 < ... < e19 beside 20 isolated points: 40!/20! linear extensions
    labels = tuple(f"e{i}" for i in range(40))
    return ot.build_preorder(labels, [(labels[i], labels[i + 1]) for i in range(19)])


def _forbid_extension_enumeration(monkeypatch):
    def fail(p, limit):
        raise AssertionError("linear extensions enumerated for the chain-restriction premise")

    monkeypatch.setattr(lsc_steps, "enumerate_linear_extensions", fail)
    with pytest.raises(AssertionError, match="linear extensions enumerated"):
        check_linear_extensions_lsc(_hook_instance(), ot.discrete(3), 1, 0)  # the spy intercepts


def test_check_chain_restriction_examples(monkeypatch):
    p = _hook_instance()
    chain = ot.mask_of(p, "ab")

    report = check_chain_restriction(p, ot.discrete(3), chain, "x")
    assert report.ok and report.premise_held

    report = check_chain_restriction(p, ot.alexandrov_topology(p), chain, "x")
    assert report.ok and report.premise_held

    report = check_chain_restriction(p, ot.indiscrete(3), chain, "x")
    assert report.ok and not report.premise_held  # some extension is not lsc

    with pytest.raises(PremiseFailedError):
        check_chain_restriction(p, ot.discrete(3), ot.mask_of(p, "ax"), "b")
    with pytest.raises(PremiseFailedError):
        check_chain_restriction(p, ot.discrete(3), ot.mask_of(p, "a"), "b")

    # No size cap: the premise is decided from the rows, never by enumeration.
    _forbid_extension_enumeration(monkeypatch)
    big = _long_hook_instance()
    chain = ot.mask_of(big, [f"e{i}" for i in range(20)])
    for t, premise in (
        (ot.discrete(40), True),
        (ot.alexandrov_topology(big), True),
        (ot.upper_topology(big), True),
        (ot.indiscrete(40), False),
    ):
        report = check_chain_restriction(big, t, chain, "e20")
        assert report.ok and report.premise_held == premise


def test_chain_restriction_refuses_bad_instances_before_enumerating(monkeypatch, vee):
    _forbid_extension_enumeration(monkeypatch)
    big = _long_hook_instance()
    report = check_chain_restriction(big, ot.discrete(40), ot.mask_of(big, ["e0"]), "e39")
    assert report.ok and report.premise_held
    with pytest.raises(PremiseFailedError) as exc:
        check_chain_restriction(big, ot.discrete(40), ot.mask_of(big, ["e0", "e39"]), "e38")
    assert exc.value.reason == "chain is not totally ordered"
    with pytest.raises(PremiseFailedError) as exc:
        check_chain_restriction(vee, ot.discrete(3), ot.mask_of(vee, "ab"), "c")
    assert exc.value.reason == "chain is not totally ordered"
    p = _hook_instance()
    with pytest.raises(PremiseFailedError) as exc:
        check_chain_restriction(p, ot.discrete(3), ot.mask_of(p, "ab"), "a")
    assert exc.value.reason == "'a' lies inside the chain"


def test_check_topology_coincidence_examples(vee, equiv2, single):
    for p in (vee, equiv2, single):
        report = check_topology_coincidence(p)
        assert report.ok


@pytest.mark.parametrize(("wrong", "details"), [
    ("indiscrete", ["upper not within scott", "generators disagree at finite scale"]),
    ("discrete", ["scott not within alexandrov", "generators disagree at finite scale"]),
])
def test_topology_coincidence_reports_a_wrong_scott_topology(monkeypatch, chain3, wrong, details):
    # A Scott generator that returned the wrong topology is caught by one
    # refinement check and by the row comparison.
    monkeypatch.setattr(inputs, "scott_topology", lambda p: getattr(ot, wrong)(p.n))
    report = check_topology_coincidence(chain3)
    assert [v.detail for v in report.violations] == details


def test_chain_outsider_enumeration(vee):
    pairs = list(theorems._chain_outsider_pairs(vee))
    assert (ot.mask_of(vee, "a"), "b") in pairs
    assert (ot.mask_of(vee, "b"), "a") in pairs
    assert all(x not in ("c",) for _, x in pairs)  # c is comparable to everything


def test_mine_zero_violations_and_determinism():
    suite = theorems.mine(seed=0, trials=100, max_size=5)
    assert suite.ok
    again = theorems.mine(seed=0, trials=100, max_size=5)
    assert [(r.theorem_id, r.instances_checked, r.non_vacuous) for r in suite.reports] == [
        (r.theorem_id, r.instances_checked, r.non_vacuous) for r in again.reports
    ]

    with pytest.raises(ValueError):  # no trial would be an ok report of nothing
        theorems.mine(seed=0, trials=0, max_size=5)

    with pytest.raises(TooLargeError):
        theorems.mine(seed=0, trials=1, max_size=9)


@pytest.mark.parametrize("max_size", [1, 0, -5])
def test_mine_refuses_sizes_below_two(max_size):
    with pytest.raises(ValueError, match="at least 2"):
        theorems.mine(seed=0, trials=3, max_size=max_size)


@pytest.mark.parametrize("max_size", [0, -5])
def test_suite_refuses_sizes_below_one(max_size, monkeypatch):
    def fail(max_n):
        raise AssertionError("preorders enumerated for an empty suite")

    monkeypatch.setattr(theorems, "_preorder_levels", fail)
    with pytest.raises(ValueError, match="at least 1"):
        theorems.run_theorem_suite(max_size)


@pytest.mark.parametrize("trials", [0, -3])
def test_mine_refuses_fewer_than_one_trial(trials, monkeypatch):
    def fail(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(theorems, "random_preorder", fail)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        theorems.mine(seed=0, trials=trials, max_size=4)


def test_mine_seed_changes_instance_mix():
    gen0 = [
        theorems.random_preorder(random.Random(0 * 1_000_003 + t), default_labels(5))
        for t in range(20)
    ]
    gen1 = [
        theorems.random_preorder(random.Random(1 * 1_000_003 + t), default_labels(5))
        for t in range(20)
    ]
    assert gen0 != gen1
    assert gen0 == [
        theorems.random_preorder(random.Random(0 * 1_000_003 + t), default_labels(5))
        for t in range(20)
    ]


# Each theorem's record on the hook instance: the mode of its topology (None
# for none) and its params, as the suite records them.
REPLAY_CASES = {
    "topology-coincidence": (None, {}),
    "lsc-iff-upper": ("upper", {}),
    "scott-necessity": ("indiscrete", {}),
    "alexandrov-antitone": (None, {"coarse_relation": [["a", "a"], ["b", "b"], ["x", "x"]]}),
    "linear-extensions-lsc": ("discrete", {"samples": 2, "seed": 5}),
    "chain-restriction": ("discrete", {"chain": ["a", "b"], "x": "x"}),
}


@pytest.mark.parametrize("theorem_id", theorems.THEOREM_IDS)
def test_every_theorem_replays_through_its_public_checker(theorem_id, monkeypatch):
    p = _hook_instance()
    mode, params = REPLAY_CASES[theorem_id]
    t = None if mode is None else instances.resolve_topology_mode(mode, p)
    name = "check_" + theorem_id.replace("-", "_")
    public, calls = getattr(checkers, name), []
    monkeypatch.setattr(checkers, name, lambda *args: calls.append(args) or public(*args))
    report = replay_violation(inputs._violation(theorem_id, p, t, params=params))
    expected = {
        "topology-coincidence": (p,),
        "lsc-iff-upper": (p, t),
        "scott-necessity": (p, t),
        "alexandrov-antitone": (ot.build_preorder(p.elements), p),
        "linear-extensions-lsc": (p, t, 2, 5),
        "chain-restriction": (p, t, ot.mask_of(p, "ab"), "x"),
    }[theorem_id]
    assert calls == [expected]
    assert report.theorem_id == theorem_id and report.ok


@pytest.mark.parametrize(
    "theorem_id", [tid for tid in theorems.THEOREM_IDS if REPLAY_CASES[tid][0] is not None]
)
def test_replay_refuses_a_record_whose_document_lacks_its_topology(theorem_id, monkeypatch):
    name = "check_" + theorem_id.replace("-", "_")
    monkeypatch.setattr(checkers, name, lambda *args: pytest.fail("checker called"))
    v = inputs._violation(theorem_id, _hook_instance(), params=REPLAY_CASES[theorem_id][1])
    with pytest.raises(ValueError, match=f"'{theorem_id}' record needs a topology"):
        replay_violation(v)


def test_replay_refuses_an_unknown_theorem_before_parsing(monkeypatch):
    monkeypatch.setattr(instances, "parse_instance", lambda text: pytest.fail("parsed"))
    with pytest.raises(ValueError, match="unknown theorem id 'no-such-theorem'"):
        replay_violation(TheoremViolation("no-such-theorem", "{}", {}, ""))


def test_violation_serialisation_and_replay(chain3, monkeypatch):
    tu = ot.upper_topology(chain3)
    v = inputs._violation("lsc-iff-upper", chain3, tu, detail="fabricated")
    assert v.theorem_id == "lsc-iff-upper"
    assert json.loads(v.instance)["elements"] == ["a", "b", "c"]
    # replay dispatches to the right checker and rebuilds the exact instance
    report = replay_violation(v)
    assert report.theorem_id == "lsc-iff-upper"
    assert report.ok  # the fabricated instance actually satisfies the theorem

    # A chain-restriction record (the suite makes these on its shared-premise
    # path) replays through the public checker, which decides the premise afresh.
    public = theorems.check_chain_restriction
    calls = []

    def spy(p, t, chain, x):
        calls.append((p, t, chain, x))
        return public(p, t, chain, x)

    monkeypatch.setattr(checkers, "check_chain_restriction", spy)
    p = _hook_instance()
    for t, premise in ((ot.discrete(3), True), (ot.indiscrete(3), False)):
        v2 = inputs._violation(
            "chain-restriction", p, t, params={"chain": ["a", "b"], "x": "x"}
        )
        report = replay_violation(v2)
        assert calls[-1] == (p, t, ot.mask_of(p, "ab"), "x")
        assert report.theorem_id == "chain-restriction" and report.ok
        assert (report.instances_checked, report.non_vacuous) == (1, int(premise))
    assert len(calls) == 2


def test_run_theorem_suite_small():
    suite = theorems.run_theorem_suite(max_size=2, seed=1)
    assert suite.ok
    by_id = {r.theorem_id: r for r in suite.reports}
    assert set(by_id) == set(theorems.THEOREM_IDS)
    assert all(r.instances_checked > 0 for r in suite.reports)
    assert by_id["chain-restriction"].non_vacuous > 0


def _answers(suite):
    return [
        (r.theorem_id, r.instances_checked, r.non_vacuous, r.violations)
        for r in suite.reports
    ]


class Counts:
    """Per-theorem counts and violations of the reference loops, in the shape
    of ``_answers``; kept apart from the tallies of the code they check."""

    def __init__(self):
        self.by_id = {tid: [0, 0, []] for tid in theorems.THEOREM_IDS}
        self.vacuous_ids = []

    def add(self, report):
        entry = self.by_id[report.theorem_id]
        entry[0] += report.instances_checked
        entry[1] += report.non_vacuous
        entry[2] += report.violations

    def vacuous(self, theorem_id):
        self.by_id[theorem_id][0] += 1
        self.vacuous_ids.append(theorem_id)

    def answers(self):
        return [(tid, c, nv, tuple(v)) for tid, (c, nv, v) in self.by_id.items()]


def reference_suite(max_size, seed):
    """The suite as one public checker call per instance, nothing shared."""
    counts = Counts()
    for n in range(1, max_size + 1):
        for pi, p in enumerate(all_preorders(default_labels(n))):
            rng = random.Random(seed * 7_777_777 + pi * 101 + n)
            tu = ot.upper_topology(p)
            ta = ot.alexandrov_topology(p)
            sample_ts = [
                ot.indiscrete(n),
                ot.discrete(n),
                tu,
                ta,
                ot.random_topology_between(tu, rng.randrange(1 << 30), 2),
                ot.random_topology_between(ot.indiscrete(n), rng.randrange(1 << 30), 2),
            ]
            counts.add(check_topology_coincidence(p))
            for t in sample_ts:
                counts.add(check_lsc_iff_upper(p, t))
                counts.add(check_scott_necessity(p, t))
            counts.add(check_alexandrov_antitone(p, theorems.random_refinement(rng, p)))
            for t in (ta, ot.random_topology_between(ta, rng.randrange(1 << 30), 2)):
                counts.add(
                    check_linear_extensions_lsc(p, t, samples=4, seed=rng.randrange(1 << 30))
                )
            for chain, x in theorems._chain_outsider_pairs(p):
                for t in sample_ts:
                    counts.add(check_chain_restriction(p, t, chain, x))
    return counts.answers()


@pytest.mark.parametrize("seed", [0, 11])
def test_suite_matches_public_checker_loop(seed):
    suite = theorems.run_theorem_suite(max_size=3, seed=seed)
    assert _answers(suite) == reference_suite(3, seed)
    by_id = {r.theorem_id: r for r in suite.reports}
    assert 0 < by_id["chain-restriction"].non_vacuous < by_id["chain-restriction"].instances_checked


def reference_mine(seed, trials, max_size):
    """``mine`` as one public checker call per instance, nothing shared: a
    failed linear-extensions-lsc premise is caught and retried above the
    Alexandrov topology.  Returns the ``Counts``."""
    counts = Counts()
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        n = rng.randint(2, max(2, max_size))
        p = theorems.random_preorder(rng, default_labels(n))
        base_kind = rng.choice(("indiscrete", "upper", "alexandrov"))
        if base_kind == "indiscrete":
            base = ot.indiscrete(n)
        elif base_kind == "upper":
            base = ot.upper_topology(p)
        else:
            base = ot.alexandrov_topology(p)
        t = ot.random_topology_between(base, rng.randrange(1 << 30), rng.randint(0, 3))

        counts.add(check_topology_coincidence(p))
        counts.add(check_lsc_iff_upper(p, t))
        counts.add(check_scott_necessity(p, t))
        counts.add(check_alexandrov_antitone(p, theorems.random_refinement(rng, p)))
        try:
            counts.add(check_linear_extensions_lsc(p, t, samples=6, seed=rng.randrange(1 << 30)))
        except PremiseFailedError:
            counts.vacuous("linear-extensions-lsc")
            above = ot.random_topology_between(
                ot.alexandrov_topology(p), rng.randrange(1 << 30), rng.randint(0, 2)
            )
            counts.add(
                check_linear_extensions_lsc(p, above, samples=6, seed=rng.randrange(1 << 30))
            )
        found = theorems.find_chain_and_outsider(p, rng)
        if found is None:
            counts.vacuous("chain-restriction")
        else:
            chain, x = found
            counts.add(check_chain_restriction(p, t, chain, x))
    return counts


# (seed, trials, max_size): each run meets both vacuous paths of mine.
MINE_RUNS = [(0, 60, 4), (114, 60, 8)]


@pytest.mark.parametrize(("seed", "trials", "max_size"), MINE_RUNS)
def test_mine_matches_public_checker_loop(seed, trials, max_size):
    reference = reference_mine(seed, trials, max_size)
    assert {"linear-extensions-lsc", "chain-restriction"} <= set(reference.vacuous_ids)
    assert _answers(theorems.mine(seed, trials, max_size)) == reference.answers()


def test_mine_reports_violations_in_public_checker_order(monkeypatch):
    # Every lsc check goes through the closedness kernel.  Failing it on an
    # even ground set gives lsc-iff-upper and linear-extensions-lsc
    # violations in some trials only, and the witness depends on the masks,
    # so their order and instances are compared too.
    real = kernels.first_not_closed

    def fails_on_even_ground(rows, masks):
        masks = list(masks)
        if masks and len(rows) % 2 == 0:
            return masks.index(max(masks))
        return real(rows, masks)

    monkeypatch.setattr(kernels, "first_not_closed", fails_on_even_ground)
    for seed, trials, max_size in MINE_RUNS:
        suite = theorems.mine(seed, trials, max_size)
        assert _answers(suite) == reference_mine(seed, trials, max_size).answers()
        by_id = {r.theorem_id: r for r in suite.reports}
        assert len(by_id["lsc-iff-upper"].violations) > 1
        assert len(by_id["linear-extensions-lsc"].violations) > 1


def suite_topologies(p, pi, n, seed):
    """The six topologies the suite pairs with the ``pi``-th preorder on n elements."""
    rng = random.Random(seed * 7_777_777 + pi * 101 + n)
    tu = ot.upper_topology(p)
    return [
        ot.indiscrete(n),
        ot.discrete(n),
        tu,
        ot.alexandrov_topology(p),
        ot.random_topology_between(tu, rng.randrange(1 << 30), 2),
        ot.random_topology_between(ot.indiscrete(n), rng.randrange(1 << 30), 2),
    ]


def test_integer_family_matches_public_construction():
    for n in range(1, 4):
        for pi, p in enumerate(all_preorders(default_labels(n))):
            # g_i(j) = f(j), plus (max f + 1) when j is not below i, where
            # f(j) is the number of elements j is not below.
            f = [sum(not p.leq_idx(j, k) for k in range(n)) for j in range(n)]
            expected = [
                [f[j] + (0 if p.leq_idx(j, i) else max(f) + 1) for j in range(n)]
                for i in range(n)
            ]
            for t in suite_topologies(p, pi, n, seed=0):
                sc, rows = representations._lsc_rp_keys(p, t)
                result = ot.construct_finite_lsc_rp_multiutility(p, t)
                assert (sc.witness, sc.contour) == (
                    result.obstruction,
                    result.obstruction_contour,
                )
                if not result.has_family:
                    assert not sc.ok and rows == []
                    continue
                members = result.family.members
                assert sc.ok
                assert rows == [representations._integer_keys(g.values) for g in members]
                assert rows == expected


def pairwise_chain_outsider_pairs(p):
    """Oracle: test every pair of chain points, then every outsider, by leq."""
    n = p.n
    for chain in range(1, 1 << n):
        elems = [i for i in range(n) if chain >> i & 1]
        if any(
            not p.leq_idx(a, b) and not p.leq_idx(b, a)
            for ai, a in enumerate(elems)
            for b in elems[ai + 1 :]
        ):
            continue
        for xi in range(n):
            if chain >> xi & 1:
                continue
            if all(not p.leq_idx(xi, c) and not p.leq_idx(c, xi) for c in elems):
                yield chain, p.elements[xi]


def test_chain_outsider_pairs_match_pairwise_oracle():
    for n in range(1, 5):
        for p in all_preorders(default_labels(n)):
            assert list(theorems._chain_outsider_pairs(p)) == list(
                pairwise_chain_outsider_pairs(p)
            )


def test_chain_outsider_pairs_refuse_more_than_the_suite_cap():
    p = ot.build_preorder(default_labels(7))
    with pytest.raises(TooLargeError) as exc:
        next(theorems._chain_outsider_pairs(p))
    assert (exc.value.limit, exc.value.actual) == (theorems.SUITE_CAP, 7)


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_and_miner_leave_no_cyclic_garbage(seed):
    # A reference cycle per call (a recursive closure, say) holds its
    # objects until the cyclic collector runs; the drivers make none.
    gc.collect()
    gc.disable()
    try:
        theorems.run_theorem_suite(3, seed)
        suite_garbage = gc.collect()
        theorems.mine(seed, 30, 6)
        mine_garbage = gc.collect()
    finally:
        gc.enable()
    assert (suite_garbage, mine_garbage) == (0, 0)


def test_suite_size_4_counts():
    suite = theorems.run_theorem_suite(max_size=4, seed=0)
    assert suite.ok
    assert [(r.theorem_id, r.instances_checked, r.non_vacuous) for r in suite.reports] == [
        ("topology-coincidence", 389, 389),
        ("lsc-iff-upper", 2334, 2334),
        ("scott-necessity", 2334, 1569),
        ("alexandrov-antitone", 389, 389),
        ("linear-extensions-lsc", 2024, 2024),
        ("chain-restriction", 12582, 8390),
    ]


def test_suite_shares_conclusions_only_between_equal_topologies(monkeypatch):
    # The theorem holds, so a conclusion shared across different topologies
    # would still read ok.  A conclusion that fails in the discrete topology
    # alone makes any such sharing change the answers.
    real = lsc_steps._chain_refines_alexandrov

    def fails_when_discrete(p, t, chain):
        missing = real(p, t, chain)
        if t == ot.discrete(p.n):
            return chain
        return missing

    monkeypatch.setattr(lsc_steps, "_chain_refines_alexandrov", fails_when_discrete)
    suite = theorems.run_theorem_suite(max_size=3, seed=0)
    assert _answers(suite) == reference_suite(3, 0)
    by_id = {r.theorem_id: r for r in suite.reports}
    assert len(by_id["chain-restriction"].violations) > 0


def test_exhaustive_premise_refuses_a_truncated_extension_list(monkeypatch):
    # The premise needs no extension list, so none can be truncated: the
    # chain-restriction checker requests no extensions, and the others
    # request only the samples + 1 that linear-extensions-lsc reads.
    real = lsc_steps.enumerate_linear_extensions
    limits = []

    def spy(p, limit):
        limits.append(limit)
        return real(p, limit)

    monkeypatch.setattr(lsc_steps, "enumerate_linear_extensions", spy)
    antichain4 = ot.build_preorder(default_labels(4))  # 4! = 24 linear extensions
    report = check_chain_restriction(antichain4, ot.discrete(4), ot.mask_of(antichain4, "a"), "b")
    assert report.premise_held and limits == []
    report = check_linear_extensions_lsc(antichain4, ot.discrete(4), 3, 0)
    assert report.instances_checked == 3 and limits == [4]
    # A failing premise is decided before anything is enumerated.
    limits.clear()
    with pytest.raises(PremiseFailedError) as exc:
        check_linear_extensions_lsc(antichain4, ot.indiscrete(4), 3, 0)
    assert limits == []
    assert exc.value.reason == "topology is not finer than the Alexandrov topology"
    fin = ot.is_finer(ot.indiscrete(4), ot.alexandrov_topology(antichain4))
    assert exc.value.witness == fin.missing_open
    limits.clear()
    theorems.run_theorem_suite(max_size=4, seed=0)
    assert set(limits) == {5}  # the suite draws 4 samples per instance


@pytest.mark.parametrize("samples", [0, -2])
def test_linear_extensions_checker_refuses_fewer_than_one_sample(samples, monkeypatch):
    # The premise holds here, so an unrefused call would report an ok
    # instance with nothing checked.
    def fail(p, limit):
        raise AssertionError("extensions enumerated")

    monkeypatch.setattr(lsc_steps, "enumerate_linear_extensions", fail)
    antichain2 = ot.build_preorder(default_labels(2))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        check_linear_extensions_lsc(antichain2, ot.discrete(2), samples, 0)
    with pytest.raises(AssertionError, match="extensions enumerated"):
        check_linear_extensions_lsc(antichain2, ot.discrete(2), 1, 0)  # the spy intercepts


def test_suite_miner_and_public_checker_run_the_table_step(monkeypatch, chain3):
    # One step per theorem, in its family module: replacing it in the table
    # reaches all three callers.
    theorem = checkers._THEOREMS["scott-necessity"]
    assert theorem.step is lsc_steps._scott_necessity
    suite_answers = _answers(theorems.run_theorem_suite(3, 0))
    mine_answers = _answers(theorems.mine(0, 10, 4))
    calls = []

    def spy(inputs):
        calls.append(inputs.p)
        return theorem.step(inputs)

    monkeypatch.setitem(checkers._THEOREMS, "scott-necessity", theorem._replace(step=spy))
    assert _answers(theorems.run_theorem_suite(3, 0)) == suite_answers
    assert calls == [p for n in range(1, 4) for p in all_preorders(default_labels(n))]
    calls.clear()
    assert _answers(theorems.mine(0, 10, 4)) == mine_answers
    assert len(calls) == 10
    calls.clear()
    report = check_scott_necessity(chain3, ot.upper_topology(chain3))
    assert calls == [chain3]
    assert report.ok and (report.instances_checked, report.non_vacuous) == (1, 1)


def test_shared_facts_are_built_once_and_only_when_read(monkeypatch, chain3):
    def fail(p):
        raise AssertionError("built")

    with monkeypatch.context() as m:
        m.setattr(inputs, "scott_topology", fail)
        m.setattr(inputs, "_scott_family", fail)
        for t in (ot.discrete(3), ot.indiscrete(3), ot.upper_topology(chain3)):
            assert check_lsc_iff_upper(chain3, t).ok
    # A verdict faked in the indiscrete topology fails for most preorders
    # on 3 points, so some preorders have no sample whose premise holds.
    real_verdict = inputs.preorder_semicontinuity
    held, scotts, families = {}, [], []

    def verdict(p, t, sense):
        sc = real_verdict(p, t if p.n < 3 else ot.indiscrete(p.n), sense)
        held[p] = held.get(p, False) or sc.ok
        return sc

    real_scott, real_family = inputs.scott_topology, inputs._scott_family
    monkeypatch.setattr(inputs, "preorder_semicontinuity", verdict)
    monkeypatch.setattr(inputs, "scott_topology", lambda p: scotts.append(p) or real_scott(p))
    monkeypatch.setattr(inputs, "_scott_family", lambda p: families.append(p) or real_family(p))
    theorems.run_theorem_suite(3, 0)
    assert scotts == [p for n in range(1, 4) for p in all_preorders(default_labels(n))]
    assert families == [p for p, ok in held.items() if ok]
    assert 0 < len(families) < len(held) == len(scotts)


def test_suite_decides_lsc_per_distinct_topology(monkeypatch):
    # Every lsc check (of p, of its linear extensions, of the chain-restriction
    # premise) goes through the closedness kernel, decided per distinct t; a
    # verdict shared across different topologies, or a premise memo keyed by
    # the contour alone, would miss the discrete one.  The witness depends on
    # the masks, so the linear extensions checked in the discrete topology
    # show in the violations too.
    real = kernels.first_not_closed

    def fails_when_discrete(rows, masks):
        if rows == ot.discrete(len(rows)).rows:
            masks = list(masks)
            return masks.index(max(masks))
        return real(rows, masks)

    monkeypatch.setattr(kernels, "first_not_closed", fails_when_discrete)
    suite = theorems.run_theorem_suite(max_size=3, seed=0)
    assert _answers(suite) == reference_suite(3, 0)
    by_id = {r.theorem_id: r for r in suite.reports}
    assert by_id["lsc-iff-upper"].violations and by_id["linear-extensions-lsc"].violations


def test_suite_checks_scott_family_members_in_each_topology(monkeypatch):
    # The family is built once per p, but its members are checked in every
    # distinct t.
    real = lsc_steps._members_not_lsc

    def fails_when_discrete(t, belows, sublevels):
        if t == ot.discrete(t.ground_size):
            return [(len(belows) - 1, 0)]
        return real(t, belows, sublevels)

    monkeypatch.setattr(lsc_steps, "_members_not_lsc", fails_when_discrete)
    suite = theorems.run_theorem_suite(max_size=3, seed=0)
    assert _answers(suite) == reference_suite(3, 0)
    by_id = {r.theorem_id: r for r in suite.reports}
    assert by_id["scott-necessity"].violations


def test_suite_validates_every_chain_outsider_pair(monkeypatch):
    # The invalid pair shares its chain with a valid one, so validating once
    # per p or once per chain would let it through.
    real = theorems._chain_outsider_pairs
    antichain3 = ot.build_preorder(default_labels(3))

    def with_one_invalid_pair(p):
        for chain, x in real(p):
            yield chain, x
            if p == antichain3 and (chain, x) == (1, "b"):
                yield 1, "a"  # the outsider lies inside the chain

    monkeypatch.setattr(theorems, "_chain_outsider_pairs", with_one_invalid_pair)
    with pytest.raises(PremiseFailedError) as suite:
        theorems.run_theorem_suite(max_size=3, seed=0)
    with pytest.raises(PremiseFailedError) as reference:
        reference_suite(3, 0)
    assert suite.value.reason == reference.value.reason == "'a' lies inside the chain"
    assert suite.value.args == reference.value.args


def test_suite_validates_a_new_chain_before_its_outsider(monkeypatch):
    # The first invalid pair's chain {a, b} is not totally ordered, and its
    # outsider lies inside it: the chain's error is the one raised.
    real = theorems._chain_outsider_pairs
    antichain3 = ot.build_preorder(default_labels(3))

    def with_one_invalid_chain(p):
        for chain, x in real(p):
            yield chain, x
            if p == antichain3 and (chain, x) == (1, "b"):
                yield 0b011, "a"

    monkeypatch.setattr(theorems, "_chain_outsider_pairs", with_one_invalid_chain)
    with pytest.raises(PremiseFailedError) as suite:
        theorems.run_theorem_suite(max_size=3, seed=0)
    with pytest.raises(PremiseFailedError) as reference:
        reference_suite(3, 0)
    assert suite.value.reason == reference.value.reason == "chain is not totally ordered"
    assert suite.value.witness == reference.value.witness == ("a", "b")


def label_pair_refinement(rng, p):
    """Oracle: the refinement drawn as label pairs and closed by build_preorder."""
    extra = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(p.n)
        b = rng.randrange(p.n)
        if a != b:
            extra.append((p.elements[a], p.elements[b]))
    pairs = [
        (p.elements[i], p.elements[j])
        for i in range(p.n)
        for j in range(p.n)
        if p.leq_idx(i, j)
    ] + extra
    return ot.build_preorder(p.elements, pairs, autoclose=True)


def test_random_refinement_matches_label_pair_oracle():
    for n in range(1, 5):
        for p in all_preorders(default_labels(n)):
            for seed in range(4):
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                assert theorems.random_refinement(rng, p) == label_pair_refinement(oracle_rng, p)
                assert rng.random() == oracle_rng.random()  # the same draws


def test_mask_cores_match_object_route():
    lower = representations.Sense.LOWER
    for n in range(1, 5):
        for pi, p in enumerate(all_preorders(default_labels(n))):
            chains = [
                c for c in range(1, 1 << n)
                if all(c & ~(p.rows[i] | p.cols[i]) == 0 for i in range(n) if c >> i & 1)
            ]
            exts = ot.enumerate_linear_extensions(p, 1000)
            ta = ot.alexandrov_topology(p)
            belows, sublevels, _ = representations._scott_family(p)
            members = [
                representations.ValueFunction(p.elements, tuple(Fraction(v) for v in row))
                for row in representations._lsc_rp_rows(p)
            ]
            for t in suite_topologies(p, pi, n, seed=0):
                # Closed means an open complement, which Topology.is_open decides alone.
                for mask in range(1 << n):
                    closed = t.is_open(t.full_mask ^ mask)
                    assert (kernels.first_not_closed(t.rows, [mask]) < 0) == closed
                    assert ot.is_closed(t, mask) == closed
                first = next(
                    (i for i, c in enumerate(p.cols) if not t.is_open(t.full_mask ^ c)), -1
                )
                assert kernels.first_not_closed(t.rows, p.cols) == first
                assert ot.is_finer(t, ta).ok == all(
                    ot.preorder_semicontinuity(e, t, lower).ok for e in exts
                )
                verdicts = [ot.semicontinuity(g, t, lower) for g in members]
                assert lsc_steps._members_not_lsc(t, belows, sublevels) == [
                    (k, p.elements.index(sc.at)) for k, sc in enumerate(verdicts) if not sc.ok
                ]
                for chain in chains:
                    fin = ot.is_finer(
                        ot.subspace(t, chain), ot.alexandrov_topology(ot.restrict(p, chain))
                    )
                    missing = lsc_steps._chain_refines_alexandrov(p, t, chain)
                    assert missing == (None if fin.ok else fin.missing_open)


def assert_premise_identity(p, ts):
    """The chain-restriction premise, every linear extension of p lsc in t,
    decided by enumerating the extensions, against ``is_finer(t, ta)``."""
    exts = ot.enumerate_linear_extensions(p, 50_000)
    assert len(exts) < 50_000  # the enumeration is complete
    # The extension contours are exactly the nonempty down-sets of p ...
    full = p.full_mask
    contours = {c for e in exts for c in e.cols}
    assert contours == {full ^ u for u in kernels.up_sets(list(p.rows)) if u != full}
    # ... so every extension is lsc iff every up-set of p is open.
    ta = ot.alexandrov_topology(p)
    for t in ts:
        assert ot.is_finer(t, ta).ok == (kernels.first_not_closed(t.rows, contours) < 0)


def test_chain_restriction_premise_is_alexandrov_refinement():
    # Every labelled (p, t) pair up to 4 points: on a finite set every
    # topology is the Alexandrov topology of some preorder.
    for n in range(1, 5):
        ps = list(all_preorders(default_labels(n)))
        every_t = [ot.Topology(n, q.rows) for q in ps]
        for p in ps:
            assert_premise_identity(p, every_t)
    # The suite's six samples at 5 points.
    for pi, p in enumerate(all_preorders(default_labels(5))):
        assert_premise_identity(p, suite_topologies(p, pi, 5, seed=0))
    # Seeded preorders on 6-8 points, with topologies on both sides of the
    # boundary: Alexandrov topologies of a refinement (coarser than that of
    # p) and of a sub-preorder (finer).
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(6, 8)
        p = theorems.random_preorder(rng, default_labels(n))
        dropped = [row & ~(rng.randrange(1 << n) & ~(1 << i)) for i, row in enumerate(p.rows)]
        ts = [
            ot.indiscrete(n),
            ot.discrete(n),
            ot.upper_topology(p),
            ot.alexandrov_topology(p),
            ot.alexandrov_topology(theorems.random_refinement(rng, p)),
            ot.Topology(n, tuple(kernels.transitive_closure(dropped))),
            ot.random_topology_between(ot.indiscrete(n), rng.randrange(1 << 30), 3),
        ]
        assert_premise_identity(p, ts)


# The public names of ordtop.theorems before the one-instance checkers moved
# to ordtop.checkers.
THEOREMS_PUBLIC_NAMES = (
    "MINE_CAP", "SUITE_CAP", "THEOREM_IDS", "TheoremViolation", "TheoremReport",
    "check_lsc_iff_upper", "check_scott_necessity", "check_alexandrov_antitone",
    "check_linear_extensions_lsc", "check_chain_restriction", "check_topology_coincidence",
    "replay_violation", "all_preorders", "default_labels", "random_preorder",
    "random_refinement", "find_chain_and_outsider", "SuiteReport", "mine", "run_theorem_suite",
)


def test_theorems_keeps_its_public_names():
    for name in THEOREMS_PUBLIC_NAMES:
        obj = getattr(theorems, name)
        if hasattr(checkers, name):
            assert obj is getattr(checkers, name)  # re-exported, not a copy
    # The suite drivers stay defined here: a profiler that wraps a module's
    # own functions finds them under ordtop.theorems.
    assert theorems.run_theorem_suite.__module__ == "ordtop.theorems"
    assert theorems.mine.__module__ == "ordtop.theorems"
    assert theorems.TheoremReport.__module__ == "ordtop.checkers"
