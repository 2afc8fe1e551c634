"""Utility machinery: monotonicity, multi-utilities, semicontinuity, constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordtop as ot
from ordtop.errors import (
    DomainMismatchError,
    EmptyFamilyError,
    NotLscPreorderError,
)
from ordtop.instances import parse_instance, document_family, document_preorder
from ordtop.representations import (
    FunctionFamily,
    MonotonicityVerdict,
    RepVerdict,
    RepWitness,
    ScVerdict,
    Sense,
    ValueFunction,
    WitnessKind,
)
from ordtop.theorems import default_labels, random_preorder
from tests.conftest import fixture_text


def vf(p, *vals):
    return ValueFunction(p.elements, tuple(Fraction(v) for v in vals))


# --- monotonicity -------------------------------------------------------------


def test_monotonicity_examples(chain3, vee):
    m = ot.monotonicity(vf(chain3, 0, 1, 2), chain3)
    assert (m.isotonic, m.order_preserving) == (True, True)

    m = ot.monotonicity(vf(chain3, 0, 0, 1), chain3)
    assert (m.isotonic, m.order_preserving) == (True, False)
    assert m.witness == ("a", "b")

    m = ot.monotonicity(vf(vee, 1, 0, 1), vee)
    assert (m.isotonic, m.order_preserving) == (True, False)
    assert m.witness == ("a", "c")

    m = ot.monotonicity(vf(chain3, 2, 1, 0), chain3)
    assert not m.isotonic and not m.order_preserving

    with pytest.raises(DomainMismatchError):
        ot.monotonicity(ValueFunction(("x",), (Fraction(0),)), chain3)


# --- multi-utility checks ------------------------------------------------------


def test_is_multiutility_examples(vee, antichain2):
    indicator = ot.FunctionFamily(
        (vf(vee, 1, 0, 1), vf(vee, 0, 1, 1), vf(vee, 0, 0, 1))
    )
    assert ot.is_multiutility(indicator, vee).ok

    constant = ot.FunctionFamily((vf(antichain2, 0, 0),))
    verdict = ot.is_multiutility(constant, antichain2)
    assert not verdict.ok
    assert verdict.witness.kind is WitnessKind.NOT_SEPARATED
    assert {verdict.witness.x, verdict.witness.y} == {"a", "b"}

    with pytest.raises(EmptyFamilyError):
        ot.is_multiutility(ot.FunctionFamily(()), vee)


def test_two_rays_fixture_is_multiutility():
    doc = parse_instance(fixture_text("two_rays.json"))
    p = document_preorder(doc)
    family = document_family(doc)
    assert ot.is_multiutility(family, p).ok
    # printed functions are isotonic and lower semicontinuous in the upper topology
    tu = ot.upper_topology(p)
    for member in family.members:
        assert ot.monotonicity(member, p).isotonic
        assert ot.semicontinuity(member, tu, Sense.LOWER).ok


def test_is_richter_peleg_examples(vee, single):
    g = ot.FunctionFamily((vf(vee, 1, 4, 5), vf(vee, 4, 1, 5), vf(vee, 1, 1, 2)))
    assert ot.is_richter_peleg_multiutility(g, vee).ok

    indicator = ot.FunctionFamily(
        (vf(vee, 1, 0, 1), vf(vee, 0, 1, 1), vf(vee, 0, 0, 1))
    )
    verdict = ot.is_richter_peleg_multiutility(indicator, vee)
    assert not verdict.ok
    assert verdict.witness.kind is WitnessKind.STRICTNESS_VIOLATED
    assert (verdict.witness.x, verdict.witness.y, verdict.witness.member) == ("a", "c", 0)

    one = ot.FunctionFamily((vf(single, 0),))
    assert ot.is_richter_peleg_multiutility(one, single).ok


def test_rp_strict_part_equivalence_seeded():
    rng = random.Random(41)
    for _ in range(60):
        p = random_preorder(rng, default_labels(rng.randint(2, 6)))
        t = ot.upper_topology(p)
        result = ot.construct_finite_lsc_rp_multiutility(p, t)
        family = result.family
        assert ot.is_richter_peleg_multiutility(family, p).ok
        for i in range(p.n):
            for j in range(p.n):
                strict = p.leq_idx(i, j) and not p.leq_idx(j, i)
                all_lt = all(f.values[i] < f.values[j] for f in family.members)
                assert strict == all_lt


# --- semicontinuity -------------------------------------------------------------


def test_semicontinuity_examples(chain3):
    t = ot.upper_topology(chain3)
    assert ot.semicontinuity(vf(chain3, 0, 1, 2), t, Sense.LOWER).ok

    verdict = ot.semicontinuity(vf(chain3, 0, 2, 1), t, Sense.LOWER)
    assert not verdict.ok
    assert verdict.failing_set == ot.mask_of(chain3, "ac")

    assert ot.semicontinuity(vf(chain3, 5, 0, 3), ot.discrete(3), Sense.BOTH).ok


def test_semicontinuity_matches_continuity_into_image_chain():
    """Lower semicontinuity == continuity into the upper topology of the image."""
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 5)
        p = random_preorder(rng, default_labels(n))
        t = ot.random_topology_between(
            ot.indiscrete(n), rng.randrange(1 << 30), rng.randint(0, 3)
        )
        f = ValueFunction(p.elements, tuple(Fraction(rng.randint(0, 3)) for _ in range(n)))
        image = sorted(set(f.values))
        chain = ot.build_preorder(
            tuple(str(v) for v in image),
            [(str(a), str(b)) for a, b in zip(image, image[1:])],
        )
        tu = ot.upper_topology(chain)
        t_opens = set(t.opens)
        continuous = True
        for o in tu.opens:
            preimage = 0
            for i, v in enumerate(f.values):
                if o >> image.index(v) & 1:
                    preimage |= 1 << i
            if preimage not in t_opens:
                continuous = False
                break
        assert ot.semicontinuity(f, t, Sense.LOWER).ok == continuous


def test_preorder_semicontinuity_examples(chain3):
    tu = ot.upper_topology(chain3)
    assert ot.preorder_semicontinuity(chain3, tu, Sense.LOWER).ok

    verdict = ot.preorder_semicontinuity(chain3, ot.indiscrete(3), Sense.LOWER)
    assert not verdict.ok
    assert verdict.witness == "a"
    assert verdict.contour == ot.mask_of(chain3, "a")

    assert ot.preorder_semicontinuity(chain3, ot.discrete(3), Sense.LOWER).ok
    # the upper topology closes lower contours only; the dual sense fails there
    verdict = ot.preorder_semicontinuity(chain3, tu, Sense.UPPER)
    assert not verdict.ok and verdict.witness == "b"
    assert ot.preorder_semicontinuity(chain3, ot.discrete(3), Sense.UPPER).ok


def test_lsc_iff_upper_refinement_seeded():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(2, 6)
        p = random_preorder(rng, default_labels(n))
        t = ot.random_topology_between(
            ot.indiscrete(n), rng.randrange(1 << 30), rng.randint(0, 4)
        )
        lhs = ot.preorder_semicontinuity(p, t, Sense.LOWER).ok
        rhs = ot.is_finer(t, ot.upper_topology(p)).ok
        assert lhs == rhs


def test_strict_continuity_examples(chain3, antichain2):
    assert ot.strict_continuity(chain3, ot.order_topology(chain3)).ok
    verdict = ot.strict_continuity(chain3, ot.indiscrete(3))
    assert not verdict.ok and verdict.witness == "a"
    assert ot.strict_continuity(antichain2, ot.indiscrete(2)).ok


# --- constructions ---------------------------------------------------------------


def test_indicator_multiutility_examples(vee, single, equiv2):
    fam = ot.construct_indicator_multiutility(vee)
    assert [tuple(map(int, f.values)) for f in fam.members] == [
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 1),
    ]
    assert ot.is_multiutility(fam, vee).ok

    assert [int(v) for v in ot.construct_indicator_multiutility(single).members[0].values] == [1]

    fam = ot.construct_indicator_multiutility(equiv2)
    assert [tuple(map(int, f.values)) for f in fam.members] == [(1, 1), (1, 1)]
    assert ot.is_multiutility(fam, equiv2).ok


def test_lsc_multiutility_examples(vee, chain3):
    fam = ot.construct_lsc_multiutility(vee, ot.upper_topology(vee))
    assert [tuple(map(int, f.values)) for f in fam.members] == [
        (0, 1, 1),
        (1, 0, 1),
        (0, 0, 0),
    ]
    fam = ot.construct_lsc_multiutility(chain3, ot.upper_topology(chain3))
    assert [tuple(map(int, f.values)) for f in fam.members] == [
        (0, 1, 1),
        (0, 0, 1),
        (0, 0, 0),
    ]
    with pytest.raises(NotLscPreorderError) as exc:
        ot.construct_lsc_multiutility(chain3, ot.indiscrete(3))
    assert exc.value.element == "a"


def test_lsc_multiutility_members_are_isotonic_and_lsc():
    rng = random.Random(53)
    for _ in range(50):
        p = random_preorder(rng, default_labels(rng.randint(1, 6)))
        t = ot.random_topology_between(
            ot.upper_topology(p), rng.randrange(1 << 30), rng.randint(0, 2)
        )
        fam = ot.construct_lsc_multiutility(p, t)
        assert ot.is_multiutility(fam, p).ok
        assert len(fam.members) <= p.n
        for f in fam.members:
            assert ot.monotonicity(f, p).isotonic
            assert ot.semicontinuity(f, t, Sense.LOWER).ok


def test_rp_utility_examples(vee, chain3, equiv2):
    assert [int(v) for v in ot.construct_rp_utility(vee).values] == [1, 1, 2]
    assert [int(v) for v in ot.construct_rp_utility(chain3).values] == [0, 1, 2]
    assert [int(v) for v in ot.construct_rp_utility(equiv2).values] == [0, 0]


def test_rp_utility_is_sum_of_lsc_family():
    rng = random.Random(59)
    for _ in range(50):
        p = random_preorder(rng, default_labels(rng.randint(1, 6)))
        fam = ot.construct_lsc_multiutility(p, ot.upper_topology(p))
        f = ot.construct_rp_utility(p)
        for i in range(p.n):
            assert f.values[i] == sum(m.values[i] for m in fam.members)
        m = ot.monotonicity(f, p)
        assert m.isotonic and m.order_preserving


def test_finite_lsc_rp_examples(vee, chain3, single):
    result = ot.construct_finite_lsc_rp_multiutility(vee, ot.upper_topology(vee))
    assert result.has_family
    assert [tuple(map(int, f.values)) for f in result.family.members] == [
        (1, 4, 5),
        (4, 1, 5),
        (1, 1, 2),
    ]

    result = ot.construct_finite_lsc_rp_multiutility(chain3, ot.indiscrete(3))
    assert not result.has_family
    assert result.obstruction == "a"
    assert result.obstruction_contour == ot.mask_of(chain3, "a")
    assert not ot.is_closed(ot.indiscrete(3), result.obstruction_contour)

    result = ot.construct_finite_lsc_rp_multiutility(single, ot.indiscrete(1))
    assert result.has_family
    assert [int(v) for v in result.family.members[0].values] == [0]


def test_constructed_families_satisfy_biconditional_everywhere():
    rng = random.Random(61)
    for _ in range(60):
        p = random_preorder(rng, default_labels(rng.randint(1, 6)))
        for fam in (
            ot.construct_indicator_multiutility(p),
            ot.construct_lsc_multiutility(p, ot.upper_topology(p)),
        ):
            for i in range(p.n):
                for j in range(p.n):
                    family_le = all(f.values[i] <= f.values[j] for f in fam.members)
                    assert family_le == p.leq_idx(i, j)


# --- integer keys against a Fraction oracle -------------------------------------
#
# The checkers compare integer keys (numerators over one function's common
# denominator).  The oracles below compare the Fraction values directly, pair
# by pair, in the order that fixes which witness is reported.


def oracle_monotonicity(f, p):
    n = p.n
    for i in range(n):
        for j in range(n):
            if p.leq_idx(i, j) and f.values[i] > f.values[j]:
                return MonotonicityVerdict(False, False, (p.elements[i], p.elements[j]))
    for i in range(n):
        for j in range(n):
            if p.leq_idx(i, j) and not p.leq_idx(j, i) and f.values[i] >= f.values[j]:
                return MonotonicityVerdict(True, False, (p.elements[i], p.elements[j]))
    return MonotonicityVerdict(True, True)


def oracle_multiutility(family, p):
    n = p.n
    for i in range(n):
        for j in range(n):
            bad = [k for k, f in enumerate(family.members) if f.values[i] > f.values[j]]
            if p.leq_idx(i, j) and bad:
                return RepVerdict(False, RepWitness(p.elements[i], p.elements[j], bad[0],
                                                    WitnessKind.ORDER_VIOLATED))
            if not p.leq_idx(i, j) and not bad:
                return RepVerdict(False, RepWitness(p.elements[i], p.elements[j], None,
                                                    WitnessKind.NOT_SEPARATED))
    return RepVerdict(True)


def oracle_richter_peleg(family, p):
    base = oracle_multiutility(family, p)
    if not base.ok:
        return base
    n = p.n

    def strict(i, j):
        return p.leq_idx(i, j) and not p.leq_idx(j, i)

    for k, f in enumerate(family.members):
        for i in range(n):
            for j in range(n):
                if strict(i, j) and f.values[i] >= f.values[j]:
                    return RepVerdict(False, RepWitness(p.elements[i], p.elements[j], k,
                                                        WitnessKind.STRICTNESS_VIOLATED))
    for i in range(n):
        for j in range(n):
            all_lt = all(f.values[i] < f.values[j] for f in family.members)
            if strict(i, j) != all_lt:
                return RepVerdict(False, RepWitness(p.elements[i], p.elements[j], None,
                                                    WitnessKind.STRICTNESS_VIOLATED))
    return RepVerdict(True)


def oracle_semicontinuity(f, t, sense):
    n = len(f.values)
    senses = (Sense.LOWER, Sense.UPPER) if sense is Sense.BOTH else (sense,)
    for s in senses:
        for x in range(n):
            level = 0
            for y in range(n):
                if (f.values[y] <= f.values[x]) if s is Sense.LOWER else (f.values[y] >= f.values[x]):
                    level |= 1 << y
            if not ot.is_closed(t, level):
                return ScVerdict(False, f.elements[x], level)
    return ScVerdict(True)


# Signed, non-integer rationals with small denominators, so ties and
# near-ties between values of different denominators are common.
RATIONALS = st.one_of(
    st.sampled_from([Fraction(-7, 3), Fraction(1, 6), Fraction(-1, 2), Fraction(2, 4)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def key_instances(draw):
    """A preorder, a topology on it, and a family of 1-3 rational functions.

    A family is either drawn freely or is a positive affine image of the
    lsc Richter-Peleg construction (with a chance of one value perturbed),
    so the deeper strictness branches are reached as well as the early exits.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    labels = default_labels(n)
    p = random_preorder(random.Random(draw(st.integers(0, 10_000))), labels)
    base = draw(st.sampled_from(("indiscrete", "upper", "discrete")))
    lower = {"indiscrete": ot.indiscrete(n), "upper": ot.upper_topology(p),
             "discrete": ot.discrete(n)}[base]
    t = ot.random_topology_between(lower, draw(st.integers(0, 10_000)),
                                   draw(st.integers(0, 2)))
    members = []
    built = ot.construct_finite_lsc_rp_multiutility(p, ot.discrete(n)).family
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            pool = draw(st.lists(RATIONALS, min_size=1, max_size=4))
            values = [draw(st.sampled_from(pool)) for _ in range(n)]
        else:
            scale = draw(RATIONALS.filter(lambda v: v > 0))
            shift = draw(RATIONALS)
            values = [v * scale + shift for v in built.members[k % n].values]
            if draw(st.booleans()):
                values[draw(st.integers(0, n - 1))] = draw(RATIONALS)
        members.append(ValueFunction(labels, tuple(values)))
    return p, t, FunctionFamily(tuple(members))


# -7/3 < -1/2 < 1/6 order correctly only over their common denominator.
_MIXED_CHAIN = ot.build_preorder(("a", "b", "c"), [("a", "b"), ("b", "c")])
_MIXED_FAMILY = FunctionFamily((
    ValueFunction(_MIXED_CHAIN.elements, (Fraction(-7, 3), Fraction(-1, 2), Fraction(1, 6))),
    ValueFunction(_MIXED_CHAIN.elements, (Fraction(1, 6), Fraction(-1, 2), Fraction(2, 12))),
))


@given(key_instances())
@example((_MIXED_CHAIN, ot.upper_topology(_MIXED_CHAIN), _MIXED_FAMILY))
@settings(max_examples=300, deadline=None)
def test_integer_keys_match_fraction_oracle(instance):
    p, t, family = instance
    assert ot.is_multiutility(family, p) == oracle_multiutility(family, p)
    assert ot.is_richter_peleg_multiutility(family, p) == oracle_richter_peleg(family, p)
    for f in family.members:
        assert ot.monotonicity(f, p) == oracle_monotonicity(f, p)
        for sense in Sense:
            assert ot.semicontinuity(f, t, sense) == oracle_semicontinuity(f, t, sense)
