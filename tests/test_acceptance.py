"""Acceptance criteria, one test per criterion.

Every test prints a single ``ACCEPTANCE n: PASS`` line (visible under
``pytest -s``) and enforces the stated tolerances and runtime budgets.
Seeds are frozen so each criterion is reproducible bit-for-bit.
"""

import json
import random
import subprocess
import sys
import time

import pytest

import ordtop as ot
from ordtop.cli import main as cli_main
from ordtop.instances import (
    document_family,
    document_preorder,
    parse_instance,
    serialize_instance,
)
from ordtop.preorders import enumerate_linear_extensions, szpilrajn_extension
from ordtop.representations import Sense
from ordtop.theorems import (
    _chain_outsider_pairs,
    all_preorders,
    check_alexandrov_antitone,
    check_chain_restriction,
    check_linear_extensions_lsc,
    check_lsc_iff_upper,
    default_labels,
    random_preorder,
    random_refinement,
)
from tests.conftest import FIXTURES

MASTER_SEED = 20260809


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def pairs_1000():
    """1000 seeded (preorder, topology) pairs on 2..6 elements, mixed regimes."""
    rng = random.Random(MASTER_SEED + 2)
    pairs = []
    for i in range(1000):
        n = rng.randint(2, 6)
        p = random_preorder(rng, default_labels(n))
        r = i % 10
        if r < 4:
            t = ot.random_topology_between(
                ot.indiscrete(n), rng.randrange(1 << 30), rng.randint(0, 2)
            )
        elif r < 6:
            t = ot.upper_topology(p)
        elif r < 8:
            t = ot.random_topology_between(
                ot.upper_topology(p), rng.randrange(1 << 30), rng.randint(1, 3)
            )
        else:
            q = random_preorder(rng, default_labels(n))
            t = ot.alexandrov_topology(q)
        pairs.append((p, t))
    return pairs


def test_criterion_1_topology_coincidence_and_inclusion():
    started = time.perf_counter()

    # independent counter: every reflexive matrix filtered for transitivity
    def matrix_counter(n: int) -> int:
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        count = 0
        for bits in range(1 << len(slots)):
            rows = [1 << i for i in range(n)]
            for s, (i, j) in enumerate(slots):
                if bits >> s & 1:
                    rows[i] |= 1 << j
            if all(
                not (rows[j] & ~rows[i])
                for i in range(n)
                for j in range(n)
                if rows[i] >> j & 1
            ):
                count += 1
        return count

    def verify(p):
        tu = ot.upper_topology(p)
        ts = ot.scott_topology(p)
        ta = ot.alexandrov_topology(p)
        assert ot.is_finer(ts, tu).ok, f"upper not within scott: {p.rows}"
        assert ot.is_finer(ta, ts).ok, f"scott not within alexandrov: {p.rows}"
        assert tu.opens == ts.opens == ta.opens, f"families differ: {p.rows}"

    exhaustive = 0
    for n in (1, 2, 3, 4):
        count = 0
        for p in all_preorders(default_labels(n)):
            count += 1
            verify(p)
        if n == 4:
            assert count == 355
            assert matrix_counter(4) == 355
        exhaustive += count

    rng = random.Random(MASTER_SEED + 1)
    for i in range(500):
        verify(random_preorder(rng, default_labels(5 + i % 2)))

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 exceeded its 30s budget: {elapsed:.1f}s"
    _pass(1, f"{exhaustive} exhaustive + 500 random preorders in {elapsed:.1f}s; "
             "355 on 4 elements confirmed by the matrix counter")


def test_criterion_2_lsc_iff_upper_refinement(pairs_1000):
    both_false = 0
    for p, t in pairs_1000:
        report = check_lsc_iff_upper(p, t)
        assert report.ok, report.violations
        if not ot.preorder_semicontinuity(p, t, Sense.LOWER).ok:
            both_false += 1
    assert both_false >= 200, f"only {both_false} pairs exercise the false side"
    _pass(2, f"1000 pairs, zero violations, {both_false} with both sides false")


def test_criterion_3_decision_procedure_soundness(pairs_1000):
    families = obstructions = 0
    for p, t in pairs_1000:
        result = ot.construct_finite_lsc_rp_multiutility(p, t)
        lsc = ot.preorder_semicontinuity(p, t, Sense.LOWER).ok
        assert result.has_family == lsc
        if result.has_family:
            families += 1
            family = result.family
            assert len(family.members) <= p.n
            assert ot.is_richter_peleg_multiutility(family, p).ok
            for member in family.members:
                assert ot.semicontinuity(member, t, Sense.LOWER).ok
            assert ot.is_finer(t, ot.scott_topology(p)).ok
        else:
            obstructions += 1
            assert not ot.is_closed(t, result.obstruction_contour)
    _pass(3, f"1000 pairs: {families} families, {obstructions} obstructions, "
             "zero violations")


def test_criterion_4_alexandrov_antitonicity():
    rng = random.Random(MASTER_SEED + 4)
    for _ in range(500):
        p = random_preorder(rng, default_labels(rng.randint(2, 6)))
        fine = random_refinement(rng, p)
        report = check_alexandrov_antitone(p, fine)
        assert report.ok, report.violations
    _pass(4, "500 seeded refinement pairs, zero violations")


def test_criterion_5_linear_extension_corollary():
    rng = random.Random(MASTER_SEED + 5)
    extensions_checked = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        p = random_preorder(rng, default_labels(n))
        t = ot.random_topology_between(
            ot.alexandrov_topology(p), rng.randrange(1 << 30), rng.randint(0, 2)
        )
        report = check_linear_extensions_lsc(p, t, samples=8, seed=rng.randrange(1 << 30))
        assert report.ok, report.violations
        extensions_checked += report.instances_checked

    for trial in range(1000):
        n = rng.randint(2, 6)
        p = random_preorder(rng, default_labels(n))
        incomparable = [
            (a, b)
            for a in p.elements
            for b in p.elements
            if not p.leq(a, b) and not p.leq(b, a)
        ]
        forced = [rng.choice(incomparable)] if incomparable and trial % 2 else []
        ext = szpilrajn_extension(p, forced, seed=trial)
        assert ext.is_total()
        for i in range(p.n):
            assert p.rows[i] & ~ext.rows[i] == 0
            for j in range(p.n):
                if p.leq_idx(i, j) and not p.leq_idx(j, i):
                    assert ext.leq_idx(i, j) and not ext.leq_idx(j, i)
        for a, b in forced:
            assert ext.leq(a, b) and not ext.leq(b, a)
    _pass(5, f"200 refined-topology instances ({extensions_checked} extensions) "
             "and 1000 extension calls, zero violations")


def test_criterion_6_chain_restriction_exhaustive():
    checked = non_vacuous = 0
    spot_rng = random.Random(MASTER_SEED + 6)
    spot_budget = 40
    for n in (2, 3, 4):
        labels = default_labels(n)
        ps = list(all_preorders(labels))

        pool = {}
        for q in ps:
            t = ot.alexandrov_topology(q)
            pool[t.opens] = t
        sample_rng = random.Random(MASTER_SEED + 60 + n)
        step = max(1, len(ps) // 30)
        for q in ps[::step]:
            t = ot.random_topology_between(
                ot.upper_topology(q), sample_rng.randrange(1 << 30), 2
            )
            pool[t.opens] = t
        ts = list(pool.values())
        closeds = [frozenset(t.full_mask & ~o for o in t.opens) for t in ts]

        for p in ps:
            cx = list(_chain_outsider_pairs(p))
            if not cx:
                continue
            needed = set()
            for ext in enumerate_linear_extensions(p, 50_000):
                needed.update(ext.cols)
            alex_on_chain = {}
            for ti, t in enumerate(ts):
                if not needed <= closeds[ti]:
                    checked += len(cx)
                    if spot_budget and spot_rng.random() < 0.0005:
                        spot_budget -= 1
                        chain, x = cx[0]
                        rep = check_chain_restriction(p, t, chain, x)
                        assert rep.ok and not rep.premise_held
                    continue
                trace = {}
                for chain, x in cx:
                    checked += 1
                    non_vacuous += 1
                    if chain not in trace:
                        trace[chain] = ot.subspace(t, chain)
                    if chain not in alex_on_chain:
                        alex_on_chain[chain] = ot.alexandrov_topology(
                            ot.restrict(p, chain)
                        )
                    fin = ot.is_finer(trace[chain], alex_on_chain[chain])
                    assert fin.ok, (
                        f"violation: n={n} p={p.rows} t={t.opens} chain={chain} x={x}"
                    )
                    if spot_budget and spot_rng.random() < 0.001:
                        spot_budget -= 1
                        rep = check_chain_restriction(p, t, chain, x)
                        assert rep.ok and rep.premise_held
    assert non_vacuous >= 50
    _pass(6, f"{checked} instances, {non_vacuous} non-vacuous, zero violations")


def test_criterion_7_representation_fixtures():
    vee = ot.build_preorder(("a", "b", "c"), [("a", "c"), ("b", "c")])

    indicator = ot.construct_indicator_multiutility(vee)
    assert [tuple(map(int, f.values)) for f in indicator.members] == [
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 1),
    ]

    f = ot.construct_rp_utility(vee)
    assert [int(v) for v in f.values] == [1, 1, 2]

    result = ot.construct_finite_lsc_rp_multiutility(vee, ot.upper_topology(vee))
    got = [tuple(map(int, g.values)) for g in result.family.members]
    assert got == [(1, 4, 5), (4, 1, 5), (1, 1, 2)]
    # scale is max(f) + 1 = 3
    assert all(
        (gv - fv) in (0, 3)
        for g in result.family.members
        for gv, fv in zip(g.values, f.values)
    )

    # shipped fixture carries the same family
    doc = parse_instance((FIXTURES / "vee.json").read_text())
    assert document_family(doc).members == result.family.members

    doc = parse_instance((FIXTURES / "two_rays.json").read_text())
    p = document_preorder(doc)
    family = document_family(doc)
    assert ot.is_multiutility(family, p).ok
    tu = ot.upper_topology(p)
    for member in family.members:
        assert ot.semicontinuity(member, tu, Sense.LOWER).ok
    _pass(7, "vee worked values reproduce exactly; two-rays functions form an "
             "lsc multi-utility")


def test_criterion_8_cli_round_trip_and_budget(tmp_path, capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_instance(path.read_text(encoding="utf-8"))
        assert parse_instance(serialize_instance(doc)) == doc
        assert cli_main(["validate", str(path)]) == 0
    capsys.readouterr()

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ordtop.cli", "theorems", "--max-size", "4", "--json"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"theorems CLI exceeded its 60s budget: {elapsed:.1f}s"
    payload = json.loads(proc.stdout)
    assert payload["ok"]
    assert {r["theorem"] for r in payload["result"]["reports"]} == {
        "topology-coincidence",
        "lsc-iff-upper",
        "scott-necessity",
        "alexandrov-antitone",
        "linear-extensions-lsc",
        "chain-restriction",
    }
    assert all(r["violations"] == 0 for r in payload["result"]["reports"])

    # failure paths emit witnesses that validate re-confirms
    code = cli_main(
        ["check-lsc", str(FIXTURES / "chain3.json"), "--topology", "indiscrete", "--json"]
    )
    out = capsys.readouterr().out
    assert code == 1
    witness = json.loads(out)["witness"]
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness["instance"]))
    assert cli_main(["validate", str(witness_file)]) == 0
    capsys.readouterr()
    code = cli_main(["check-lsc", str(witness_file), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["witness"]["detail"] == witness["detail"]
    _pass(8, f"fixture round-trips pass; theorems CLI exited 0 in {elapsed:.1f}s; "
             "witnesses replay through validate")
