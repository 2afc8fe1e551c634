"""The per-theorem counts that the benchmark checks, reproduced in process.

``perfbench/expected_counts.json`` records ``[instances_checked,
non_vacuous]`` of each theorem for every program seed the benchmark runs.
These are exact decisions, so a change to them is a change to the theorem
suite: this test reads the file (it never writes it) and fails first.
The sizes are those of ``SIZES`` in ``perfbench/run.py``.
"""

import json
from pathlib import Path

import pytest

from ordtop import theorems

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected_counts.json").read_text(
        encoding="utf-8"
    )
)


def counts(suite: theorems.SuiteReport) -> dict[str, list[int]]:
    return {r.theorem_id: [r.instances_checked, r.non_vacuous] for r in suite.reports}


def recorded(table: str, seed: int) -> dict[str, list[int]]:
    return EXPECTED[table]["counts"][str(seed)]


@pytest.mark.parametrize("seed", range(4))
def test_full_suite_counts(seed):
    suite = theorems.run_theorem_suite(max_size=4, seed=seed)
    assert counts(suite) == recorded("suite-exhaustive/full", seed)


def test_full_mine_counts():
    assert counts(theorems.mine(114, 200, 8)) == recorded("mine-random/full", 114)


def test_tiny_counts():
    suite_seeds = EXPECTED["suite-exhaustive/tiny"]["seeds"]
    mine_seeds = EXPECTED["mine-random/tiny"]["seeds"]
    assert suite_seeds and mine_seeds
    for seed in suite_seeds:
        suite = theorems.run_theorem_suite(max_size=2, seed=seed)
        assert counts(suite) == recorded("suite-exhaustive/tiny", seed), seed
    for seed in mine_seeds:
        suite = theorems.mine(seed, trials=4, max_size=4)
        assert counts(suite) == recorded("mine-random/tiny", seed), seed
