"""Record the per-theorem counts that suite-exhaustive and mine-random must reproduce.

Run from the repository root:

    python3 perfbench/record_expected.py

For each workload and size it runs the CLI once per program seed and
writes ``perfbench/expected_counts.json``: for every seed, the instances
checked and non-vacuous instances of each theorem.  These are exact
decisions, so every later commit must reproduce them; record again only
when a change to the theorem suite is meant to change them.

suite-exhaustive does the same work for every program seed (the seed only
draws the random topologies), so it uses seeds 0..31.  mine-random does
not: a few instances with thousands of linear extensions dominate a pass,
and the time of a pass varies by a factor of four across program seeds.
MINE_SEEDS are the program seeds among 0..287 whose work lies within 4% of
the median.  Work was counted, not timed, in a traced run: the calls into
ordtop's public functions and the linear extensions enumerated, each
divided by its median over the 288 seeds, then averaged.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SUITE_SEEDS = tuple(range(32))
MINE_SEEDS = (14, 26, 30, 80, 92, 96, 114, 129, 131, 139, 202, 234, 240, 243, 262)


def counts_of(reports: list[dict]) -> dict[str, list[int]]:
    return {r["theorem"]: [r["instances_checked"], r["non_vacuous"]] for r in reports}


def record(workload: str, size_name: str, runner: run.Runner) -> dict:
    seeds = SUITE_SEEDS if workload == "suite-exhaustive" else MINE_SEEDS
    counts: dict[str, dict] = {}
    for seed in seeds:
        op = run.Op(run.report_args(workload, seed, run.SIZES[size_name]), 0,
                    lambda env: None if env["ok"] else "envelope not ok")
        outcome = runner.run_op(op)
        if outcome.problem:
            raise SystemExit(f"{workload} seed {seed} failed: {outcome.problem}")
        counts[str(seed)] = counts_of(outcome.reports)
    print(f"{workload}/{size_name}: {len(seeds)} seeds recorded", flush=True)
    return {"seeds": list(seeds), "counts": counts}


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(deadline=time.perf_counter() + 24 * 3600)
    table = {}
    for size_name in ("tiny", "full"):
        for workload in ("suite-exhaustive", "mine-random"):
            table[f"{workload}/{size_name}"] = record(workload, size_name, runner)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {run.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
