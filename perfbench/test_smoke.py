"""Smoke test of the benchmark's own code, at a toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, checks that each metric
named in BENCHMARK.json is printed, that the traced child rebinds imported
names and splits import time by layer, and that a wrong expected exit code
is counted as a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from traced_child import LAYERS, START_ONLY, import_times

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_benchmark_json_matches_run_py() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units())


def _traced(profile: Path, *args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(REPO / "perfbench" / "traced_child.py"),
         str(profile), *args],
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(profile.read_text(encoding="utf-8")), import_times(proc.stderr)


def test_tracer_rebinds_imported_names(tmp_path) -> None:
    report, imports = _traced(tmp_path / "profile.json", "theorems", "--max-size", "3", "--json")
    calls = {name: v[0] for name, v in report["functions"].items()}
    # Called only through names that theorems and representations imported.
    assert calls["preorders.enumerate_linear_extensions"] > 0
    assert calls["representations.preorder_semicontinuity"] > 0
    assert calls["topologies.is_closed"] > 0
    assert calls["cli.main"] == 1 and calls["theorems.run_theorem_suite"] == 1
    # Every layer is imported, and the layers make up the package's import.
    assert all(imports[layer] > 0 for layer in LAYERS)
    assert 0.9 * imports["ordtop"] < sum(imports[layer] for layer in LAYERS) <= imports["ordtop"]


def test_start_only_child_runs_no_command(tmp_path) -> None:
    report, imports = _traced(tmp_path / "profile.json", START_ONLY)
    assert report["rebound"] > 0
    assert all(v[0] == 0 for v in report["functions"].values())
    assert imports["ordtop"] > 0


def test_wrong_exit_code_counts_as_failure(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "WORK", tmp_path)
    ops = run.build_ops("cli-wide", 5, "tiny", tmp_path)
    runner = run.Runner(deadline=time.perf_counter() + 120)
    assert runner.run_pass(ops).failed == 0
    ops[0].expect_exit = 1 - ops[0].expect_exit
    result = runner.run_pass(ops)
    assert result.failed == 1
    assert "exit code" in result.outcomes[0].problem


def test_missing_program_exits_without_result(tmp_path) -> None:
    (tmp_path / "perfbench").mkdir()
    for f in (REPO / "perfbench").iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
