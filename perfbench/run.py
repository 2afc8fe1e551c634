"""End-to-end benchmark of the ordtop command line, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli-wide --seed 3 --seconds 50 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each was chosen):

* ``suite-exhaustive``: ``ordtop theorems --max-size 4 --json``.
* ``mine-random``: ``ordtop mine --trials 200 --max-size 8 --json``.
* ``cli-wide``: 24 single-instance commands (``topology``, ``decide-rp``,
  ``check-lsc``) on seeded wide forests of 10-12 elements.

Load is a closed loop with one client: one ``ordtop`` child at a time,
each in a fresh interpreter, each waited for before the next starts.
Every output is checked; a wrong answer, a wrong exit code or a timeout
is a failed operation.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer split,
taken from children run through ``traced_child.py`` and alternated with
untraced passes so that the tracing overhead is measured too.

The program is run from ``src/`` of the current directory.  Without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from traced_child import LAYERS, START_ONLY, import_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# One scratch directory per benchmark process, so that runs side by side
# (the smoke test next to a measurement) do not clobber each other's files.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
EXPECTED_PATH = HERE / "expected_counts.json"

PROBE = (
    "import importlib.util, json, ordtop.cli, ordtop.kernels as k; "
    "print(json.dumps({'file': ordtop.cli.__file__, 'native': k.using_native(), "
    "'native_importable': importlib.util.find_spec('ordtop.kernels._native') is not None}))"
)

# mine-random is not listed in BENCHMARK.json (see METRICS.md) but runs by hand
# as the control on which a premise memo should change nothing.
WORKLOADS = ("suite-exhaustive", "mine-random", "cli-wide")

THEOREM_IDS = (
    "topology-coincidence",
    "lsc-iff-upper",
    "scott-necessity",
    "alexandrov-antitone",
    "linear-extensions-lsc",
    "chain-restriction",
)

SETUP_REPEATS = 11
# Start-only traced children per traced pass; their median is the start cost.
START_SAMPLES = 3
HARD_LIMIT_S = 165.0

SIZES = {
    "full": {
        "suite_max_size": 4,
        "mine_trials": 200,
        "mine_max_size": 8,
        # (elements, up-sets) of each forest: the up-set count (the number of
        # opens of its upper topology) fixes the work of a pass, the seed
        # varies the shapes.
        "forests": ((10, 480), (10, 576), (11, 864), (11, 960), (12, 1536), (12, 2304)),
    },
    "tiny": {
        "suite_max_size": 2,
        "mine_trials": 4,
        "mine_max_size": 4,
        "forests": ((5, 24),),
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = tuple(LAYERS)

# Traced functions and the counters reported for each.
TRACED_FUNCTIONS = {
    "preorders.enumerate_linear_extensions": ("calls", "self_s", "extensions_out"),
    "preorders.contour": ("calls", "self_s"),
    "preorders.labels_of": ("calls", "self_s"),
    "preorders.quotient": ("calls", "self_s"),
    "representations.preorder_semicontinuity": ("calls", "self_s"),
    "representations.is_richter_peleg_multiutility": ("calls", "self_s"),
    "representations.semicontinuity": ("calls", "self_s"),
    "topologies.is_closed": ("calls", "self_s"),
    "topologies.verify_axioms": ("calls", "self_s"),
    "topologies.upper_topology": ("calls", "total_s"),
    "kernels.close_family": ("calls", "self_s", "opens_out"),
    "instances.parse_instance": ("calls", "self_s"),
}

COUNTER_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
                 "extensions_out": "count", "opens_out": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {f"{m}.self_s": "s" for m in MODULES}
    for fn, counters in TRACED_FUNCTIONS.items():
        for c in counters:
            units[f"{fn}.{c}"] = COUNTER_UNITS[c]
    units.update({"cli.process_start_s": "s", "cli.stdout_bytes": "B"})
    units.update({f"{m}.import_s": "s" for m in (*MODULES, "ordtop")})
    for tid in THEOREM_IDS:
        units.update({f"theorems.{tid}.s": "s", f"theorems.{tid}.checked": "count",
                      f"theorems.{tid}.non_vacuous": "count",
                      f"theorems.{tid}.useful_ratio": "ratio"})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.unaccounted_s": "s"})
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no program under ./src, or ordtop imported from elsewhere)."""


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Op:
    """One ``ordtop`` command, the exit code it must give, and its output check."""

    args: list[str]
    expect_exit: int
    check: Callable[[dict], str | None]


@dataclass
class Outcome:
    wall: float
    exit_code: int | None
    stdout_bytes: int
    problem: str | None
    reports: list | None = None  # the theorem reports of a suite/mine envelope
    peak_kb: int | None = None  # untraced commands only
    profile: dict | None = None  # traced commands only


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(o.problem is not None for o in self.outcomes)


def check_reports(expected: dict) -> Callable[[dict], str | None]:
    """Suite/mine envelope: ok, zero violations, counts equal to the recorded ones."""

    def check(env: dict) -> str | None:
        if env.get("ok") is not True or env["result"].get("ok") is not True:
            return "envelope not ok"
        reports = env["result"]["reports"]
        if tuple(r["theorem"] for r in reports) != THEOREM_IDS:
            return "unexpected theorem list"
        for r in reports:
            if r["violations"] != 0:
                return f"{r['theorem']}: {r['violations']} violations"
            want = expected[r["theorem"]]
            got = [r["instances_checked"], r["non_vacuous"]]
            if got != want:
                return f"{r['theorem']}: counts {got} differ from recorded {want}"
        return None

    return check


def check_opens(up_sets: set[frozenset[str]]) -> Callable[[dict], str | None]:
    def check(env: dict) -> str | None:
        if env.get("ok") is not True:
            return "envelope not ok"
        res = env["result"]
        if res["open_count"] != len(up_sets) or len(res["opens"]) != len(up_sets):
            return f"open_count {res['open_count']} != {len(up_sets)} up-sets"
        if {frozenset(o) for o in res["opens"]} != up_sets:
            return "opens differ from the up-sets"
        return None

    return check


def check_field(key: str, want: bool) -> Callable[[dict], str | None]:
    def check(env: dict) -> str | None:
        if env.get("ok") is not want or env["result"].get(key) is not want:
            return f"{key} is not {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# inputs


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def forest_rows(parent: list[int | None]) -> list[int]:
    """rows[i] = mask of {j : i <= j}, with every node below its descendants."""
    n = len(parent)
    rows = [1 << i for i in range(n)]
    for j in range(n):
        a = parent[j]
        while a is not None:
            rows[a] |= 1 << j
            a = parent[a]
    return rows


def brute_up_sets(rows: list[int]) -> list[int]:
    """Every mask closed upwards, by testing all 2^n subsets."""
    n = len(rows)
    return [m for m in range(1 << n) if all(rows[i] & ~m == 0 for i in _bits(m))]


def order_topology_lsc(rows: list[int]) -> bool:
    """Is every weak lower contour closed in the order topology?

    The order topology is generated by the strict lower and strict upper
    contours.  Its minimal neighbourhood U_x is the intersection of the
    generators containing x, and a set is open when it contains U_x for
    each of its points.
    """
    n = len(rows)
    full = (1 << n) - 1
    cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    gens = [cols[a] & ~rows[a] for a in range(n)] + [rows[a] & ~cols[a] for a in range(n)]
    nbhd = [full] * n
    for g in gens:
        for x in _bits(g):
            nbhd[x] &= g
    for a in range(n):
        complement = full & ~cols[a]
        if any(nbhd[x] & ~complement for x in _bits(complement)):
            return False
    return True


def up_set_count(parent: list[int | None]) -> int:
    """Up-sets of a forest: a node is either out (any up-sets of its subtrees) or in with all below it."""
    count = [1] * len(parent)
    for v in reversed(range(len(parent))):  # children have larger indices
        count[v] += 1
        if parent[v] is not None:
            count[parent[v]] *= count[v]
    roots = [v for v in range(len(parent)) if parent[v] is None]
    return math.prod(count[v] for v in roots)


def wide_forest(rng: random.Random, n: int, up_sets: int) -> list[int | None]:
    """A seeded forest of shallow trees on n nodes with exactly ``up_sets`` up-sets."""
    while True:
        attach = rng.uniform(0.2, 0.7)
        parent: list[int | None] = [None] * n
        for j in range(1, n):
            if rng.random() < attach:
                parent[j] = rng.randrange(j)
        if up_set_count(parent) == up_sets:
            return parent


def cli_wide_ops(seed: int, size: dict, work: Path) -> list[Op]:
    """Write the forest instance files and return one pass of 24 commands."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for k, (n, count) in enumerate(size["forests"]):
        parent = wide_forest(rng, n, count)
        rows = forest_rows(parent)
        labels = [f"v{i:02d}" for i in range(n)]
        relation = [[labels[parent[j]], labels[j]] for j in range(n) if parent[j] is not None]
        up_sets = [[labels[i] for i in _bits(m)] for m in brute_up_sets(rows)]
        doc = {"elements": labels, "relation": relation, "autoclose": True}
        plain = work / f"forest{k}.json"
        plain.write_text(json.dumps(doc), encoding="utf-8")
        explicit = work / f"forest{k}_upper.json"
        doc["topology"] = {"mode": "explicit", "opens": up_sets}
        explicit.write_text(json.dumps(doc), encoding="utf-8")
        lsc = order_topology_lsc(rows)
        ops += [
            Op(["topology", str(plain), "--topology", "upper", "--json"], 0,
               check_opens({frozenset(u) for u in up_sets})),
            Op(["decide-rp", str(plain), "--topology", "scott", "--json"], 0,
               check_field("representable", True)),
            Op(["check-lsc", str(plain), "--topology", "order", "--json"], 0 if lsc else 1,
               check_field("semicontinuous", lsc)),
            Op(["decide-rp", str(explicit), "--json"], 0, check_field("representable", True)),
        ]
    return ops


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def report_args(workload: str, program_seed: int, size: dict) -> list[str]:
    """CLI arguments of the one command a suite-exhaustive or mine-random pass runs."""
    if workload == "suite-exhaustive":
        return ["theorems", "--max-size", str(size["suite_max_size"]),
                "--seed", str(program_seed), "--json"]
    return ["mine", "--seed", str(program_seed), "--trials", str(size["mine_trials"]),
            "--max-size", str(size["mine_max_size"]), "--json"]


# cli-wide runs 24 commands a pass.  Its cmd_tail_s is their p90, and
# measure() runs at least MIN_TAIL_COMMANDS of them, so that ten or more
# samples lie beyond it.  The other workloads run one command a pass, a
# few dozen at most in a run: too few for steady percentiles under the CPU
# drift of small machines, so both latencies are the mean command there.
TAIL_PERCENTILE = 90
MIN_TAIL_COMMANDS = 100


def build_ops(workload: str, seed: int, size_name: str, work: Path) -> list[Op]:
    """Inputs for one pass.  Report workloads map the seed onto a recorded program seed."""
    size = SIZES[size_name]
    if workload == "cli-wide":
        return cli_wide_ops(seed, size, work)
    table = load_expected().get(f"{workload}/{size_name}")
    if table is None:
        raise BenchError(f"no recorded counts for {workload}/{size_name} in {EXPECTED_PATH.name}")
    program_seed = table["seeds"][seed % len(table["seeds"])]
    expected = table["counts"][str(program_seed)]
    return [Op(report_args(workload, program_seed, size), 0, check_reports(expected))]


# ---------------------------------------------------------------------------
# running children


class Runner:
    """Starts one child at a time in ``ROOT`` with the checkout's ``src`` on the path."""

    def __init__(self, deadline: float, pure: bool = False) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        if pure:
            self.env["ORDTOP_PURE_KERNELS"] = "1"
        self.out_path = WORK / "stdout"
        self.err_path = WORK / "stderr"

    def spawn(self, argv: list[str]) -> tuple[float, int | None]:
        """Run argv to completion; return (wall seconds, exit code or None on timeout)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return 0.0, None
        timed_out = threading.Event()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def expire() -> None:
                timed_out.set()
                proc.kill()

            # Popen.wait(timeout=...) polls with sleeps of up to 50 ms, which
            # rounds every time up; wait blocking and kill from a timer instead.
            watchdog = threading.Timer(remaining, expire)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        return wall, None if timed_out.is_set() else code

    def child_argv(self, args: list[str], traced: bool) -> list[str]:
        report = str(WORK / "child_report")
        if traced:
            return [sys.executable, "-X", "importtime", str(HERE / "traced_child.py"), report, *args]
        return [sys.executable, str(HERE / "cli_child.py"), report, *args]

    def start_only(self) -> float:
        """Wall time of a traced child that imports and wraps ordtop, then exits."""
        wall, code = self.spawn(self.child_argv([START_ONLY], traced=True))
        if code != 0:
            raise BenchError(f"the start-only traced child exited with {code}")
        return wall

    def run_op(self, op: Op, traced: bool = False) -> Outcome:
        """Run one command; the child writes its profile or its peak RSS to ``report``."""
        report = WORK / "child_report"
        report.unlink(missing_ok=True)
        wall, code = self.spawn(self.child_argv(op.args, traced))
        out = self.out_path.read_bytes()
        if code is None:
            return Outcome(wall, None, len(out), "timed out")
        outcome = Outcome(wall, code, len(out), None)
        if code != op.expect_exit:
            outcome.problem = f"exit code {code}, expected {op.expect_exit}"
        else:
            try:
                envelope = json.loads(out)
                outcome.problem = op.check(envelope)
                outcome.reports = envelope["result"].get("reports")
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                outcome.problem = f"stdout is not a well-formed JSON envelope ({exc!r})"
        if not report.exists():
            outcome.problem = outcome.problem or "the child wrote no report"
        elif traced:
            outcome.profile = json.loads(report.read_text(encoding="utf-8"))
            outcome.profile["import_s"] = import_times(
                self.err_path.read_text(encoding="utf-8", errors="replace"))
        else:
            outcome.peak_kb = int(report.read_text(encoding="ascii"))
        return outcome

    def run_pass(self, ops: list[Op], traced: bool = False) -> Pass:
        t0 = time.perf_counter()
        outcomes = [self.run_op(op, traced) for op in ops]
        return Pass(time.perf_counter() - t0, outcomes)

    def probe(self) -> tuple[float, dict]:
        """One fresh interpreter importing ordtop.cli; returns (seconds, probe info)."""
        wall, code = self.spawn([sys.executable, "-c", PROBE])
        if code != 0:
            detail = self.err_path.read_text(encoding="utf-8", errors="replace").strip()
            raise BenchError(f"cannot import ordtop.cli from {ROOT / 'src'}: {detail[-400:]}")
        info = json.loads(self.out_path.read_text(encoding="utf-8"))
        if not Path(info["file"]).resolve().is_relative_to((ROOT / "src").resolve()):
            raise BenchError(f"ordtop.cli was imported from {info['file']}, not from ./src")
        return wall, info


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def set_up(workload: str, seed: int, size_name: str, runner: Runner, dest: Path
           ) -> tuple[float, list[Op], dict]:
    """Generate the inputs into ``dest`` and start one interpreter importing ordtop.cli.

    Returns the seconds both took, the ops and the probe information.
    """
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    t0 = time.perf_counter()
    ops = build_ops(workload, seed, size_name, dest)
    generated = time.perf_counter() - t0
    wall, info = runner.probe()
    return generated + wall, ops, info


def measure(runner: Runner, ops: list[Op], seconds: float,
            set_up_again: Callable[[], float], setups: list[float]) -> list[Pass]:
    """Passes until ``seconds`` have gone by, with a set-up after each.

    Set-ups go to ``setups`` until it holds SETUP_REPEATS.  They are spread
    over the run rather than done in a row before it, so that their median
    sees the same drifting CPU speed as the passes.
    """
    passes: list[Pass] = []
    t0 = time.perf_counter()
    need = MIN_TAIL_COMMANDS if len(ops) > 1 else 1
    while time.perf_counter() - t0 < seconds or sum(len(p.outcomes) for p in passes) < need:
        p = runner.run_pass(ops)
        passes.append(p)
        if any(o.exit_code is None for o in p.outcomes):
            return passes
        setups.append(set_up_again())
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_again())
    return passes


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, float]:
    cmds = [o.wall for p in passes for o in p.outcomes]
    one_command = len(passes[0].outcomes) == 1
    return {
        "setup_s": statistics.median(setups),
        # The mean: CPU speed here drifts by +-25% over seconds, and the
        # median of a run's passes jumps with it more than the mean does.
        "wall_s": statistics.mean(p.wall for p in passes),
        "cmd_p50_s": statistics.mean(cmds) if one_command else percentile(cmds, 50),
        "cmd_tail_s": statistics.mean(cmds) if one_command else percentile(cmds, TAIL_PERCENTILE),
        "peak_rss_mb": max(o.peak_kb or 0 for p in passes for o in p.outcomes) / 1024,
    }


def _pass_layers(p: Pass, start_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its commands.

    ``start_s`` is the wall time of a start-only traced child, measured on
    its own; each command of the pass is charged one.
    """
    out: dict[str, float] = {name: 0.0 for name in per_layer_units()}
    for o in p.outcomes:
        prof = o.profile
        if prof is None:
            continue
        for qual, (calls, total, self_s, items) in prof["functions"].items():
            module = qual.split(".", 1)[0]
            out[f"{module}.self_s"] += self_s
            counters = TRACED_FUNCTIONS.get(qual, ())
            values = {"calls": calls, "self_s": self_s, "total_s": total,
                      "extensions_out": items, "opens_out": items}
            for c in counters:
                out[f"{qual}.{c}"] += values[c]
        for layer, seconds in prof["import_s"].items():
            out[f"{layer}.import_s"] += seconds
    out["cli.process_start_s"] = start_s * len(p.outcomes)
    out["trace.wall_s"] = p.wall
    # What layer self times and process start leave of the pass: the exit of
    # a command that built large results, and the benchmark's own work
    # between commands.
    out["trace.unaccounted_s"] = p.wall - out["cli.process_start_s"] - sum(
        out[f"{m}.self_s"] for m in MODULES)
    return out


def _theorem_layers(p: Pass) -> dict[str, float]:
    out: dict[str, float] = {}
    for tid in THEOREM_IDS:
        out.update({f"theorems.{tid}.s": 0.0, f"theorems.{tid}.checked": 0,
                    f"theorems.{tid}.non_vacuous": 0, f"theorems.{tid}.useful_ratio": 0.0})
    for o in p.outcomes:
        for r in o.reports or ():
            tid = r["theorem"]
            out[f"theorems.{tid}.s"] += r["elapsed_seconds"]
            out[f"theorems.{tid}.checked"] += r["instances_checked"]
            out[f"theorems.{tid}.non_vacuous"] += r["non_vacuous"]
    for tid in THEOREM_IDS:
        checked = out[f"theorems.{tid}.checked"]
        out[f"theorems.{tid}.useful_ratio"] = out[f"theorems.{tid}.non_vacuous"] / checked if checked else 0.0
    return out


def per_layer(traced: list[Pass], untraced: list[Pass], starts: list[float]) -> dict[str, float]:
    """Medians over passes; theorem timings come from the untraced envelopes."""
    start_s = statistics.median(starts)
    rows = [_pass_layers(p, start_s) for p in traced]
    layers = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    theorem_rows = [_theorem_layers(p) for p in untraced]
    for name in theorem_rows[0]:
        layers[name] = statistics.median(r[name] for r in theorem_rows)
    layers["cli.stdout_bytes"] = sum(o.stdout_bytes for o in untraced[0].outcomes)
    layers["trace.untraced_wall_s"] = statistics.median(p.wall for p in untraced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    return layers


def measure_traced(runner: Runner, ops: list[Op], seconds: float
                   ) -> tuple[list[Pass], list[Pass], list[float]]:
    """Alternate untraced passes, traced passes and start-only children until ``seconds`` have gone by."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    starts: list[float] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or not traced:
        untraced.append(runner.run_pass(ops))
        traced.append(runner.run_pass(ops, traced=True))
        if any(o.exit_code is None for p in (untraced[-1], traced[-1]) for o in p.outcomes):
            break
        starts += [runner.start_only() for _ in range(START_SAMPLES)]
    return untraced, traced, starts or [0.0]  # a command timed out: the run has failed


# ---------------------------------------------------------------------------
# main


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    if not (ROOT / "src" / "ordtop" / "cli.py").is_file():
        raise BenchError(f"no ordtop sources under {ROOT / 'src'}; run from the repository root")
    deadline = time.perf_counter() + HARD_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner(deadline)
    first_setup, ops, info = set_up(workload, seed, size_name, runner, WORK / "inputs")
    setups = [first_setup]

    def set_up_again() -> float:
        return set_up(workload, seed, size_name, runner, WORK / "setup_again")[0]

    backend = "native" if info["native"] else "pure"
    print(f"workload {workload}  seed {seed}  size {size_name}  backend {backend}  "
          f"native importable: {info['native_importable']}")
    # A built extension gets a second row with the pure kernels forced.
    rows = [(backend, runner)]
    if info["native"]:
        rows.append(("pure", Runner(deadline, pure=True)))
    share = seconds / len(rows)
    result: dict | None = None
    for row_name, row_runner in rows:
        if trace:
            untraced, traced, starts = measure_traced(row_runner, ops, share)
            passes = untraced + traced
            metrics = per_layer(traced, untraced, starts)
            units = per_layer_units()
        else:
            passes = measure(row_runner, ops, share, set_up_again, setups)
            metrics = end_to_end(setups, passes)
            units = END_TO_END
        attempted = sum(len(p.outcomes) for p in passes)
        failed = sum(p.failed for p in passes)
        for p in passes:
            for o in p.outcomes:
                if o.problem is not None:
                    print(f"FAILED: {o.problem}")
        print(f"[{row_name}] passes {len(passes)}  commands {attempted}  failed {failed}  "
              f"error_rate {failed / attempted:.6f} (ratio)")
        print(f"[{row_name}] pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
        if not trace:
            tail = "mean" if len(ops) == 1 else f"p{TAIL_PERCENTILE}"
            print(f"[{row_name}] cmd_tail_s is the {tail} of {attempted} commands; "
                  f"setup_s is the median of {len(setups)} set-ups")
        for name, value in metrics.items():
            print(f"[{row_name}] {name} {value:.6g} {units[name]}")
        if result is None:
            result = {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
    assert result is not None
    return result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny runs every workload at a toy size (smoke test)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()  # only when no other benchmark process is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
