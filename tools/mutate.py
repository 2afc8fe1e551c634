"""Run the listed text mutants, each in a fresh temporary copy of the repository.

Run from the repository root, with no arguments:

    python3 tools/mutate.py

It runs every mutant of ``tools/mutants.json``.  Each mutant names a
``file`` (relative to the root), an ``old`` text that must occur in it
exactly once, the ``new`` text that replaces it, and the test ``modules``
to run.  A mutant whose old text occurs zero times or more
than once stops the run before anything is copied.  The unmutated tree runs
the union of the modules first; each mutant is then applied in its own
copy and run with ``python -m pytest -x``.  A mutant is killed when a test
fails (pytest exit code 1); any other nonzero pytest exit code (a
collection error, no test collected) is an error.

The exit code is 0 when every mutant is killed, 1 when one survives, and 2
on an error.  Uses the standard library and the installed pytest only; it
stays outside tier-1, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_work")


def load() -> list[dict]:
    """The listed mutants, each checked against the tree."""
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    for m in mutants:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if count != 1:
            raise SystemExit(f"mutant {m['name']}: its old text occurs {count} times in {m['file']}")
    return mutants


def run_tests(modules: list[str], mutant: dict | None = None) -> tuple[int, float, str]:
    """(pytest exit code, seconds, last output line) in a fresh copy, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="ordtop-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            target = tree / mutant["file"]
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *modules],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, time.perf_counter() - started, lines[-1] if lines else ""


def main() -> int:
    mutants = load()

    modules = sorted({module for m in mutants for module in m["modules"]})
    code, seconds, last = run_tests(modules)
    print(f"unmutated: exit {code} in {seconds:.1f} s ({last})", flush=True)
    if code != 0:
        return 2

    verdicts = {0: "SURVIVED", 1: "killed"}
    codes = []
    for m in mutants:
        code, seconds, last = run_tests(m["modules"], m)
        codes.append(code)
        verdict = verdicts.get(code, "ERROR")
        print(f"{m['name']}: {verdict}, exit {code} in {seconds:.1f} s ({last})", flush=True)
    survived, errors = codes.count(0), len(codes) - codes.count(0) - codes.count(1)
    print(f"{len(mutants)} mutants, {survived} survived, {errors} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
