"""Traced ``ordtop`` entry point: ``python3 -X importtime traced_child.py PROFILE_PATH ARGS...``.

Wraps every public module-level function of the ordtop modules, rebinds
each wrapper in every ``ordtop.*`` namespace that holds the original
(``from ... import`` copies included), then runs ``ordtop.cli.main(ARGS)``.
Per-function counters are kept in memory and written to PROFILE_PATH as
JSON when the command ends; stdout and the exit code are the command's own.
With ``ARGS`` = ``--start-only`` it imports and wraps, then exits without a
command: its wall time is the start cost of a traced command.

Each call is one span.  Spans are folded into per-function totals as they
close (calls, total seconds, self seconds, items returned) rather than
stored one by one: a size-4 suite makes about 670,000 calls, and a list of
that many spans would outgrow the program's own memory.  Self time is a
span's duration minus the durations of the spans it directly encloses.
Class methods (``Preorder.leq`` and the like) are not wrapped, so their
time counts as self time of the wrapped function that called them.

Import times come from the interpreter's ``-X importtime`` report on
stderr, which ``import_times`` splits by layer.
"""

from __future__ import annotations

# Only what the interpreter has loaded anyway: a module imported here would
# be missing from the import report of the ordtop module that needs it.
import sys
import time

# Layer name -> module path.  The order is the import order of the package.
LAYERS = {
    "kernels": "ordtop.kernels",
    "preorders": "ordtop.preorders",
    "topologies": "ordtop.topologies",
    "representations": "ordtop.representations",
    "theorems": "ordtop.theorems",
    "instances": "ordtop.instances",
    "cli": "ordtop.cli",
}

START_ONLY = "--start-only"

# Functions whose output size is a per-layer counter: qualified name -> size of result.
OUTPUT_SIZES = {
    "kernels.close_family": len,
    "preorders.enumerate_linear_extensions": len,
}


def _layer_of(module: str) -> str | None:
    for layer, path in LAYERS.items():
        if module == path or module.startswith(path + "."):
            return layer
    return None


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of import per layer, from ``-X importtime`` lines.

    A layer's figure is the self time of its own modules plus that of every
    module first imported beneath them that belongs to no other layer (the
    standard library, ``ordtop.errors``).  ``ordtop`` is the cumulative
    time of the whole package, ``ordtop/__init__.py`` included.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    out = {layer: 0.0 for layer in LAYERS}
    out["ordtop"] = 0.0
    # The report lists a module after everything it imported, one indent
    # deeper; walking it backwards meets each parent before its children.
    ancestors: list[tuple[int, str | None]] = []
    for depth, name, self_us, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        layer = _layer_of(name) or (ancestors[-1][1] if ancestors else None)
        if layer is not None:
            out[layer] += self_us / 1e6
        if depth == 0 and (name == "ordtop" or name.startswith("ordtop.")):
            out["ordtop"] += cumulative_us / 1e6
        ancestors.append((depth, layer))
    return out


class Profile:
    """Per-function [calls, total_s, self_s, items_out], filled by wrappers."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._child_time: list[float] = []

    def wrap(self, qualname: str, fn):
        entry = self.stats.setdefault(qualname, [0, 0.0, 0.0, 0])
        stack = self._child_time
        clock = time.perf_counter
        size_of = OUTPUT_SIZES.get(qualname)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - inner
            if size_of is not None:
                entry[3] += size_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced


def install(profile: Profile) -> int:
    """Wrap every public function of each layer; return the number rebound."""
    import inspect

    wrappers = {}
    for layer, modname in LAYERS.items():
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == modname
            ):
                wrappers[id(obj)] = profile.wrap(f"{layer}.{name}", obj)
    rebound = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "ordtop" or modname.startswith("ordtop.")):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
                rebound += 1
    return rebound


def main() -> int:
    profile_path, argv = sys.argv[1], sys.argv[2:]
    # The package first, so that the import report lists ordtop/__init__.py
    # at the top level rather than beneath ordtop.cli.
    import ordtop  # noqa: F401
    import ordtop.cli as cli

    t0 = time.perf_counter()
    profile = Profile()
    rebound = install(profile)
    t1 = time.perf_counter()
    code = 2
    try:
        code = 0 if argv == [START_ONLY] else cli.main(argv)
    finally:
        t2 = time.perf_counter()
        sys.stdout.flush()
        report = {
            "rebound": rebound,
            "install_s": t1 - t0,
            "main_s": t2 - t1,
            "functions": profile.stats,
        }
        import json

        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
