"""Untraced ``ordtop`` entry point: ``python3 cli_child.py PEAK_PATH ARGS...``.

Runs ``ordtop.cli.main(ARGS)`` as the ``ordtop`` console script does, and
at exit writes the process's peak resident set size in kB to PEAK_PATH.
The peak is read from ``VmHWM`` in ``/proc/self/status``, which covers only
this program image.  ``ru_maxrss`` would not do: the kernel carries the
parent's memory high-water mark over into the child at exec, so every
child would read at least the benchmark's own peak.
"""

from __future__ import annotations

import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    peak_path, argv = sys.argv[1], sys.argv[2:]
    from ordtop.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main())
