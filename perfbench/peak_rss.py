"""Run a command; record the peak RSS of it and its descendants.

    python -S perfbench/peak_rss.py <out-file> <command> [<argument> ...]

Linux starts a new process's peak RSS (``ru_maxrss``) at the peak of the
process that started it: ``exec`` keeps the old memory's high-water mark.
The benchmark's own process holds numpy, the package and the CSVs it parses,
so a CLI it starts directly would report at least that much.  This small
process starts the command instead, waits for it and writes the largest
``ru_maxrss`` among the command and the processes it waited for (its pool
workers), in KiB, to ``<out-file>``.  The command's stdio pass through; the
exit code is the command's, or 128 plus the signal that ended it.
"""
from __future__ import annotations

import os
import resource
import sys


def main(argv: list[str]) -> int:
    out, cmd = argv[0], argv[1:]
    # os.spawnvp, not subprocess: this process starts once per CLI command,
    # so it imports as little as it can (it also runs under ``python -S``)
    code = os.spawnvp(os.P_WAIT, cmd[0], cmd)
    with open(out, "w") as fh:
        fh.write(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}\n")
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
