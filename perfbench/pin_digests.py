"""Record the output digests the benchmark checks against.

    python3 perfbench/pin_digests.py            # rewrite perfbench/digests.json

Runs every workload once per pinned (scale, seed) and stores the sha256 of
each colorer's ``result_lines()``, of ``trace_lines()`` where a run keeps a
trace, of the CLI results and summary CSVs (``wall_time_s`` blanked) and of
the enumeration report.  Rerun it only when a change is meant to alter
outputs, and say why in the change.
"""
from __future__ import annotations

import json
import os
import sys

import run

PINNED = {"full": (0, 1), "toy": (0,)}
PATH = os.path.join(run.HERE, "digests.json")


def main() -> int:
    pinned: dict = {}
    for scale, seeds in PINNED.items():
        for workload in run.WORKLOADS:
            for seed in seeds:
                # nothing pinned yet, so only pass-to-pass differences fail
                res = run.run_child(workload, seed, 0, 0, scale, "")
                if res["failed"]:
                    print(f"{scale} {workload} seed {seed}: {res['problems']}", file=sys.stderr)
                    return 1
                pinned.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = res["digests"]
                print(f"{scale} {workload} seed {seed}: {len(res['digests'])} digests")
    with open(PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
