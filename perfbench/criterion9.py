"""One alg1 run on the full criterion-9 stream, for comparison with ROADMAP.md.

    python3 perfbench/criterion9.py

The ROADMAP re-anchor quotes this workload (n=10k, delta=64, m=300k, eps 0.2,
the acceptance test's seeds) at 8.0-8.7 s and a 749 MB peak.  The benchmark's
random_large runs the same generator at a tenth of the edges, so this script
measures the full size once, in a fresh process like the benchmark's, and
prints one JSON line.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
from time import perf_counter

import hwcount
import run


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure() -> dict:
    from onlinecolor import adversaries, algorithms, core

    counter = hwcount.InstructionCounter()
    out = {}
    started = perf_counter()
    graph = adversaries.gen_random_graph(10_000, 64, 300_000, core.RngHandle(29))
    out["generate_s"] = perf_counter() - started
    out["rss_before_alg1_mb"] = peak_mb()
    params = core.derive_params(10_000, 64, eps=0.2)
    instructions = counter.read()
    started = perf_counter()
    result = algorithms.run_alg1(graph, params, core.RngHandle(29, 1))
    out["alg1_s"] = perf_counter() - started
    out["alg1_ginstr"] = (counter.read() - instructions) / 1e9
    out["alg1_us_per_edge"] = out["alg1_s"] / 300_000 * 1e6
    out["peak_rss_mb"] = peak_mb()
    started = perf_counter()
    out["valid"] = core.validate_coloring(result.edges, result.state).ok
    out["validate_s"] = perf_counter() - started
    return out


def main() -> int:
    if "--inner" in sys.argv:
        print(json.dumps(measure()))
        return 0
    proc = subprocess.run([sys.executable, __file__, "--inner"], env=run.child_env(),
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
