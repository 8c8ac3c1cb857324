"""The onlinecolor benchmark: one command, three workloads.

    python3 perfbench/run.py --workload random_large --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the root of a checkout; it imports the package from ``src/``
there and fails if that is missing.  Each workload runs in a fresh child
process (``child.py``) with the numpy/BLAS thread variables pinned to 1, so
peak RSS is per workload; the CLI workload reports that of its CLI processes
and their pool workers alone (see ``peak_rss.py``).  The instruction
counts need ``perf_event_open`` (see ``hwcount.py``); where it cannot be
opened the command says so and exits non-zero.

Without tracing the last stdout line is a JSON object with the end-to-end
metrics; above it a table prints every metric by name with its unit,
including the per-colorer throughputs and the error rate.  With
``--trace 1`` the child alternates plain and traced passes and the JSON holds
the per-layer metrics, the tracing overhead among them; the spans are written
to ``.perfbench_run/spans-<workload>-seed<seed>.npz``.

An operation is one colorer run, CLI command, enumeration, diagnostics step
or set-up.  It fails on an invalid coloring, a nonzero CLI exit, an
enumeration whose total probability is off 1 by more than 1e-12, a
scaling-factor identity off by more than 1e-10, inputs that differ between
set-up repeats, or an output digest that differs from the first pass or from
the one pinned in ``digests.json`` for this seed (pinned seeds are listed
there; other seeds are checked pass against pass).  A colorer that runs out
of colors with ``continue_after_failure`` has produced a result, not failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import hwcount
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("random_large", "gadget_replay", "cli_sweeps")
DEFAULT_SECONDS = 30
CHILD_TIMEOUT_S = 170

# End-to-end metrics every workload reports: (name, unit).  setup_s is the
# median over the set-up repeats.  The *instr metrics count user-space
# instructions retired by the workload's processes (see hwcount.py): the
# median set-up, and the median pass.  wall_s is the median pass wall time;
# it also holds what the instruction counts leave out: kernel time for fork,
# pipes and IPC, and time the pool workers sit idle.  The throughputs are
# printed in the table but not gated.
END_TO_END = [
    ("setup_s", "s"),
    ("setup_minstr", "Minstr"),
    ("cpu_ginstr", "Ginstr"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

# further end-to-end figures printed in the table, per workload: (name, unit,
# operation whose median rate it is, unit of that operation's work).  Each
# also gets a line with the operation's instructions per unit of work.
NAMED_RATES = {
    "random_large": [
        ("alg1_edges_per_s", "edges/s", "alg1", "edge"),
        ("greedy_edges_per_s", "edges/s", "greedy", "edge"),
        ("randgreedy_edges_per_s", "edges/s", "randgreedy", "edge"),
    ],
    "gadget_replay": [
        ("alg1_edges_per_s", "edges/s", "alg1", "edge"),
        ("alg2_edges_per_s", "edges/s", "alg2", "edge"),
        ("listgreedy_edges_per_s", "edges/s", "listgreedy", "edge"),
    ],
    "cli_sweeps": [
        ("mc_runs_per_s", "runs/s", "sweep_mc", "run"),
        ("biastree_node_steps_per_s", "steps/s", "sweep_biastree", "step"),
        ("enum_branches_per_s", "branches/s", "enumerate", "branch"),
    ],
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: str, digests: str | None = None) -> dict:
    """Run one workload in a fresh process; ``digests`` overrides the pinned
    digests file ("" pins nothing)."""
    workdir = os.path.join(ROOT, ".perfbench_run", f"{workload}-seed{seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--workdir", workdir]
    if digests is not None:
        cmd += ["--digests", digests]
    # its own process group, so that a timeout also stops the CLI processes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        # a child that failed may leave CLI processes behind in its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed nothing:\n{err[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(res: dict) -> dict[str, float]:
    return {
        "setup_s": res["setup_s"],
        "setup_minstr": res["setup_instructions"] / 1e6,
        "cpu_ginstr": statistics.median(res["pass_instructions"]) / 1e9,
        "wall_s": statistics.median(res["pass_wall_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def named_rates(res: dict) -> list[tuple[str, float, str]]:
    rows = []
    for name, unit, op, item in NAMED_RATES[res["workload"]]:
        summary = res["ops"][op]
        rows.append((name, summary["rate"], unit))
        per_item = summary["instructions"] / summary["work"] if summary["work"] else 0.0
        rows.append((f"{op}_instr_per_{item}", per_item, f"instr/{item}"))
    return rows


def pass_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(res: dict, trace: int) -> dict:
    """Print the table for one workload; return its contract metrics."""
    env = res["env"]
    failed, attempted = res["failed"], res["attempted"]
    print(f"== {res['workload']}  seed {res['seed']}  scale {res['scale']}  "
          f"passes {res['passes']}  nproc {env['nproc']}  jobs {env['jobs']}  "
          f"python {env['python']}  numpy {env['numpy']}")
    e2e = end_to_end(res)
    rows = [(n, e2e[n], u) for n, u in END_TO_END]
    rows.append(("error_rate", failed / attempted, f"{failed}/{attempted}"))
    rows += named_rates(res)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>16.6g}  {unit}")
    walls = res["pass_wall_s"]
    spread = pass_spread(walls)
    if spread > bounds()["wall_s"]:
        print(f"  ! wall_s unresolved: its {len(walls)} passes spread {spread:.0%} "
              f"(q1-q3 over the median), wider than its bound")
    for problem in res["problems"]:
        print(f"  ! {problem}")
    if not trace:
        return {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    layers = res["layers"]
    print(f"  -- per layer (traced passes; spans in {res['spans_file']})")
    for name, unit in tracing.PER_LAYER:
        print(f"  {name:<34} {layers[name]:>16.6g}  {unit}")
    if layers["trace.unseen_runs"]:
        print(f"  ! spans of {layers['trace.unseen_runs']:.0f} CLI runs did not come back "
              "from the pool workers")
    if not res["exact_counts_repeat"]:
        print("  ! counts differ between traced passes")
    return {n: {"value": layers[n], "unit": u} for n, u in tracing.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes are for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "onlinecolor", "__init__.py")):
        print(f"perfbench: no onlinecolor sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        hwcount.InstructionCounter().close()
    except hwcount.CounterUnavailable as err:
        print(f"perfbench: cannot count instructions ({err}); the gated *instr metrics "
              "need perf_event_open with perf_event_paranoid at most 2", file=sys.stderr)
        return 3

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = run_child(name, args.seed, args.seconds, args.trace, args.scale)
            if args.trace and not res["exact_counts_repeat"]:
                res["failed"] += 1
            attempted += res["attempted"]
            failed += res["failed"]
            for key, value in report(res, args.trace).items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
