"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
``run_pass`` over them: a fixed list of operations (colorer runs, CLI
commands, enumerations), each timed and checked.  Calls go through module
attributes (``algorithms.run_alg1``, not an imported name) so that the
tracing wrappers see them.

Why these three:

* ``random_large`` -- a degree-capped random graph in random order, the
  criterion-9 stream at a tenth of its edges (30k of 300k).  Consecutive arrivals rarely
  share an endpoint (mean endpoint-disjoint wave of about 62 arrivals) and
  the weights stay far below the cap, so the PTable fast path, the
  per-arrival loop and the PTable memory dominate.
* ``gadget_replay`` -- sequential two-star gadgets with a tight cap.  Each
  arrival shares its star centre with the previous one (wave length 1) and
  about half of the alg1 reconstructs take the exact replay; alg2 spends most
  arrivals in the bad-vertex branch.  It bypasses what helps random_large.
* ``cli_sweeps`` -- three real CLI commands in subprocesses: thousands of
  9-edge Monte Carlo runs through the process pool, a bias-tree sweep and an
  exact enumeration.  Fixed per-run cost, the pool and CSV writing dominate,
  so moving work into per-run set-up shows here.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from onlinecolor import adversaries, algorithms, core, diagnostics
from onlinecolor.core import RngHandle

ENUM_TOLERANCE = 1e-12
HERE = os.path.dirname(os.path.abspath(__file__))


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def mean_wave_length(streams) -> float:
    """Mean length of maximal runs of consecutive endpoint-disjoint arrivals."""
    arrivals = waves = 0
    for stream in streams:
        seen: set[int] = set()
        for arrival in stream.sequence:
            u, v = arrival.edge
            if not seen or u in seen or v in seen:
                waves += 1
                seen = set()
            seen.add(u)
            seen.add(v)
            arrivals += 1
    return arrivals / waves if waves else 0.0


@dataclass
class Op:
    """One checked operation; any problem makes it count as failed."""

    name: str
    seconds: float
    work: float = 0.0  # edges, rows, steps or branches, by operation kind
    instructions: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # CLI commands only: the command and its pool workers


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    extra: dict[str, float] = field(default_factory=dict)
    instructions: int = 0  # user-space, this process and its children


class Meter:
    """Wall time and instructions (see ``hwcount``) of one call."""

    def __init__(self, counter) -> None:
        self.counter = counter

    def measure(self, fn, *args, **kwargs) -> tuple[object, float, int]:
        instructions = self.counter.read()
        started = perf_counter()
        out = fn(*args, **kwargs)
        seconds = perf_counter() - started
        return out, seconds, self.counter.read() - instructions


def _colorer_op(meter: Meter, name: str, runner, args: tuple, edges_of=lambda r: r.edges,
                keep_trace: bool = False) -> tuple[Op, object]:
    result, seconds, instructions = meter.measure(runner, *args)
    op = Op(name, seconds, work=len(result.edges), instructions=instructions)
    op.digests[f"{name}.result"] = sha256_lines(result.result_lines())
    if keep_trace:
        op.digests[f"{name}.trace"] = sha256_lines(result.trace.ptable.trace_lines())
    report = core.validate_coloring(edges_of(result), result.state)
    if not report.ok:
        op.problems.append(f"{name}: invalid coloring: {report.summary()[:200]}")
    return op, result


class Workload:
    """What child.py runs.  ``setup`` builds the inputs in memory and is
    timed; ``write_inputs`` puts the files a pass reads under ``workdir`` and
    is not; ``run_pass`` runs the operations once and checks them."""

    setup_repeats = 5

    def write_inputs(self, inputs: dict, workdir: str) -> None:
        pass


# -- random_large ------------------------------------------------------------------


class RandomLarge(Workload):
    name = "random_large"
    sizes = {"full": (10_000, 64, 30_000), "toy": (300, 16, 1_500)}

    def __init__(self, scale: str, meter: Meter) -> None:
        self.n, self.delta, self.m = self.sizes[scale]
        self.meter = meter

    def setup(self, seed: int) -> dict:
        graph = adversaries.gen_random_graph(self.n, self.delta, self.m, RngHandle(seed))
        return {"graph": graph}

    def fingerprint(self, inputs: dict) -> str:
        return sha256_lines(adversaries.instance_to_lines(inputs["graph"]))

    def streams(self, inputs: dict) -> list:
        return [inputs["graph"]]

    def run_pass(self, inputs: dict, seed: int, workdir: str, trace_to=None) -> PassResult:
        graph = inputs["graph"]
        delta = self.delta
        started = perf_counter()
        ops = []
        op, _ = _colorer_op(self.meter, "greedy", algorithms.run_greedy, (graph,))
        ops.append(op)
        op, _ = _colorer_op(self.meter, "randgreedy", algorithms.run_randomized_greedy,
                            (graph, 2 * delta - 1, RngHandle(seed, 1)))
        ops.append(op)
        params = core.derive_params(self.n, delta, eps=0.2)
        op, _ = _colorer_op(self.meter, "alg1", algorithms.run_alg1,
                            (graph, params, RngHandle(seed, 2)))
        ops.append(op)
        return PassResult(perf_counter() - started, ops)


# -- gadget_replay -------------------------------------------------------------------


class GadgetReplay(Workload):
    name = "gadget_replay"
    setup_repeats = 7
    sizes = {"full": (64, 200, 16, 1000), "toy": (8, 6, 4, 20)}
    tracked_edges = 5

    def __init__(self, scale: str, meter: Meter) -> None:
        self.delta, self.copies, self.list_delta, self.list_copies = self.sizes[scale]
        self.meter = meter

    def setup(self, seed: int) -> dict:
        farm = adversaries.gen_gadget_farm(self.delta, self.copies)
        lists = adversaries.gen_list_lb_randomized(
            self.list_delta, self.list_copies, RngHandle(seed)
        )
        return {"farm": farm, "lists": lists}

    def fingerprint(self, inputs: dict) -> str:
        return sha256_lines(
            adversaries.instance_to_lines(inputs["farm"])
            + adversaries.instance_to_lines(inputs["lists"])
        )

    def streams(self, inputs: dict) -> list:
        return [inputs["farm"]]

    def run_pass(self, inputs: dict, seed: int, workdir: str, trace_to=None) -> PassResult:
        farm, lists = inputs["farm"], inputs["lists"]
        started = perf_counter()
        ops = []
        params1 = core.derive_params(farm.n, self.delta, "oblivious", eps=0.2, cap=0.02)
        op, res1 = _colorer_op(self.meter, "alg1", algorithms.run_alg1,
                               (farm, params1, RngHandle(seed, 1), True), keep_trace=True)
        ops.append(op)
        tracked = [e for e in res1.edges if e in res1.state.assignment][-self.tracked_edges:]
        factors, seconds, instructions = self.meter.measure(self._diagnostics, res1, tracked)
        del res1
        op = Op("diagnostics", seconds, work=len(tracked), instructions=instructions)
        lines = []
        for trajectory, sf in factors:
            e = sf.edge
            lines.extend(",".join(row) for row in diagnostics.trajectory_rows(trajectory))
            lines.append(f"{e.u},{e.v},{sf.t_e},{sf.identity_residual()!r},"
                         f"{sf.max_p_bound_excess()!r},{sf.max_r_minus_p()!r}")
            if sf.identity_residual() > 1e-10:
                op.problems.append(f"scaling identity off by {sf.identity_residual()!r}")
        op.digests["diagnostics.rows"] = sha256_lines(lines)
        ops.append(op)

        params2 = core.derive_params(
            farm.n, self.delta, "oblivious", eps=0.2,
            badness_threshold=2, dangerous_threshold=10,
        )
        op, _ = _colorer_op(self.meter, "alg2", algorithms.run_alg2,
                            (farm, params2, RngHandle(seed, 2)))
        ops.append(op)
        op, _ = _colorer_op(self.meter, "listgreedy", algorithms.run_list_greedy,
                            (lists, RngHandle(seed, 3), True),
                            edges_of=lambda r: r.colored_edges)
        ops.append(op)
        return PassResult(perf_counter() - started, ops)


    @staticmethod
    def _diagnostics(result, tracked) -> list:
        """What the CLI's diagnostics compute for the last colored edges."""
        return [(diagnostics.compute_trajectory(result.trace, e),
                 diagnostics.compute_scaling_factors(result.trace, e)) for e in tracked]


# -- cli_sweeps ----------------------------------------------------------------------


def _blank_column(text: str, column: str) -> list[str]:
    """CSV lines with one column emptied (wall-clock values are not pinned)."""
    rows = list(csv.reader(io.StringIO(text)))
    idx = rows[0].index(column)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows[1:]:
        row[idx] = ""
        writer.writerow(row)
    return out.getvalue().splitlines()


def _column_sum(text: str, column: str) -> float:
    rows = list(csv.DictReader(io.StringIO(text)))
    return sum(float(r[column]) for r in rows if r[column] != "")


MC_DELTA = 5  # the Monte Carlo instance: two_star_bridge(5), 9 edges


class CliSweeps(Workload):
    name = "cli_sweeps"
    setup_repeats = 25
    # (MC seeds, MC repetitions, bias-tree delta, pool, layers, K_{a,a} side)
    sizes = {"full": (200, 10, 256, 2048, 6, 3), "toy": (10, 2, 16, 64, 3, 2)}

    def __init__(self, scale: str, meter: Meter) -> None:
        (self.mc_seeds, self.mc_reps, self.bt_delta, self.bt_pool,
         self.bt_layers, self.side) = self.sizes[scale]
        self.meter = meter
        self.jobs = min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed: int) -> dict:
        """The enumeration instance and the three configs, as file contents."""
        side = self.side
        # K_{side,side} in a fixed arrival order under seeded vertex labels:
        # the branch count depends on the order, not on the labels
        label = RngHandle(seed, 7).generator().permutation(2 * side).tolist()
        edges = [(label[a], label[side + b]) for a in range(side) for b in range(side)]
        stream = adversaries.oblivious_stream(2 * side, side, edges, name=f"K{side},{side}")
        configs = {
            "mc": {
                "algorithm": "randgreedy",
                "instance": {"generator": "two_star_bridge", "delta": MC_DELTA},
                "palette_size": 6,
                "continue_after_failure": True,
                "seeds": {"start": 1000 * seed, "count": self.mc_seeds},
                "repetitions": self.mc_reps,
                "sweep": {"key": "palette_size", "values": [6, 7, 8, 9]},
                "output": {"results": "mc_results.csv", "summary": "mc_summary.csv"},
            },
            "bt": {
                "algorithm": "biastree",
                "instance": {"delta": self.bt_delta, "palette_ratio": 1.5,
                             "layers": self.bt_layers, "pool_size": self.bt_pool},
                "seeds": [2 * seed, 2 * seed + 1],
                "sweep": {"key": "instance.palette_ratio", "values": [1.5, 1.7]},
                "output": {"results": "bt_results.csv", "summary": "bt_summary.csv"},
            },
            "enum": {
                "algorithm": "alg1",
                "params": {"eps": 0.5, "cap": 1.0},
                "track_q": True,
            },
        }
        return {"stream": stream, "instance": adversaries.instance_to_lines(stream),
                "config_data": configs,
                "mc_rows": 4 * self.mc_seeds * self.mc_reps,
                "bt_steps_per_run": self.bt_pool * (self.bt_delta - 1) * (self.bt_layers - 1)}

    def fingerprint(self, inputs: dict) -> str:
        return sha256_lines(inputs["instance"] + [json.dumps(inputs["config_data"],
                                                             sort_keys=True)])

    def write_inputs(self, inputs: dict, workdir: str) -> None:
        """Write the instance file and the configs; ``configs`` maps to paths.

        Not timed as set-up: file creation latency on the host's ext4 drifted
        from 0.10 to 0.37 ms over ten consecutive runs, swamping the set-up's
        own work."""
        instance = os.path.join(workdir, "kaa.txt")
        with open(instance, "w") as fh:
            fh.write("\n".join(inputs["instance"]) + "\n")
        configs = json.loads(json.dumps(inputs["config_data"]))
        configs["enum"]["instance"] = {"file": instance}
        inputs["configs"] = {}
        for key, config in configs.items():
            inputs["configs"][key] = os.path.join(workdir, f"{key}.json")
            with open(inputs["configs"][key], "w") as fh:
                json.dump(config, fh, indent=1)

    def streams(self, inputs: dict) -> list:
        return [inputs["stream"]]

    def _cli(self, label: str, command: str, config: str, out_dir: str, trace_to):
        """Run one CLI command under ``peak_rss.py``; traced, under
        ``traced_cli.py`` writing spans."""
        if trace_to is None:
            launcher, env = [sys.executable, "-m", "onlinecolor.cli"], None
        else:
            launcher = [sys.executable, os.path.join(HERE, "traced_cli.py")]
            env = dict(os.environ, PERFBENCH_SPAN_DIR=trace_to[0],
                       PERFBENCH_RUN_ID=str(trace_to[1]))
        rss_file = os.path.join(out_dir, f"{label}.maxrss")
        args = [sys.executable, "-S", os.path.join(HERE, "peak_rss.py"), rss_file, *launcher,
                command, "--config", config, "--jobs", str(self.jobs), "--out", out_dir]
        proc, seconds, instructions = self.meter.measure(
            subprocess.run, args, capture_output=True, text=True, env=env, timeout=150)
        op = Op(label, seconds, instructions=instructions)
        if proc.returncode != 0:
            op.problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
        with open(rss_file) as fh:
            op.peak_rss_mb = int(fh.read()) / 1024.0
        os.remove(rss_file)
        return proc, op

    def run_pass(self, inputs: dict, seed: int, workdir: str, trace_to=None) -> PassResult:
        out_dir = os.path.join(workdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        started = perf_counter()
        ops = []
        extra = {"cli.worker_busy_s": 0.0, "cli.rows_written": 0, "cli.sweep_wall_s": 0.0}

        for key, label in (("mc", "sweep_mc"), ("bt", "sweep_biastree")):
            proc, op = self._cli(label, "sweep", inputs["configs"][key], out_dir, trace_to)
            ops.append(op)
            extra[f"cli.{label}.wall_s"] = op.seconds
            extra["cli.sweep_wall_s"] += op.seconds
            if proc.returncode != 0:
                continue
            texts = {}
            for part in ("results", "summary"):
                with open(os.path.join(out_dir, f"{key}_{part}.csv")) as fh:
                    texts[part] = fh.read()
                os.remove(os.path.join(out_dir, f"{key}_{part}.csv"))
            rows = texts["results"].count("\n") - 1
            op.work = rows
            extra["cli.run_rows"] = extra.get("cli.run_rows", 0) + rows
            op.digests[f"{label}.results"] = sha256_lines(
                _blank_column(texts["results"], "wall_time_s"))
            op.digests[f"{label}.summary"] = sha256_lines(texts["summary"].splitlines())
            busy = _column_sum(texts["results"], "wall_time_s")
            extra["cli.worker_busy_s"] += busy
            extra["cli.rows_written"] += rows + texts["summary"].count("\n") - 1
            if key == "bt":
                op.work = rows * inputs["bt_steps_per_run"]
            elif rows != inputs["mc_rows"]:
                op.problems.append(f"{label}: {rows} rows, expected {inputs['mc_rows']}")

        proc, op = self._cli("enumerate", "enumerate", inputs["configs"]["enum"], out_dir,
                             trace_to)
        extra["cli.enumerate.wall_s"] = op.seconds
        if proc.returncode == 0:
            report = json.loads(proc.stdout)
            op.work = report["branches"]
            op.digests["enumerate.report"] = sha256_lines(proc.stdout.splitlines())
            if abs(report["total_probability"] - 1.0) > ENUM_TOLERANCE:
                op.problems.append(
                    f"enumerate: total probability {report['total_probability']!r}")
        ops.append(op)
        extra["cli.pool_efficiency"] = (
            extra["cli.worker_busy_s"] / (self.jobs * extra["cli.sweep_wall_s"])
        )
        extra["cli.peak_rss_mb"] = max(op.peak_rss_mb for op in ops)
        return PassResult(perf_counter() - started, ops, extra)


WORKLOADS = {w.name: w for w in (RandomLarge, GadgetReplay, CliSweeps)}
