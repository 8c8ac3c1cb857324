"""One workload in a fresh process: set up, run passes, check, report.

Started by ``run.py`` with the package on ``PYTHONPATH`` and the thread
environment pinned; prints one JSON object on its last stdout line.

Untraced (``--trace 0``) it repeats the workload's pass until ``--seconds``
have gone by and reports medians over passes.  Traced (``--trace 1``) it
alternates untraced and traced passes over the same time, so the tracing
overhead is measured inside one process on the same inputs.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import hwcount
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 2


def load_pinned(path: str, workload: str, scale: str, seed: int) -> dict:
    if not path:  # nothing pinned
        return {}
    with open(path) as fh:
        pinned = json.load(fh)
    return pinned.get(scale, {}).get(workload, {}).get(str(seed), {})


def peak_rss_mb(passes: list) -> float:
    """This process's peak RSS, or the CLI processes' where the workload runs
    the CLI: their peak through ``peak_rss.py``, the largest over passes."""
    if "cli.peak_rss_mb" in passes[0].extra:
        return max(p.extra["cli.peak_rss_mb"] for p in passes)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts operations and failures; compares digests across passes."""

    def __init__(self, pinned: dict) -> None:
        self.pinned = pinned
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: workloads.Op) -> None:
        self.attempted += 1
        problems = list(op.problems)
        for key, digest in op.digests.items():
            if key in self.pinned and self.pinned[key] != digest:
                problems.append(f"{key}: digest differs from the pinned one")
            if self.first.setdefault(key, digest) != digest:
                problems.append(f"{key}: digest differs from the first pass")
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    counter = hwcount.InstructionCounter()  # before any child process starts
    workload = workloads.WORKLOADS[args.workload](args.scale, workloads.Meter(counter))
    checker = Checker(load_pinned(args.digests, args.workload, args.scale, args.seed))
    tracer = tracing.Tracer() if args.trace else None
    os.makedirs(args.workdir, exist_ok=True)

    # set-up, repeated: median time, and every repeat must build the same inputs
    setup_times, setup_instructions, setup_generate = [], [], []
    fingerprints: set[str] = set()
    inputs = None
    for k in range(workload.setup_repeats):
        inputs = None  # free the previous repeat's inputs first
        if tracer is not None:
            tracer.run_id = -1 - k
            first_span = len(tracer.name)
            inst = tracing.install(tracer)
        inputs, seconds, instructions = workload.meter.measure(workload.setup, args.seed)
        setup_times.append(seconds)
        setup_instructions.append(instructions)
        if tracer is not None:
            inst.uninstall()
            setup_generate.append(tracing.layer_metrics(
                tracer.snapshot(first_span))["adversaries.generate.s"])
        fingerprints.add(workload.fingerprint(inputs))
    # the set-up is one operation; every repeat must build the same inputs
    checker.check(workloads.Op(
        "setup", 0.0, problems=["set-up is not deterministic"] if len(fingerprints) > 1 else []))
    if tracer is not None:
        tracer.counters.clear()
    workload.write_inputs(inputs, args.workdir)
    wave_len = workloads.mean_wave_length(workload.streams(inputs))

    passes: list[workloads.PassResult] = []
    traced: list[tuple[workloads.PassResult, dict]] = []
    cli_spans: list[dict] = []  # span stores the CLI processes wrote
    measure_started = perf_counter()
    k = 0
    while (perf_counter() - measure_started < args.seconds
           or len(passes) < MIN_PASSES or (tracer is not None and len(traced) < MIN_PASSES)):
        trace_this = tracer is not None and k % 2 == 1
        trace_to = None
        if trace_this:
            tracer.run_id = k
            trace_to = (os.path.join(args.workdir, f"spans-{k}"), k)
            os.makedirs(trace_to[0])
            inst = tracing.install(tracer)
        first_span = len(tracer.name) if trace_this else 0
        gc.collect()  # every pass starts from the same collector state
        instructions = counter.read()
        result = workload.run_pass(inputs, args.seed, args.workdir, trace_to)
        result.instructions = counter.read() - instructions
        if trace_this:
            inst.uninstall()
            metrics, foreign = collect(tracer, first_span, trace_to[0])
            traced.append((result, metrics))
            cli_spans.extend(foreign)
        else:
            passes.append(result)
        for op in result.ops:
            checker.check(op)
        k += 1

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "digests": checker.first,
        "passes": len(passes),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "jobs": getattr(workload, "jobs", 1),
        },
        "setup_s": statistics.median(setup_times),
        "setup_all_s": setup_times,
        "setup_instructions": statistics.median(setup_instructions),
        "wave_len_mean": wave_len,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_instructions": [p.instructions for p in passes],
        "ops": summarize_ops(passes),
        "extra": summarize_extra(passes),
        "peak_rss_mb": peak_rss_mb(passes),
    }
    if tracer is not None:
        out["layers"], out["exact_counts_repeat"] = summarize_traced(traced, passes)
        out["layers"]["adversaries.stream.wave_len_mean"] = wave_len
        out["layers"]["adversaries.generate.s"] = statistics.median(setup_generate)
        problems = check_actions(traced)
        if problems:
            checker.failed += 1
            out["failed"] = checker.failed
            out["problems"] += problems
        dump = os.path.join(os.path.dirname(args.workdir),
                            f"spans-{args.workload}-seed{args.seed}.npz")
        tracing.save(dump, tracing.merge([tracer.snapshot()] + cli_spans))
        out["spans_file"] = os.path.relpath(dump)
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def collect(tracer: tracing.Tracer, first: int, span_dir: str) -> tuple[dict, list]:
    """Per-layer totals of one traced pass, from its own spans and the CLI
    processes' files; also returns the stores read from those files."""
    own = tracer.snapshot(first)
    tracer.counters.clear()
    foreign = [tracing.load(os.path.join(span_dir, f)) for f in sorted(os.listdir(span_dir))]
    shutil.rmtree(span_dir, ignore_errors=True)
    return tracing.layer_metrics(tracing.merge([own] + foreign)), foreign


def summarize_ops(passes) -> dict:
    """Per operation name: median seconds and median work per second."""
    by_name: dict[str, list] = {}
    for p in passes:
        for op in p.ops:
            by_name.setdefault(op.name, []).append(op)
    out = {}
    for name, ops in by_name.items():
        out[name] = {
            "seconds": statistics.median(op.seconds for op in ops),
            "work": ops[0].work,
            "rate": statistics.median(op.work / op.seconds for op in ops if op.seconds > 0),
            "instructions": statistics.median(op.instructions for op in ops),
        }
    return out


def summarize_extra(passes) -> dict:
    keys = set().union(*(p.extra for p in passes)) if passes else set()
    return {k: statistics.median(p.extra[k] for p in passes if k in p.extra) for k in keys}


def summarize_traced(traced, untraced) -> tuple[dict, bool]:
    names = [n for n, _ in tracing.PER_LAYER]
    layers = {}
    repeat = True
    for name in names:
        values = [m.get(name, p.extra.get(name, 0)) for p, m in traced]
        if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
            repeat = False
        layers[name] = statistics.median(values) if values else 0
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    plain_wall = statistics.median(p.wall_s for p in untraced)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    # CLI runs whose spans no process returned (pool workers write theirs at exit)
    unseen = [p.extra.get("cli.run_rows", 0) - m.get("_run_single", 0) for p, m in traced]
    layers["trace.unseen_runs"] = max(unseen) if unseen else 0
    return layers, repeat


def check_actions(traced) -> list[str]:
    """The action mix must add up to one action per weighted arrival."""
    problems = []
    for _, m in traced:
        total = sum(m[f"algorithms.action.{a}"] for a in tracing.ACTIONS)
        if total != m["_arrivals_weighted"] or min(
            m[f"algorithms.action.{a}"] for a in tracing.ACTIONS
        ) < 0:
            problems.append(
                f"action mix {total} does not match {m['_arrivals_weighted']} arrivals"
            )
    return problems


if __name__ == "__main__":
    sys.exit(main())
