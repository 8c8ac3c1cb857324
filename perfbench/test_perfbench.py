"""The benchmark's own tests: toy-size passes through the real command.

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import hwcount
import run
import tracing

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def counter_problem() -> str:
    try:
        hwcount.InstructionCounter().close()
    except hwcount.CounterUnavailable as err:
        return str(err)
    return ""


# the benchmark itself needs the instruction counter; without it the command
# fails by design, so its runs are skipped rather than reported as failures
needs_counter = pytest.mark.skipif(bool(counter_problem()),
                                   reason=f"no instruction counter: {counter_problem()}")


def bench(*args: str, cwd: str = run.ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "toy", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 else {})


def checkout(tmp_path) -> str:
    """A copy of the files the benchmark runs from, outside the repo."""
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


def declared(kind: str) -> list[tuple[str, str]]:
    with open(BENCHMARK_JSON) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def test_benchmark_json_matches_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == tracing.PER_LAYER


@needs_counter
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_pass_prints_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = proc.stdout
    named = [(n, u) for n, u, _, _ in run.NAMED_RATES[workload]] + [
        ("error_rate", "0/")]
    for name, unit in run.END_TO_END + named:
        line = next(ln for ln in table.splitlines() if ln.split()[:1] == [name])
        assert unit in line


@needs_counter
@pytest.mark.parametrize("workload", ["gadget_replay", "cli_sweeps"])
def test_traced_toy_pass_reports_every_layer(workload):
    proc, result = bench("--workload", workload, "--seed", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(tracing.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unseen_runs"] == 0
    if workload == "gadget_replay":
        assert metrics["ptable.replay.calls"] > 0
        assert metrics["algorithms.action.assign_bad"] > 0
    else:
        assert metrics["diagnostics.enumerate.branches"] > 0
        assert metrics["core.rng_generator.calls"] > 0  # seen inside pool workers


@needs_counter
def test_tampered_digest_raises_the_error_rate(tmp_path):
    root = checkout(tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digests = tmp_path / "perfbench" / "digests.json"
    pinned = json.loads(digests.read_text())
    pinned["toy"]["random_large"]["0"]["alg1.result"] = "0" * 64
    digests.write_text(json.dumps(pinned))
    proc, result = bench("--workload", "random_large", "--seed", "0", cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"]
    assert result["failed"] > 0
    assert "alg1.result: digest differs from the pinned one" in proc.stdout


def test_fails_without_the_program(tmp_path):
    proc, _ = bench("--workload", "random_large", cwd=checkout(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_action_mix_matches_the_run_trace():
    """The action counts derived from spans agree with a kept run trace."""
    from collections import Counter

    from onlinecolor import adversaries, algorithms, core

    graph = adversaries.gen_random_graph(50, 8, 150, core.RngHandle(1))
    for runner, params in (
        ("run_alg1", core.derive_params(50, 8, eps=0.3)),
        ("run_alg2", core.derive_params(50, 8, eps=0.3, badness_threshold=2,
                                        dangerous_threshold=3)),
    ):
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
        try:
            result = getattr(algorithms, runner)(graph, params, core.RngHandle(1, 2), True)
        finally:
            inst.uninstall()
        metrics = tracing.layer_metrics(tracer.snapshot())
        want = Counter(rec.action for rec in result.trace.arrivals)
        assert want["mark_z"] or want["mark_bad"]
        for action in tracing.ACTIONS:
            assert metrics[f"algorithms.action.{action}"] == want.get(action, 0), action
