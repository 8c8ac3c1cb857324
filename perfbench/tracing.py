"""Span tracing around the public functions of each onlinecolor module.

The layers are the package's modules: adversaries, ptable, algorithms, core,
diagnostics and cli; every span name starts with its layer.

The wrappers live here, in the benchmark, not in the package: ``install``
patches module attributes and class methods for the duration of a traced
pass and ``uninstall`` puts the originals back.  Each span records its name,
start, end, parent span and run id (the pass it belongs to).  Spans are kept
in memory in flat arrays and written out once, when the run ends.

Processes started from a traced process (the CLI and its fork-started pool
workers) inherit the wrappers.  A forked worker starts an empty store and
writes it to ``<PERFBENCH_SPAN_DIR>/spans-<pid>.npz`` when it exits, so the
parent can merge what the workers saw.
"""
from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

import numpy as np

COLORERS = ("greedy", "randgreedy", "alg1", "alg2", "listgreedy")
ACTIONS = ("assign", "mark_z", "mark_bot", "assign_bad", "mark_bad")

# The per-layer metrics a traced run reports, with their units.  Every
# workload reports all of them; a layer a workload does not exercise reads 0.
PER_LAYER = [
    ("adversaries.generate.s", "s"),
    ("adversaries.stream.wave_len_mean", "arrivals"),
    ("adversaries.biastree.run_s", "s"),
    ("adversaries.biastree.node_steps", "count"),
    ("ptable.reconstruct.calls", "count"),
    ("ptable.reconstruct.self_s", "s"),
    ("ptable.replay.calls", "count"),
    ("ptable.replay.share", "ratio"),
    ("ptable.replay.events", "count"),
    ("ptable.replay.s", "s"),
    ("ptable.reconstruct_at.calls", "count"),
    ("ptable.reconstruct_at.events", "count"),
    ("ptable.reconstruct_at.s", "s"),
    ("ptable.record_sample.calls", "count"),
    ("ptable.record_sample.s", "s"),
    ("ptable.record_burn.calls", "count"),
    ("ptable.record_burn.s", "s"),
    ("ptable.log_bytes", "bytes"),
]
for _c in COLORERS:
    PER_LAYER += [(f"algorithms.{_c}.s", "s"), (f"algorithms.{_c}.self_us_per_edge", "us")]
PER_LAYER += [(f"algorithms.action.{_a}", "count") for _a in ACTIONS]
PER_LAYER += [
    ("core.greedy_assign.calls", "count"),
    ("core.greedy_assign.s", "s"),
    ("core.validate.s", "s"),
    ("core.validate.edges", "count"),
    ("core.rng_generator.calls", "count"),
    ("core.rng_generator.s", "s"),
    ("diagnostics.trajectory.s", "s"),
    ("diagnostics.scaling_factors.s", "s"),
    ("diagnostics.enumerate.branches", "count"),
    ("diagnostics.enumerate.s", "s"),
    ("cli.sweep_mc.wall_s", "s"),
    ("cli.sweep_biastree.wall_s", "s"),
    ("cli.enumerate.wall_s", "s"),
    ("cli.worker_busy_s", "s"),
    ("cli.pool_efficiency", "ratio"),
    ("cli.rows_written", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.unseen_runs", "count"),
]

# metrics that are counts of the program's own work: they must repeat exactly
EXACT_COUNTS = [
    "ptable.reconstruct.calls",
    "ptable.replay.calls",
    "ptable.replay.events",
    "ptable.reconstruct_at.calls",
    "ptable.record_sample.calls",
    "ptable.record_burn.calls",
    "ptable.log_bytes",
    "core.greedy_assign.calls",
    "core.validate.edges",
    "core.rng_generator.calls",
    "diagnostics.enumerate.branches",
    "cli.rows_written",
] + [f"algorithms.action.{a}" for a in ACTIONS]


class Tracer:
    """Flat in-memory span store; one per process."""

    def __init__(self, run_id: int = 0) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run_id = run_id
        self.tables: dict[int, object] = {}  # PTables of the open colorer span
        self.clear()

    def clear(self) -> None:
        """Drop every span and counter; name ids stay valid."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def previous_sibling(self) -> int:
        """Name id of the last span begun under the open span, or -1."""
        top = self.stack[-1] if self.stack else -1
        for i in range(len(self.name) - 1, top, -1):
            if self.parent[i] == top:
                return self.name[i]
        return -1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- output --------------------------------------------------------------

    def snapshot(self, first: int = 0) -> dict:
        """Spans from index ``first`` on, with their parents renumbered to match,
        plus the names and the counters: a store ``save`` and ``merge`` take."""
        parent = np.array(self.parent[first:], dtype=np.int32)
        return {
            "name": np.array(self.name[first:], dtype=np.int32),
            "start": np.array(self.start[first:], dtype=np.float64),
            "end": np.array(self.end[first:], dtype=np.float64),
            "parent": np.where(parent >= first, parent - first, -1).astype(np.int32),
            "run": np.array(self.run[first:], dtype=np.int32),
            "names": list(self.names),
            "counters": dict(self.counters),
        }

    def dump(self, path: str) -> None:
        save(path, self.snapshot())

    def _after_fork(self) -> None:
        """In a forked worker: start empty and write the spans at exit."""
        from multiprocessing import util

        self.clear()
        span_dir = os.environ.get("PERFBENCH_SPAN_DIR")
        if span_dir:
            path = os.path.join(span_dir, f"spans-{os.getpid()}.npz")
            util.Finalize(self, self.dump, args=(path,), exitpriority=10)


def save(path: str, spans: dict) -> None:
    """Write a span store (arrays plus ``names`` and ``counters``) as .npz."""
    np.savez(
        path,
        names=np.array(json.dumps(list(spans["names"]))),
        counters=np.array(json.dumps(spans["counters"])),
        **{k: spans[k] for k in ("name", "start", "end", "parent", "run")},
    )


def load(path: str) -> dict:
    with np.load(path) as data:
        out = {k: data[k] for k in ("name", "start", "end", "parent", "run")}
        out["names"] = json.loads(str(data["names"]))
        out["counters"] = json.loads(str(data["counters"]))
    return out


# -- wrappers ------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    if before is None and after is None:
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
    else:
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                after(args, kwargs, out)
            return out

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """The patches of one ``install`` call, undone by ``uninstall``."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def install(tracer: Tracer, cli_module: bool = False) -> Installation:
    """Wrap the public functions of every layer; returns the undo handle."""
    from onlinecolor import adversaries, algorithms, core, diagnostics, ptable

    inst = Installation()

    def wrap_attr(owner, attr, name, before=None, after=None):
        inst.patch(owner, attr, _wrap(tracer, name, owner.__dict__[attr], before, after))

    # adversaries: instance generators and the bias-tree simulation
    for gen in ("gen_random_graph", "gen_gadget_farm", "gen_list_lb_randomized",
                "gen_two_star_bridge", "oblivious_stream", "read_instance"):
        wrap_attr(adversaries, gen, "adversaries.generate")

    def note_biastree(args, kwargs, out):
        cfg = args[0].config
        tracer.count("adversaries.biastree.node_steps",
                     cfg.pool_size * (cfg.delta - 1) * (cfg.layers - 1))

    wrap_attr(adversaries.BiasTreeExperiment, "run", "adversaries.biastree",
              after=note_biastree)

    # ptable
    def note_sample(args, kwargs, out):
        color = args[4] if len(args) > 4 else kwargs.get("color")
        if color is None:
            tracer.count("ptable.record_sample.bot")

    def note_table(args, kwargs, out):
        tracer.tables[id(args[0])] = args[0]

    wrap_attr(ptable.PTable, "reconstruct", "ptable.reconstruct")
    wrap_attr(ptable.PTable, "reconstruct_at", "ptable.reconstruct_at")
    wrap_attr(ptable.PTable, "record_sample", "ptable.record_sample",
              after=lambda a, k, o: (note_sample(a, k, o), note_table(a, k, o)))
    wrap_attr(ptable.PTable, "record_burn", "ptable.record_burn", after=note_table)
    wrap_attr(ptable, "apply_event", "ptable.apply_event")

    # algorithms: the five colorers, plus the bad-vertex test that tells the
    # alg2 bad branch apart: it is asked right after the arrival's reconstruct
    reconstruct_id = tracer.name_id("ptable.reconstruct")

    def note_dangerous(args, kwargs):
        if tracer.previous_sibling() == reconstruct_id:
            tracer.count("algorithms.bad_arrivals")

    def note_tables(args, kwargs, out):
        total = 0
        for table in tracer.tables.values():
            total += log_bytes(table)
        tracer.tables.clear()
        tracer.count("ptable.log_bytes", total)
        tracer.count(f"algorithms.edges.{out.algorithm}", len(out.edges))

    for colorer, fn in (("greedy", "run_greedy"), ("randgreedy", "run_randomized_greedy"),
                        ("alg1", "run_alg1"), ("alg2", "run_alg2"),
                        ("listgreedy", "run_list_greedy")):
        wrap_attr(algorithms, fn, f"algorithms.{colorer}", after=note_tables)
    wrap_attr(algorithms.BadnessState, "is_dangerous", "algorithms.is_dangerous",
              before=note_dangerous)

    # core: the greedy fallback is imported by name into algorithms
    greedy = _wrap(tracer, "core.greedy_assign", core.greedy_assign)
    inst.patch(core, "greedy_assign", greedy)
    inst.patch(algorithms, "greedy_assign", greedy)

    def note_validate(args, kwargs):
        edges = args[0]
        tracer.count("core.validate.edges", len(edges))

    validate = _wrap(tracer, "core.validate", core.validate_coloring, before=note_validate)
    inst.patch(core, "validate_coloring", validate)
    wrap_attr(core.RngHandle, "generator", "core.rng_generator")

    # diagnostics
    wrap_attr(diagnostics, "compute_trajectory", "diagnostics.trajectory")
    wrap_attr(diagnostics, "compute_scaling_factors", "diagnostics.scaling_factors")

    def note_enum(args, kwargs, out):
        tracer.count("diagnostics.enumerate.branches", out.branches)

    wrap_attr(diagnostics, "enumerate_exact", "diagnostics.enumerate", after=note_enum)

    if cli_module:
        from onlinecolor import cli

        inst.patch(cli, "validate_coloring", validate)
        wrap_attr(cli, "run_single", "cli.run_single")
        for cmd in ("cmd_run", "cmd_sweep", "cmd_enumerate"):
            wrap_attr(cli, cmd, "cli.command")
    return inst


def log_bytes(table) -> int:
    """Bytes of the arrays a PTable's event logs hold, each array once."""
    seen: set[int] = set()
    total = 0
    for events in table.logs.values():
        for ev in events:
            for arr in (ev.pvec, ev.mult, ev.scale):
                if arr is not None and id(arr) not in seen:
                    seen.add(id(arr))
                    total += arr.nbytes
    return total


# -- per-layer metrics -----------------------------------------------------------


def merge(stores: list[dict]) -> dict:
    """Concatenate span stores of several processes into one name space."""
    ids: dict[str, int] = {}
    cols = {k: [] for k in ("name", "start", "end", "parent", "run")}
    counters: dict[str, float] = {}
    offset = 0
    for store in stores:
        remap = np.array(
            [ids.setdefault(n, len(ids)) for n in store["names"]] or [0], dtype=np.int32
        )
        cols["name"].append(remap[store["name"]] if len(store["name"]) else store["name"])
        parent = store["parent"].astype(np.int64)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        for k in ("start", "end", "run"):
            cols[k].append(store[k])
        for k, v in store["counters"].items():
            counters[k] = counters.get(k, 0) + v
        offset += len(store["name"])
    out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    out["names"] = sorted(ids, key=ids.get)
    out["counters"] = counters
    return out


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer totals of one pass from its merged spans and counters."""
    names = spans["names"]
    nid = {n: i for i, n in enumerate(names)}
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    count = len(name)
    has_parent = parent >= 0

    def mask(n: str) -> np.ndarray:
        return name == nid[n] if n in nid else np.zeros(count, dtype=bool)

    def child_sum(child_mask: np.ndarray) -> np.ndarray:
        sel = has_parent & child_mask
        return np.bincount(parent[sel], weights=dur[sel], minlength=count)

    def child_count(child_mask: np.ndarray) -> np.ndarray:
        sel = has_parent & child_mask
        return np.bincount(parent[sel], minlength=count)

    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    all_children = child_sum(np.ones(count, dtype=bool))
    self_s = dur - all_children
    c = spans["counters"]
    m: dict[str, float] = {}

    gen = mask("adversaries.generate")
    top = gen & ~(has_parent & np.isin(parent, np.flatnonzero(gen)))
    m["adversaries.generate.s"] = float(dur[top].sum())
    m["adversaries.biastree.run_s"] = float(dur[mask("adversaries.biastree")].sum())
    m["adversaries.biastree.node_steps"] = c.get("adversaries.biastree.node_steps", 0)

    apply_children = child_count(mask("ptable.apply_event"))
    rec = mask("ptable.reconstruct")
    replay = rec & (apply_children > 0)
    m["ptable.reconstruct.calls"] = int(rec.sum())
    m["ptable.reconstruct.self_s"] = float(self_s[rec].sum())
    m["ptable.replay.calls"] = int(replay.sum())
    m["ptable.replay.share"] = m["ptable.replay.calls"] / max(m["ptable.reconstruct.calls"], 1)
    m["ptable.replay.events"] = int(apply_children[replay].sum())
    m["ptable.replay.s"] = float(dur[replay].sum())
    rat = mask("ptable.reconstruct_at")
    m["ptable.reconstruct_at.calls"] = int(rat.sum())
    m["ptable.reconstruct_at.events"] = int(apply_children[rat].sum())
    m["ptable.reconstruct_at.s"] = float(dur[rat].sum())
    for rec_name in ("record_sample", "record_burn"):
        sel = mask(f"ptable.{rec_name}")
        m[f"ptable.{rec_name}.calls"] = int(sel.sum())
        m[f"ptable.{rec_name}.s"] = float(dur[sel].sum())
    m["ptable.log_bytes"] = c.get("ptable.log_bytes", 0)

    lower = np.isin(layer_of, ["ptable", "core"])[name] if count else np.zeros(0, bool)
    lower_children = child_sum(lower)
    for colorer in COLORERS:
        sel = mask(f"algorithms.{colorer}")
        edges = c.get(f"algorithms.edges.{colorer}", 0)
        m[f"algorithms.{colorer}.s"] = float(dur[sel].sum())
        own = float((dur[sel] - lower_children[sel]).sum())
        m[f"algorithms.{colorer}.self_us_per_edge"] = own / edges * 1e6 if edges else 0.0

    weighted = mask("algorithms.alg1") | mask("algorithms.alg2")
    under_weighted = has_parent & np.isin(parent, np.flatnonzero(weighted))
    arrivals = int((rec & under_weighted).sum())
    greedy_weighted = int((mask("core.greedy_assign") & under_weighted).sum())
    samples = m["ptable.record_sample.calls"]
    bots = c.get("ptable.record_sample.bot", 0)
    bad = c.get("algorithms.bad_arrivals", 0)
    actions = {
        "assign": samples - bots,
        "mark_bot": bots,
        "assign_bad": m["ptable.record_burn.calls"],
        "mark_bad": bad - m["ptable.record_burn.calls"],
    }
    actions["mark_z"] = greedy_weighted - bots - actions["mark_bad"]
    for a in ACTIONS:
        m[f"algorithms.action.{a}"] = int(actions[a])
    m["_arrivals_weighted"] = arrivals

    greedy = mask("core.greedy_assign")
    m["core.greedy_assign.calls"] = int(greedy.sum())
    m["core.greedy_assign.s"] = float(dur[greedy].sum())
    val = mask("core.validate")
    m["core.validate.s"] = float(dur[val].sum())
    m["core.validate.edges"] = c.get("core.validate.edges", 0)
    rng = mask("core.rng_generator")
    m["core.rng_generator.calls"] = int(rng.sum())
    m["core.rng_generator.s"] = float(dur[rng].sum())

    m["diagnostics.trajectory.s"] = float(dur[mask("diagnostics.trajectory")].sum())
    m["diagnostics.scaling_factors.s"] = float(dur[mask("diagnostics.scaling_factors")].sum())
    m["diagnostics.enumerate.branches"] = c.get("diagnostics.enumerate.branches", 0)
    m["diagnostics.enumerate.s"] = float(dur[mask("diagnostics.enumerate")].sum())
    m["_run_single"] = int(mask("cli.run_single").sum())
    m["trace.spans"] = count
    return m
