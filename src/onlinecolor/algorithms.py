"""The five online colorers.

* ``run_greedy``: first-fit on a growing backup palette, at most
  2*delta - 1 colors on any degree-delta stream.
* ``run_randomized_greedy``: uniform choice from the shared remaining
  palette; fails on an empty intersection.
* ``run_alg1``: weighted sampling from the maintained P values with the
  scale-up cap, safe against adaptive adversaries.  Arrivals whose weight
  sum exceeds 1, and bottom draws, are marked and sent to the backup
  palette.
* ``run_alg2``: the same plus badness accounting for oblivious streams;
  once an endpoint is bad its edges are colored by any remaining positive
  color (burning it for the neighbors) or marked outright.
* ``run_list_greedy``: uniform choice from each edge's own palette.

A single shared loop implements both weighted colorers, so with thresholds
no run can reach, their traces coincide draw for draw.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversaries import ArrivalStream, PublicHistory
from .core import (
    ALG,
    ColorRef,
    ColoringState,
    Edge,
    LIST,
    Params,
    RngHandle,
    StreamViolation,
    alg_color,
    greedy_assign,
)
from .diagnostics import ArrivalRecord, Metrics, RunTrace


@dataclass(frozen=True)
class Failure:
    index: int  # 1-based arrival index
    edge: Edge
    reason: str


@dataclass
class BadnessState:
    """Monotone counters behind the bad/dangerous vertex logic."""

    badness: dict[int, int] = field(default_factory=dict)
    baddeg: dict[int, int] = field(default_factory=dict)

    def is_bad(self, v: int, threshold: float) -> bool:
        return self.badness.get(v, 0) >= threshold

    def is_dangerous(self, v: int, threshold: float) -> bool:
        return self.baddeg.get(v, 0) >= threshold


@dataclass
class RunResult:
    """Outcome of one online run; byte-stable for fixed seeds."""

    algorithm: str
    state: ColoringState
    edges: list[Edge]
    marked: set[Edge]
    metrics: Metrics
    failures: list[Failure] = field(default_factory=list)
    badness: Optional[BadnessState] = None
    trace: Optional[RunTrace] = None

    @property
    def failure(self) -> Optional[Failure]:
        return self.failures[0] if self.failures else None

    @property
    def colored_edges(self) -> list[Edge]:
        return [e for e in self.edges if e in self.state.assignment]

    def result_lines(self) -> list[str]:
        """Stable textual form, used for byte-identity checks."""
        lines = [f"algorithm={self.algorithm}"]
        for e in self.edges:
            color = self.state.assignment.get(e)
            mark = " marked" if e in self.marked else ""
            lines.append(f"{e.u} {e.v} {color if color else 'none'}{mark}")
        for f in self.failures:
            lines.append(f"failure {f.index} {f.edge.u} {f.edge.v} {f.reason}")
        return lines


class _Audit:
    """Inline stream contract check: simple graph, degree at most delta."""

    def __init__(self, delta: int) -> None:
        self.delta = delta
        self.seen: set[Edge] = set()
        self.degree: defaultdict[int, int] = defaultdict(int)

    def check(self, e: Edge) -> None:
        if e in self.seen:
            raise StreamViolation(f"duplicate edge {e}")
        self.seen.add(e)
        for w in e:
            self.degree[w] += 1
            if self.degree[w] > self.delta:
                raise StreamViolation(f"degree of {w} exceeds delta={self.delta}")


def _marked_metrics(
    algorithm: str,
    stream: ArrivalStream,
    state: ColoringState,
    marked: set[Edge],
    failures: list[Failure],
    badness: Optional[BadnessState] = None,
    params: Optional[Params] = None,
) -> Metrics:
    marked_per_vertex: defaultdict[int, int] = defaultdict(int)
    for e in marked:
        marked_per_vertex[e.u] += 1
        marked_per_vertex[e.v] += 1
    max_marked = max(marked_per_vertex.values(), default=0)
    if algorithm in ("alg1", "alg2"):
        total = stream.delta + state.greedy_palette_size
    elif algorithm == "greedy":
        total = state.greedy_palette_size
    else:
        total = len({c for c in state.assignment.values()})
    m = Metrics(
        algorithm=algorithm,
        n=stream.n,
        delta=stream.delta,
        total_colors=total,
        greedy_palette_size=state.greedy_palette_size,
        marked_per_vertex=dict(marked_per_vertex),
        max_marked_degree=max_marked,
        failure_count=len(failures),
    )
    if badness is not None and params is not None:
        m.badness_final = dict(badness.badness)
        m.baddeg_final = dict(badness.baddeg)
        m.bad_vertex_count = sum(
            1 for v in badness.badness if badness.is_bad(v, params.badness_threshold)
        )
        m.dangerous_vertex_count = sum(
            1
            for v in badness.baddeg
            if badness.is_dangerous(v, params.dangerous_threshold)
        )
    return m


def run_greedy(stream: ArrivalStream) -> RunResult:
    """First-fit backup-palette coloring of the whole stream."""
    state = ColoringState()
    audit = _Audit(stream.delta)
    history = PublicHistory()
    edges: list[Edge] = []
    for arrival in stream.play(history):
        e = arrival.edge
        audit.check(e)
        edges.append(e)
        greedy_assign(state, e)
        history.append(e, state.assignment[e])
    marked = set(edges)
    metrics = _marked_metrics("greedy", stream, state, marked, [])
    return RunResult("greedy", state, edges, marked, metrics)


def run_randomized_greedy(
    stream: ArrivalStream,
    palette_size: int,
    rng: RngHandle,
    continue_after_failure: bool = False,
) -> RunResult:
    """Uniformly random color from the endpoints' shared remaining palette."""
    if palette_size < 1:
        raise ValueError("palette_size must be >= 1")
    gen = rng.generator()
    state = ColoringState()
    audit = _Audit(stream.delta)
    history = PublicHistory()
    edges: list[Edge] = []
    failures: list[Failure] = []
    palettes: defaultdict[int, set[int]] = defaultdict(
        lambda: set(range(1, palette_size + 1))
    )
    for t, arrival in enumerate(stream.play(history), 1):
        e = arrival.edge
        audit.check(e)
        edges.append(e)
        avail = sorted(palettes[e.u] & palettes[e.v])
        if not avail:
            failures.append(Failure(t, e, "empty_palette_intersection"))
            history.append(e, None)
            if continue_after_failure:
                continue
            break
        c = avail[int(gen.integers(len(avail)))]
        palettes[e.u].discard(c)
        palettes[e.v].discard(c)
        state.assign(e, alg_color(c))
        history.append(e, state.assignment[e])
    metrics = _marked_metrics("randgreedy", stream, state, set(), failures)
    return RunResult("randgreedy", state, edges, set(), metrics, failures)


def run_list_greedy(
    stream: ArrivalStream,
    rng: RngHandle,
    continue_after_failure: bool = False,
) -> RunResult:
    """Uniformly random available color from each edge's own palette."""
    gen = rng.generator()
    state = ColoringState()
    audit = _Audit(stream.delta)
    history = PublicHistory()
    edges: list[Edge] = []
    failures: list[Failure] = []
    for t, arrival in enumerate(stream.play(history), 1):
        e = arrival.edge
        if arrival.palette is None or not arrival.palette:
            raise ValueError(f"arrival {e} carries no palette")
        audit.check(e)
        edges.append(e)
        used = state.used_list
        avail = sorted(set(arrival.palette) - used[e.u] - used[e.v])
        if not avail:
            failures.append(Failure(t, e, "palette_blocked"))
            history.append(e, None)
            if continue_after_failure:
                continue
            break
        c = avail[int(gen.integers(len(avail)))]
        state.assign(e, ColorRef(LIST, c))
        history.append(e, state.assignment[e])
    metrics = _marked_metrics("listgreedy", stream, state, set(), failures)
    return RunResult("listgreedy", state, edges, set(), metrics, failures)


def run_alg1(
    stream: ArrivalStream,
    params: Params,
    rng: RngHandle,
    keep_trace: bool = False,
) -> RunResult:
    """Weighted-sampling colorer, safe against adaptive adversaries."""
    return _run_weighted(stream, params, rng, badness_logic=False, keep_trace=keep_trace)


def run_alg2(
    stream: ArrivalStream,
    params: Params,
    rng: RngHandle,
    keep_trace: bool = False,
) -> RunResult:
    """Weighted-sampling colorer with bad-vertex handling (oblivious streams)."""
    return _run_weighted(stream, params, rng, badness_logic=True, keep_trace=keep_trace)


def _run_weighted(
    stream: ArrivalStream,
    params: Params,
    rng: RngHandle,
    badness_logic: bool,
    keep_trace: bool,
) -> RunResult:
    from .ptable import PTable  # local import keeps module load cheap

    params.require_valid()
    if stream.delta != params.delta:
        raise StreamViolation(
            f"stream delta {stream.delta} != params delta {params.delta}"
        )
    gen = rng.generator()
    table = PTable(params)
    state = ColoringState()
    audit = _Audit(stream.delta)
    history = PublicHistory()
    badness = BadnessState()
    marked: set[Edge] = set()
    edges: list[Edge] = []
    trace = RunTrace(params, table) if keep_trace else None
    algorithm = "alg2" if badness_logic else "alg1"

    for t, arrival in enumerate(stream.play(history), 1):
        e = arrival.edge
        audit.check(e)
        edges.append(e)
        u_bad = v_bad = False
        if badness_logic:
            # an arrival joining a currently-bad endpoint counts toward the
            # other endpoint's baddeg, before any branching on this arrival
            u_bad = badness.is_bad(e.u, params.badness_threshold)
            v_bad = badness.is_bad(e.v, params.badness_threshold)
            if v_bad:
                badness.baddeg[e.u] = badness.baddeg.get(e.u, 0) + 1
            if u_bad:
                badness.baddeg[e.v] = badness.baddeg.get(e.v, 0) + 1

        pvec = table.reconstruct(e)

        if badness_logic and (u_bad or v_bad):
            dangerous = badness.is_dangerous(
                e.u, params.dangerous_threshold
            ) or badness.is_dangerous(e.v, params.dangerous_threshold)
            if dangerous or not np.any(pvec > 0.0):
                marked.add(e)
                greedy_assign(state, e)  # badness does not move on this branch
                action, color = "mark_bad", None
            else:
                color = int(np.flatnonzero(pvec > 0.0)[0]) + 1
                state.assign(e, alg_color(color))
                table.record_burn(t, e, color)
                action = "assign_bad"
            z = float(np.cumsum(pvec)[-1])
        else:
            cdf = np.cumsum(pvec)
            z = float(cdf[-1])
            if z > 1.0:
                marked.add(e)
                greedy_assign(state, e)
                action, color = "mark_z", None
                if badness_logic:
                    badness.badness[e.u] = badness.badness.get(e.u, 0) + 1
                    badness.badness[e.v] = badness.badness.get(e.v, 0) + 1
            else:
                draw = gen.random()
                idx = int(np.searchsorted(cdf, draw, side="right"))
                color = idx + 1 if idx < params.delta else None
                table.record_sample(t, e, pvec, color)
                if color is not None:
                    state.assign(e, alg_color(color))
                    action = "assign"
                else:
                    marked.add(e)
                    greedy_assign(state, e)
                    action = "mark_bot"
                    if badness_logic:
                        badness.badness[e.u] = badness.badness.get(e.u, 0) + 1
                        badness.badness[e.v] = badness.badness.get(e.v, 0) + 1

        if trace is not None:
            trace.arrivals.append(
                ArrivalRecord(t, e, action, z, color, pvec, u_bad, v_bad)
            )
        history.append(e, state.assignment[e])

    metrics = _marked_metrics(
        algorithm, stream, state, marked, [],
        badness if badness_logic else None, params,
    )
    return RunResult(
        algorithm,
        state,
        edges,
        marked,
        metrics,
        badness=badness if badness_logic else None,
        trace=trace,
    )

