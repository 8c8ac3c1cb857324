"""Per-vertex event logs holding every P value lazily, plus a dense eager twin.

The pseudocode of the weighted colorers updates P for every potential future
edge touching each arrival, which materialized would cost O(n^2 * delta)
memory.  Since the value P_{fc} depends only on the arrivals incident to f's
two endpoints, applied in time order, it suffices to log one event per
arrival at each endpoint and replay the merged logs on demand.

Replay semantics per event, in pseudocode order:

* sample(pvec, color): zero the chosen color (unless the draw was bottom),
  then multiply every other color whose current value is <= cap by
  1 / (1 - pvec[c]).  The cap comparison is an exact <=, no epsilon.
* burn(color): zero that single color, no compensating scale-up.

Arrivals rejected because their weight sum exceeded 1 record no event at all.
When the draw was bottom every color scales (subject to the cap).

A per-vertex cumulative product makes the common reconstruct O(delta): the
zero and scale rules commute across endpoints as elementwise multiplications,
and a monotone scale-only envelope certifies that the cap never interfered.
Whenever the envelope comes near the cap we fall back to the exact merged
replay.

When only one endpoint of the edge has a log, the merged log is that log
alone, so its exact replay is the same for every such edge at that vertex.
``PTable`` keeps that row per vertex together with the number of events
already applied, and a later call applies only the events logged since.
The cached row equals a from-scratch replay byte for byte because the same
``apply_event`` calls run in the same order on the same starting row.  This
holds only while:

* logs are append-only and in time order (``_append`` enforces it);
* ``cap`` does not change after the first ``reconstruct``;
* ``reconstruct_at`` always replays from scratch, so it may see a different
  ``cap`` or a prefix of the log without touching the cache.

Edges with both endpoints logged always replay the merged logs from scratch.

``DenseOracle`` is an independent eager implementation over an explicit
(potential edge, color) matrix, kept only for differential testing.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import Edge, Params

SAMPLE = "sample"
BURN = "burn"

# Fast path is taken only when the envelope clears the cap by this margin,
# so float rounding can never disagree with the exact replay about (star).
_SCREEN_MARGIN = 1.0 - 1e-9


class VertexEvent(NamedTuple):
    """One arrival as seen from one endpoint.

    For samples ``pvec`` is the arriving edge's own P row (length delta) and
    ``color`` the drawn palette index, None for bottom.  For burns ``color``
    is the burned index and ``pvec`` is None.  ``mult`` and ``scale`` are
    per-color multipliers precomputed once at record time: ``mult`` embeds
    the zero rule, ``scale`` is the scale-only row used by the cap screen.
    """

    time: int
    kind: str
    pvec: Optional[np.ndarray]
    color: Optional[int]
    mult: np.ndarray
    scale: np.ndarray


class PTable:
    """Lazy store of all P values for one run; single writer, many readers."""

    def __init__(self, params: Params) -> None:
        self.params = params
        self.delta = params.delta
        self.cap = params.cap
        self.p0 = params.p0
        self.logs: dict[int, list[VertexEvent]] = {}
        self._cp: dict[int, np.ndarray] = {}
        self._env: dict[int, np.ndarray] = {}
        self._ones = np.ones(self.delta)
        self._last_time = 0
        # vertex -> (exact row of its log alone, events of the log applied)
        self._rows: dict[int, tuple[np.ndarray, int]] = {}

    # -- recording ---------------------------------------------------------

    def record_sample(
        self, t: int, e: Edge, pvec: np.ndarray, color: Optional[int]
    ) -> None:
        """Log the arrival of e at time t at both endpoints.

        Caller guarantees sum(pvec) <= 1; arrivals beyond that record nothing.
        """
        with np.errstate(divide="ignore"):
            scale = 1.0 / (1.0 - pvec)
        if color is not None:
            scale[color - 1] = 1.0  # chosen color is exempt from scaling
            mult = scale.copy()
            mult[color - 1] = 0.0
        else:
            mult = scale
        event = VertexEvent(t, SAMPLE, pvec, color, mult, scale)
        self._append(e, event)

    def record_burn(self, t: int, e: Edge, color: int) -> None:
        """Log a burn of one color at both endpoints: zero, no scale-up."""
        mult = self._ones.copy()
        mult[color - 1] = 0.0
        event = VertexEvent(t, BURN, None, color, mult, self._ones)
        self._append(e, event)

    def _append(self, e: Edge, event: VertexEvent) -> None:
        if event.time <= self._last_time:
            raise ValueError(
                f"events must arrive in time order: {event.time} after {self._last_time}"
            )
        self._last_time = event.time
        for w in (e.u, e.v):
            self.logs.setdefault(w, []).append(event)
            cp = self._cp.get(w)
            if cp is None:
                self._cp[w] = event.mult.copy()
                self._env[w] = event.scale.copy()
            else:
                cp *= event.mult
                self._env[w] *= event.scale

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, e: Edge) -> np.ndarray:
        """Current P row of the not-yet-arrived edge e, length delta."""
        cp_u = self._cp.get(e.u)
        cp_v = self._cp.get(e.v)
        if cp_u is None and cp_v is None:
            return np.full(self.delta, self.p0)
        if cp_u is None or cp_v is None:
            w, cp = (e.u, cp_u) if cp_v is None else (e.v, cp_v)
            env = self._env[w]
        else:
            w = None
            env = self._env[e.u] * self._env[e.v]
            cp = cp_u * cp_v
        if np.all(self.p0 * env <= self.cap * _SCREEN_MARGIN):
            return self.p0 * cp
        return self._replay(e) if w is None else self._replay_one_sided(w)

    def reconstruct_at(self, e: Edge, t: int) -> np.ndarray:
        """P row of e as of time t (events with time <= t applied)."""
        return self._replay(e, upto=t)

    def z_value(self, e: Edge) -> float:
        """Sum of the P row, accumulated in ascending color order."""
        p = self.reconstruct(e)
        return float(np.cumsum(p)[-1]) if self.delta else 0.0

    def _replay(self, e: Edge, upto: Optional[int] = None) -> np.ndarray:
        p = np.full(self.delta, self.p0)
        for event in self._merged(e, upto):
            apply_event(p, event, self.cap)
        return p

    def _replay_one_sided(self, w: int) -> np.ndarray:
        """Exact row of an edge whose only logged endpoint is w.

        Advances w's cached row through the events logged since the last
        call and returns a copy, so the caller may keep or write the row.
        Valid under the conditions in the module docstring: w's log only
        grows, in time order, and ``cap`` is fixed.
        """
        log = self.logs[w]
        row, done = self._rows.get(w, (None, 0))
        if row is None:
            row = np.full(self.delta, self.p0)
        for event in log[done:]:
            apply_event(row, event, self.cap)
        self._rows[w] = (row, len(log))
        return row.copy()

    def _merged(self, e: Edge, upto: Optional[int] = None) -> Iterable[VertexEvent]:
        log_u = self.logs.get(e.u, ())
        log_v = self.logs.get(e.v, ())
        i = j = 0
        while i < len(log_u) or j < len(log_v):
            if j >= len(log_v) or (i < len(log_u) and log_u[i].time < log_v[j].time):
                event = log_u[i]
                i += 1
            else:
                event = log_v[j]
                j += 1
            if upto is not None and event.time > upto:
                return
            yield event

    # -- debugging aids ----------------------------------------------------

    def trace_lines(self) -> list[str]:
        """Line-oriented dump `t,vertex,kind,color,chosen` (not load-bearing)."""
        lines = []
        for vertex in sorted(self.logs):
            for ev in self.logs[vertex]:
                if ev.kind == BURN:
                    lines.append(f"{ev.time},{vertex},burn,{ev.color},")
                else:
                    chosen = "bot" if ev.color is None else str(ev.color)
                    lines.append(f"{ev.time},{vertex},sample,,{chosen}")
        lines.sort(key=lambda s: (int(s.split(",", 1)[0]), s))
        return lines


def apply_event(p: np.ndarray, event: VertexEvent, cap: float) -> None:
    """Apply one event to a P row in place, exact pseudocode order."""
    if event.kind == BURN:
        p[event.color - 1] = 0.0
        return
    if event.color is not None:
        p[event.color - 1] = 0.0
    np.multiply(p, event.scale, out=p, where=p <= cap)


class DenseOracle:
    """Eager O(n^2 * delta) twin of PTable, for differential testing only.

    Keeps an explicit row per vertex pair and applies the pseudocode update
    on every record, using its own stored values (division, not precomputed
    reciprocals) so that agreement with the lazy table is meaningful.
    """

    def __init__(self, params: Params, n: int) -> None:
        self.params = params
        self.n = n
        self.delta = params.delta
        self.cap = params.cap
        self.rows: dict[Edge, np.ndarray] = {
            Edge(u, v): np.full(params.delta, params.p0)
            for u in range(n)
            for v in range(u + 1, n)
        }
        self.arrived: set[Edge] = set()

    def _incident_future(self, e: Edge) -> Iterable[Edge]:
        for f in self.rows:
            if f != e and f not in self.arrived and (e.u in f or e.v in f):
                yield f

    def record_sample(self, t: int, e: Edge, pvec: np.ndarray, color: Optional[int]) -> None:
        row_e = self.rows[e].copy()
        self.arrived.add(e)
        for f in self._incident_future(e):
            row = self.rows[f]
            if color is not None:
                row[color - 1] = 0.0
            for c in range(self.delta):
                if color is not None and c == color - 1:
                    continue
                if row[c] <= self.cap:
                    row[c] = row[c] / (1.0 - row_e[c])

    def record_burn(self, t: int, e: Edge, color: int) -> None:
        self.arrived.add(e)
        for f in self._incident_future(e):
            self.rows[f][color - 1] = 0.0

    def reconstruct(self, e: Edge) -> np.ndarray:
        return self.rows[e].copy()

    def z_value(self, e: Edge) -> float:
        return float(np.cumsum(self.rows[e])[-1]) if self.delta else 0.0
