"""Shared domain types: edges, color references, parameters, coloring state, RNG.

Everything downstream (the colorers, the P-value tables, the diagnostics)
builds on the types in this module.  Parameters follow the standard
derivations: eps = c_eps * (ln n / delta)^(1/16) against adaptive adversaries,
eps = c_eps * (sqrt(ln n) / delta)^(1/16) against oblivious ones,
cap = c_A / (eps^2 * delta), alpha = eps^3 / 100.  At desk scale the derived
eps usually exceeds 1, so explicit overrides are first-class citizens.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

C_EPS = 10
C_A = 4
C_K = 35 * C_A * C_A  # 560

ADAPTIVE = "adaptive"
OBLIVIOUS = "oblivious"

ALG = "alg"
GREEDY = "greedy"
LIST = "list"


class InvalidParams(ValueError):
    """Parameter set unusable (eps outside (0,1), nonpositive cap, ...)."""


class StreamViolation(ValueError):
    """Arrival stream broke its contract (self loop, duplicate, degree > delta)."""


class GenerationFailure(RuntimeError):
    """Instance generator exhausted its retry budget."""


class PoolExhaustion(RuntimeError):
    """Bias-tree layer-0 filter accepted nothing within the retry budget."""


class BudgetExceeded(RuntimeError):
    """Exact enumeration outgrew its branch budget."""


class TraceMissing(RuntimeError):
    """A diagnostic was requested but the run kept no trace."""


class Edge(NamedTuple):
    """Undirected edge, stored canonically with u < v."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise StreamViolation(f"self loop at vertex {a}")
        return cls(a, b) if a < b else cls(b, a)

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def touches(self, other: "Edge") -> bool:
        return self.u in other or self.v in other


class ColorRef(NamedTuple):
    """A color from one of the palettes.

    ``alg`` indices live in [1, delta] for the weighted colorers; ``greedy``
    indices form a contiguous prefix 1..palette_size; ``list`` colors are the
    opaque ids of list-edge-coloring instances.
    """

    palette: str
    index: int

    def __str__(self) -> str:
        return f"{self.palette}:{self.index}"


def alg_color(index: int) -> ColorRef:
    return ColorRef(ALG, index)


def greedy_color(index: int) -> ColorRef:
    return ColorRef(GREEDY, index)


def parse_color(text: str) -> ColorRef:
    palette, _, idx = text.partition(":")
    if palette not in (ALG, GREEDY, LIST) or not idx:
        raise ValueError(f"bad color literal {text!r}")
    return ColorRef(palette, int(idx))


@dataclass(frozen=True)
class Params:
    """All run parameters, derived or overridden.

    ``valid`` is False when the no-override derivation landed outside (0,1);
    the weighted colorers refuse to run on invalid parameter sets.
    """

    n: int
    delta: int
    eps: float
    cap: float
    alpha: float
    badness_threshold: float
    dangerous_threshold: float
    mode: str = ADAPTIVE
    valid: bool = True
    c_eps: int = C_EPS
    c_a: int = C_A
    c_k: int = C_K

    @property
    def p0(self) -> float:
        """Initial per-color weight (1 - eps) / delta."""
        return (1.0 - self.eps) / self.delta

    def require_valid(self) -> None:
        if not self.valid:
            raise InvalidParams(
                f"derived eps={self.eps:.4g} outside (0,1); supply an override"
            )


def derive_params(
    n: int,
    delta: int,
    mode: str = ADAPTIVE,
    *,
    eps: Optional[float] = None,
    cap: Optional[float] = None,
    alpha: Optional[float] = None,
    badness_threshold: Optional[float] = None,
    dangerous_threshold: Optional[float] = None,
) -> Params:
    """Build a Params from (n, delta, mode) with optional field overrides.

    Derived fields cascade: an eps override feeds the derived cap, alpha and
    thresholds unless those are overridden too.  A derivation that lands
    outside (0,1) with no override only flags the result invalid; an override
    that is itself out of range raises.
    """
    if n < 2 or delta < 1:
        raise InvalidParams(f"need n >= 2 and delta >= 1, got n={n}, delta={delta}")
    if mode not in (ADAPTIVE, OBLIVIOUS):
        raise InvalidParams(f"unknown mode {mode!r}")

    if mode == ADAPTIVE:
        derived_eps = C_EPS * (math.log(n) / delta) ** (1.0 / 16.0)
    else:
        derived_eps = C_EPS * (math.sqrt(math.log(n)) / delta) ** (1.0 / 16.0)

    if eps is not None and not 0.0 < eps < 1.0:
        raise InvalidParams(f"eps override {eps} outside (0,1)")
    e = eps if eps is not None else derived_eps
    valid = 0.0 < e < 1.0

    c = cap if cap is not None else C_A / (e * e * delta)
    if c <= 0.0:
        raise InvalidParams(f"cap {c} must be positive")
    a = alpha if alpha is not None else e**3 / 100.0
    bad_thr = badness_threshold if badness_threshold is not None else 2.0 * C_K * e * delta
    dng_thr = dangerous_threshold if dangerous_threshold is not None else a * delta

    return Params(
        n=n,
        delta=delta,
        eps=e,
        cap=c,
        alpha=a,
        badness_threshold=bad_thr,
        dangerous_threshold=dng_thr,
        mode=mode,
        valid=valid,
    )


@dataclass(frozen=True)
class RngHandle:
    """Seed + stream id; equal handles yield identical draw sequences."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))

    def spawn(self, stream: int) -> "RngHandle":
        return RngHandle(self.seed, stream)


class ColoringState:
    """Mutable assignment of edges to colors, single writer per run."""

    def __init__(self) -> None:
        self.assignment: dict[Edge, ColorRef] = {}
        self.used_alg: defaultdict[int, set[int]] = defaultdict(set)
        self.used_greedy: defaultdict[int, set[int]] = defaultdict(set)
        self.used_list: defaultdict[int, set[int]] = defaultdict(set)
        self.greedy_palette_size = 0

    def assign(self, e: Edge, color: ColorRef) -> None:
        if e in self.assignment:
            raise ValueError(f"edge {e} already colored")
        self.assignment[e] = color
        used = {ALG: self.used_alg, GREEDY: self.used_greedy, LIST: self.used_list}[
            color.palette
        ]
        used[e.u].add(color.index)
        used[e.v].add(color.index)
        if color.palette == GREEDY and color.index > self.greedy_palette_size:
            self.greedy_palette_size = color.index


def greedy_assign(state: ColoringState, e: Edge) -> ColorRef:
    """First-fit on the backup palette: smallest index free at both endpoints."""
    used_u = state.used_greedy[e.u]
    used_v = state.used_greedy[e.v]
    i = 1
    while i in used_u or i in used_v:
        i += 1
    color = greedy_color(i)
    state.assign(e, color)
    return color


@dataclass
class ValidationReport:
    """All defects found in a coloring; empty iff proper and complete."""

    conflicts: list[tuple[int, Edge, Edge, ColorRef]] = field(default_factory=list)
    unassigned: list[Edge] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.unassigned

    def summary(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        for vertex, e1, e2, color in self.conflicts:
            parts.append(f"conflict at {vertex}: {e1} and {e2} both {color}")
        for e in self.unassigned:
            parts.append(f"unassigned: {e}")
        return "; ".join(parts)


def validate_coloring(edges: Iterable[Edge], state: ColoringState) -> ValidationReport:
    """Check properness and completeness; defects are reported, never raised."""
    report = ValidationReport()
    by_vertex: defaultdict[int, defaultdict[ColorRef, list[Edge]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for e in edges:
        color = state.assignment.get(e)
        if color is None:
            report.unassigned.append(e)
            continue
        by_vertex[e.u][color].append(e)
        by_vertex[e.v][color].append(e)
    for vertex in sorted(by_vertex):
        for color, incident in by_vertex[vertex].items():
            for i in range(len(incident)):
                for j in range(i + 1, len(incident)):
                    report.conflicts.append((vertex, incident[i], incident[j], color))
    return report
