"""Arrival streams and instance generators, including the lower-bound gadgets.

An oblivious stream fixes its edge sequence (and palettes, for list
instances) in advance.  An adaptive stream owns a generator that is asked
for the next arrival after seeing the public history: the realized colors of
every edge so far, and nothing else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    ColorRef,
    Edge,
    GenerationFailure,
    PoolExhaustion,
    RngHandle,
    StreamViolation,
    parse_color,
)


@dataclass(frozen=True)
class Arrival:
    edge: Edge
    palette: Optional[tuple[int, ...]] = None  # list instances only


class PublicHistory:
    """Append-only view an adaptive adversary is allowed to observe."""

    def __init__(self) -> None:
        self._items: list[tuple[Edge, Optional[ColorRef]]] = []

    def append(self, edge: Edge, color: Optional[ColorRef]) -> None:
        self._items.append((edge, color))

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


AdaptiveGenerator = Callable[[PublicHistory], Optional[Arrival]]


@dataclass
class ArrivalStream:
    """Source of online edges: a fixed sequence or a history-observing generator."""

    n: int
    delta: int
    sequence: Optional[list[Arrival]] = None
    generator: Optional[AdaptiveGenerator] = None
    name: str = ""

    @property
    def oblivious(self) -> bool:
        return self.sequence is not None

    def play(self, history: PublicHistory) -> Iterator[Arrival]:
        """Yield arrivals; adaptive streams consult the (live) history."""
        if self.sequence is not None:
            yield from self.sequence
        else:
            assert self.generator is not None
            while True:
                arrival = self.generator(history)
                if arrival is None:
                    return
                yield arrival

    def edges(self) -> list[Edge]:
        if self.sequence is None:
            raise ValueError("adaptive streams have no fixed edge list")
        return [a.edge for a in self.sequence]


def oblivious_stream(
    n: int, delta: int, edges: Sequence[tuple[int, int]], name: str = ""
) -> ArrivalStream:
    seq = [Arrival(Edge.of(a, b)) for a, b in edges]
    return ArrivalStream(n=n, delta=delta, sequence=seq, name=name)


# -- concrete generators -----------------------------------------------------


def gen_two_star_bridge(delta: int) -> ArrivalStream:
    """Two stars with delta-1 leaves each, roots joined by a final bridge."""
    if delta < 2:
        raise ValueError("two-star gadget needs delta >= 2")
    u, v = 0, 1
    edges = [(u, 2 + i) for i in range(delta - 1)]
    edges += [(v, delta + 1 + i) for i in range(delta - 1)]
    edges.append((u, v))
    return oblivious_stream(2 * delta, delta, edges, name=f"two_star(delta={delta})")


def gen_gadget_farm(delta: int, copies: int, interleaved: bool = False) -> ArrivalStream:
    """Disjoint union of two-star gadgets, sequential or round-robin order."""
    if copies < 1:
        raise ValueError("need at least one copy")
    gadget = gen_two_star_bridge(delta)
    per_copy = [a.edge for a in gadget.sequence]
    offset = gadget.n
    blocks = [
        [(e.u + k * offset, e.v + k * offset) for e in per_copy] for k in range(copies)
    ]
    if interleaved:
        edges = [blocks[k][i] for i in range(len(per_copy)) for k in range(copies)]
    else:
        edges = [e for block in blocks for e in block]
    return oblivious_stream(
        copies * offset, delta, edges, name=f"farm(delta={delta},copies={copies})"
    )


def gen_random_graph(n: int, delta: int, m: int, rng: RngHandle) -> ArrivalStream:
    """Degree-capped random simple graph by rejection, random arrival order.

    Simplicity over exact uniformity; the retry budget is 100*m draws.
    """
    if m > n * delta // 2 or m > n * (n - 1) // 2:
        raise GenerationFailure(f"no simple graph with n={n}, delta={delta}, m={m}")
    gen = rng.generator()
    degree = np.zeros(n, dtype=int)
    chosen: set[Edge] = set()
    edges: list[Edge] = []
    retries = 0
    budget = 100 * max(m, 1)
    while len(edges) < m:
        a = int(gen.integers(n))
        b = int(gen.integers(n))
        if a == b:
            retries += 1
        else:
            e = Edge.of(a, b)
            if e in chosen or degree[a] >= delta or degree[b] >= delta:
                retries += 1
            else:
                chosen.add(e)
                edges.append(e)
                degree[a] += 1
                degree[b] += 1
                continue
        if retries > budget:
            raise GenerationFailure(
                f"retry budget exhausted at {len(edges)}/{m} edges"
            )
    order = gen.permutation(m)
    seq = [Arrival(edges[i]) for i in order]
    return ArrivalStream(
        n=n, delta=delta, sequence=seq, name=f"random(n={n},delta={delta},m={m})"
    )


def wrap_random_order(stream: ArrivalStream, rng: RngHandle) -> ArrivalStream:
    """Uniformly permute an oblivious stream's arrival order."""
    if not stream.oblivious:
        raise ValueError("can only shuffle oblivious streams")
    gen = rng.generator()
    order = gen.permutation(len(stream.sequence))
    seq = [stream.sequence[i] for i in order]
    return ArrivalStream(
        n=stream.n,
        delta=stream.delta,
        sequence=seq,
        name=f"shuffled({stream.name})",
    )


# -- list edge coloring lower bounds ----------------------------------------


def gen_list_lb_deterministic(delta: int) -> ArrivalStream:
    """Adaptive list instance whose bridge palette copies the realized colors.

    The two stars carry mutually disjoint two-color palettes, so the 2*delta-2
    star edges end up with 2*delta-2 distinct colors no matter how they are
    chosen.  The bridge then arrives with exactly those colors as its palette,
    every one of them blocked at an endpoint.
    """
    if delta < 2:
        raise ValueError("needs delta >= 2")
    star = gen_two_star_bridge(delta)
    prefix = [a.edge for a in star.sequence[:-1]]
    bridge = star.sequence[-1].edge

    def generator(history: PublicHistory) -> Optional[Arrival]:
        k = len(history)
        if k < len(prefix):
            palette = (2 * k + 1, 2 * k + 2)
            return Arrival(prefix[k], palette)
        if k == len(prefix):
            realized = tuple(sorted(c.index for _, c in history if c is not None))
            return Arrival(bridge, realized)
        return None

    return ArrivalStream(
        n=star.n,
        delta=delta,
        generator=generator,
        name=f"list_lb_det(delta={delta})",
    )


def gen_list_lb_randomized(
    delta: int,
    copies: int,
    rng: RngHandle,
    star_palette_size: Optional[int] = None,
) -> ArrivalStream:
    """Oblivious list instance: bridge palettes drawn in advance.

    Star edges get disjoint palettes of ``star_palette_size`` colors (default
    2*delta-1).  Each bridge palette takes one uniform color from each of its
    2*delta-2 neighboring palettes; disjointness makes deduplication moot.
    """
    if delta < 2:
        raise ValueError("needs delta >= 2")
    size = star_palette_size if star_palette_size is not None else 2 * delta - 1
    if size < 1:
        raise ValueError("palette size must be positive")
    gen = rng.generator()
    farm = gen_gadget_farm(delta, copies)
    per_gadget = 2 * delta - 1
    seq: list[Arrival] = []
    next_color = 1
    for k in range(copies):
        block = farm.sequence[k * per_gadget : (k + 1) * per_gadget]
        palettes = []
        for arrival in block[:-1]:
            palette = tuple(range(next_color, next_color + size))
            next_color += size
            palettes.append(palette)
            seq.append(Arrival(arrival.edge, palette))
        picks = tuple(
            sorted(p[int(gen.integers(len(p)))] for p in palettes)
        )
        seq.append(Arrival(block[-1].edge, picks))
    return ArrivalStream(
        n=farm.n,
        delta=delta,
        sequence=seq,
        name=f"list_lb_rand(delta={delta},copies={copies},s={size})",
    )


# -- bias amplification tree --------------------------------------------------


@dataclass(frozen=True)
class BiasTreeConfig:
    """Pooled simulation of uniform-random coloring on an adaptively built tree."""

    delta: int
    palette_ratio: float
    layers: int
    pool_size: int
    rng: RngHandle
    max_filter_rounds: int = 200

    @property
    def palette_size(self) -> int:
        """Nearest even palette size to ratio * delta (the halves must split)."""
        return 2 * round(self.palette_ratio * self.delta / 2.0)


@dataclass
class LayerStats:
    layer: int
    mean_bias: float
    frac_saturated: float
    failed_edges: int
    mean_free: float


@dataclass
class BiasTreeResult:
    config_delta: int
    palette_ratio: float
    palette_size: int
    layers: list[LayerStats] = field(default_factory=list)
    filter_acceptance: float = 0.0

    @property
    def mean_bias_per_layer(self) -> list[float]:
        return [s.mean_bias for s in self.layers]

    @property
    def total_failed_edges(self) -> int:
        return sum(s.failed_edges for s in self.layers)


# position of the k-th set bit within a byte, MSB first (packbits order)
_KTH_BIT = np.full((256, 8), -1, dtype=np.int8)
for _value in range(256):
    _rank = 0
    for _pos in range(8):
        if _value & (0x80 >> _pos):
            _KTH_BIT[_value, _rank] = _pos
            _rank += 1


class BiasTreeExperiment:
    """Layer-by-layer pool simulation of the amplification tree.

    The literal tree has delta^(layers) nodes; instead each layer keeps a
    pool of node palette-states and builds the next layer by sampling
    children with replacement from it (subtrees are disjoint and identically
    distributed, so the pool stands in for the true layer distribution).

    Layer 0 is star centers colored uniformly at random, filtered to keep
    only those preferring the left palette half.  A node of layer i+1 colors
    edges to delta-1 sampled children, each edge taking a uniform color from
    the intersection of the remaining palettes; a child whose intersection
    is empty counts as a failed edge.  Bias of a node is
    max(left, right)/free - 1/2 measured on its remaining palette.

    Palette states are bit-packed (one byte per 8 colors) so a full
    acceptance-size run stays within seconds.
    """

    def __init__(self, config: BiasTreeConfig) -> None:
        if config.layers < 1 or config.pool_size < 1:
            raise ValueError("need layers >= 1 and pool_size >= 1")
        if config.palette_size <= config.delta - 1:
            raise ValueError("palette smaller than a star; nothing to simulate")
        self.config = config

    def run(self) -> BiasTreeResult:
        cfg = self.config
        size = cfg.palette_size
        half = size // 2
        gen = cfg.rng.generator()
        result = BiasTreeResult(cfg.delta, cfg.palette_ratio, size)
        left_mask = np.packbits(
            np.arange(size) < half, bitorder="big"
        )

        pool, acceptance = self._layer0(gen, size, half)
        result.filter_acceptance = acceptance
        result.layers.append(self._stats(0, pool, left_mask, failed=0))

        for layer in range(1, cfg.layers):
            pool, failed = self._next_layer(gen, pool, size)
            result.layers.append(self._stats(layer, pool, left_mask, failed))
        return result

    def _layer0(self, gen, size: int, half: int):
        cfg = self.config
        chunks: list[np.ndarray] = []
        have = tried = kept = 0
        for _ in range(cfg.max_filter_rounds):
            if have >= cfg.pool_size:
                break
            batch = max(cfg.pool_size - have, 64)
            # each star center loses a uniform (delta-1)-subset of its palette
            ranks = gen.random((batch, size)).argsort(axis=1).argsort(axis=1)
            states = ranks >= (cfg.delta - 1)
            left = states[:, :half].sum(axis=1)
            right = states[:, half:].sum(axis=1)
            keep = left > right
            tried += batch
            kept += int(keep.sum())
            have += int(keep.sum())
            chunks.append(np.packbits(states[keep], axis=1, bitorder="big"))
        if have < cfg.pool_size:
            raise PoolExhaustion(f"filter kept {have}/{cfg.pool_size} nodes")
        pool = np.vstack(chunks)[: cfg.pool_size]
        return pool, kept / tried if tried else 0.0

    def _next_layer(self, gen, pool: np.ndarray, size: int):
        cfg = self.config
        count = cfg.pool_size
        words = pool.shape[1]
        parents = np.full((count, words), 0xFF, dtype=np.uint8)
        if size % 8:
            parents[:, -1] = 0xFF << (8 - size % 8) & 0xFF
        rows = np.arange(count)
        failed = 0
        for _ in range(cfg.delta - 1):
            children = pool[gen.integers(len(pool), size=count)]
            avail = parents & children
            cum = np.bitwise_count(avail).cumsum(axis=1, dtype=np.int16)
            counts = cum[:, -1]
            ok = counts > 0
            failed += int(np.count_nonzero(~ok))
            # uniform set bit per row: the floor(u * count)-th one
            target = np.floor(gen.random(count) * counts).astype(np.int16)
            target = np.minimum(target, np.maximum(counts - 1, 0))
            byte_idx = (cum > target[:, None]).argmax(axis=1)
            before = np.where(
                byte_idx > 0,
                np.take_along_axis(
                    cum, np.maximum(byte_idx - 1, 0)[:, None], axis=1
                ).ravel(),
                0,
            )
            byte_val = avail[rows, byte_idx]
            bit = _KTH_BIT[byte_val, (target - before).astype(np.int64)]
            sel = rows[ok]
            clear = (128 >> bit[sel].astype(np.int32)).astype(np.uint8)
            parents[sel, byte_idx[sel]] &= ~clear
        return parents, failed

    def _stats(self, layer: int, pool: np.ndarray, left_mask: np.ndarray,
               failed: int) -> LayerStats:
        left = np.bitwise_count(pool & left_mask).sum(axis=1)
        free = np.bitwise_count(pool).sum(axis=1)
        right = free - left
        nonempty = free > 0
        frac = np.where(nonempty, np.maximum(left, right) / np.maximum(free, 1), 1.0)
        bias = frac - 0.5
        saturated = np.minimum(left, right) == 0
        return LayerStats(
            layer=layer,
            mean_bias=float(bias.mean()),
            frac_saturated=float(saturated.mean()),
            failed_edges=failed,
            mean_free=float(free.mean()),
        )


def gen_bias_tree(config: BiasTreeConfig) -> BiasTreeExperiment:
    return BiasTreeExperiment(config)


# -- serialization -----------------------------------------------------------


def instance_to_lines(stream: ArrivalStream) -> list[str]:
    """Line format: `n delta` header, then `u v [palette:c1,c2,...]` per arrival."""
    if not stream.oblivious:
        raise ValueError("only oblivious streams serialize")
    lines = [f"{stream.n} {stream.delta}"]
    for arrival in stream.sequence:
        e = arrival.edge
        if arrival.palette is None:
            lines.append(f"{e.u} {e.v}")
        else:
            lines.append(f"{e.u} {e.v} palette:" + ",".join(map(str, arrival.palette)))
    return lines


def instance_from_lines(lines: Sequence[str], name: str = "") -> ArrivalStream:
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows:
        raise ValueError("empty instance")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {rows[0]!r}")
    n, delta = int(head[0]), int(head[1])
    seq = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"bad edge line {row!r}")
        edge = Edge.of(int(parts[0]), int(parts[1]))
        palette = None
        if len(parts) == 3:
            if not parts[2].startswith("palette:"):
                raise ValueError(f"bad palette field {parts[2]!r}")
            palette = tuple(int(x) for x in parts[2][len("palette:"):].split(","))
        seq.append(Arrival(edge, palette))
    return ArrivalStream(n=n, delta=delta, sequence=seq, name=name)


def write_instance(stream: ArrivalStream, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(instance_to_lines(stream)) + "\n")


def read_instance(path: str) -> ArrivalStream:
    with open(path) as fh:
        return instance_from_lines(fh.readlines(), name=path)


def read_assignment(path: str) -> dict[Edge, ColorRef]:
    """Assignment file: one `u v palette:index` line per edge."""
    out: dict[Edge, ColorRef] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"bad assignment line {ln!r}")
            out[Edge.of(int(parts[0]), int(parts[1]))] = parse_color(parts[2])
    return out


def audit_stream(stream: ArrivalStream) -> ArrivalStream:
    """Wrap an oblivious stream with simplicity and degree checks."""
    if not stream.oblivious:
        return stream
    seen: set[Edge] = set()
    degree: dict[int, int] = {}
    for arrival in stream.sequence:
        e = arrival.edge
        if e in seen:
            raise StreamViolation(f"duplicate edge {e}")
        seen.add(e)
        for w in e:
            degree[w] = degree.get(w, 0) + 1
            if degree[w] > stream.delta:
                raise StreamViolation(f"degree of {w} exceeds {stream.delta}")
    return stream
