"""Core types: parameter derivation, validation, first-fit, RNG determinism."""
from __future__ import annotations

import dataclasses
import math

import pytest

from onlinecolor.adversaries import oblivious_stream
from onlinecolor.algorithms import run_alg1
from onlinecolor.core import (
    ColoringState,
    Edge,
    InvalidParams,
    RngHandle,
    StreamViolation,
    alg_color,
    derive_params,
    greedy_assign,
    greedy_color,
    parse_color,
    validate_coloring,
)
from onlinecolor.adversaries import gen_random_graph


class TestDeriveParams:
    def test_boundary_of_small_eps_regime(self):
        # at delta = (10 * c_eps)^16 * ln n the derived eps hits exactly 1/10
        delta = 100**16 * 1  # ln n == 1 conceptually; use n = e rounded via direct formula
        p = derive_params(3, delta)
        expected = 10.0 * (math.log(3) / delta) ** (1 / 16)
        assert p.eps == expected
        assert p.cap == 4.0 / (p.eps**2 * delta)
        # exact boundary check with the formula inverted: eps(delta0) == 1/10
        n = 1000
        delta0 = int(round(100**16 * math.log(n)))
        p0 = derive_params(n, delta0)
        assert p0.eps == pytest.approx(0.1, rel=1e-6)
        assert p0.cap <= 0.1
        assert p0.valid

    def test_eps_override_cascades_into_cap(self):
        p = derive_params(2000, 64, eps=0.2)
        assert p.eps == 0.2
        assert p.cap == pytest.approx(4.0 / (0.04 * 64))  # == 1.5625
        assert p.cap == 1.5624999999999998 or p.cap == 1.5625
        assert p.alpha == pytest.approx(0.2**3 / 100)
        assert p.badness_threshold == pytest.approx(2 * 560 * 0.2 * 64)
        assert p.dangerous_threshold == pytest.approx(p.alpha * 64)

    def test_desk_scale_derivation_is_flagged_invalid(self):
        p = derive_params(100, 16, "adaptive")
        assert p.eps == 10.0 * (math.log(100) / 16) ** (1 / 16)
        assert p.eps > 1.0
        assert not p.valid
        with pytest.raises(InvalidParams):
            p.require_valid()

    def test_oblivious_mode_uses_sqrt_log(self):
        p = derive_params(100, 16, "oblivious")
        assert p.eps == 10.0 * (math.sqrt(math.log(100)) / 16) ** (1 / 16)

    def test_bad_overrides_raise(self):
        with pytest.raises(InvalidParams):
            derive_params(100, 16, eps=1.5)
        with pytest.raises(InvalidParams):
            derive_params(100, 16, eps=-0.1)
        with pytest.raises(InvalidParams):
            derive_params(100, 16, eps=0.5, cap=0.0)
        with pytest.raises(InvalidParams):
            derive_params(1, 16)
        with pytest.raises(InvalidParams):
            derive_params(100, 0)

    def test_pure_function(self):
        a = derive_params(500, 32, eps=0.3)
        b = derive_params(500, 32, eps=0.3)
        assert a == b  # bitwise-equal dataclasses

    def test_threshold_overrides_standalone(self):
        p = derive_params(100, 8, eps=0.5, badness_threshold=1.0, dangerous_threshold=7.0)
        assert p.badness_threshold == 1.0
        assert p.dangerous_threshold == 7.0
        assert p.alpha == pytest.approx(0.5**3 / 100)


class TestEdgesAndColors:
    def test_edge_canonical(self):
        assert Edge.of(5, 2) == Edge(2, 5)
        with pytest.raises(StreamViolation):
            Edge.of(3, 3)

    def test_color_roundtrip(self):
        assert parse_color("alg:3") == alg_color(3)
        assert parse_color(str(greedy_color(7))) == greedy_color(7)
        with pytest.raises(ValueError):
            parse_color("alg")


class TestValidateColoring:
    def test_triangle_three_colors_ok(self):
        state = ColoringState()
        tri = [Edge(0, 1), Edge(1, 2), Edge(0, 2)]
        for e, c in zip(tri, [1, 2, 3]):
            state.assign(e, alg_color(c))
        assert validate_coloring(tri, state).ok

    def test_path_conflict_reported_at_shared_vertex(self):
        state = ColoringState()
        e1, e2 = Edge(0, 1), Edge(1, 2)
        state.assign(e1, alg_color(1))
        state.assign(e2, alg_color(1))
        report = validate_coloring([e1, e2], state)
        assert len(report.conflicts) == 1
        vertex, a, b, color = report.conflicts[0]
        assert vertex == 1 and color == alg_color(1)
        assert {a, b} == {e1, e2}

    def test_unassigned_listed(self):
        state = ColoringState()
        report = validate_coloring([Edge(0, 1)], state)
        assert report.unassigned == [Edge(0, 1)]
        assert not report.ok
        assert "unassigned" in report.summary()

    def test_alg1_run_is_always_proper(self):
        stream = gen_random_graph(50, 8, 150, RngHandle(1))
        res = run_alg1(stream, derive_params(50, 8, eps=0.3), RngHandle(1, 1))
        assert validate_coloring(res.edges, res.state).ok


class TestColoringState:
    def test_coloring_an_edge_twice_raises(self):
        state = ColoringState()
        state.assign(Edge(0, 1), alg_color(1))
        with pytest.raises(ValueError, match="already colored"):
            state.assign(Edge(0, 1), greedy_color(1))
        assert state.assignment == {Edge(0, 1): alg_color(1)}
        assert state.used_greedy[0] == set()


class TestGreedyAssign:
    def test_fresh_state_gets_first_color(self):
        state = ColoringState()
        assert greedy_assign(state, Edge(0, 1)) == greedy_color(1)
        assert state.greedy_palette_size == 1

    def test_first_fit_skips_used(self):
        state = ColoringState()
        state.assign(Edge(0, 1), greedy_color(1))
        state.assign(Edge(0, 2), greedy_color(2))
        assert greedy_assign(state, Edge(0, 3)) == greedy_color(3)

    def test_reuses_free_color_before_extending(self):
        state = ColoringState()
        state.assign(Edge(0, 1), greedy_color(1))
        state.assign(Edge(2, 3), greedy_color(2))
        # color 1 blocked at 0, color 2 free at both 0 and 4
        assert greedy_assign(state, Edge(0, 4)) == greedy_color(2)
        assert state.greedy_palette_size == 2


class TestRngHandle:
    def test_same_seed_same_draws(self):
        a = RngHandle(42, 1).generator()
        b = RngHandle(42, 1).generator()
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_differ(self):
        a = RngHandle(42, 1).generator()
        b = RngHandle(42, 2).generator()
        assert a.random() != b.random()

    def test_spawn(self):
        assert RngHandle(7).spawn(3) == RngHandle(7, 3)
