"""Event-log P-value store against its dense eager twin."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    SMALL_INSTANCES,
    all_pairs,
    compare_tables,
    forced_differential,
    path_edges,
    sampled_differential,
)
from onlinecolor.core import Edge, RngHandle, derive_params
from onlinecolor import algorithms
from onlinecolor.adversaries import gen_gadget_farm, gen_random_graph
from onlinecolor.ptable import DenseOracle, PTable


def fresh_table(delta=2, eps=0.5, cap=1.0, n=8):
    return PTable(derive_params(n, delta, eps=eps, cap=cap))


class TestReconstruct:
    def test_empty_logs_give_initial_row(self):
        table = fresh_table(delta=4, eps=0.5)
        row = table.reconstruct(Edge(0, 1))
        assert np.all(row == 0.5 / 4)
        assert table.z_value(Edge(0, 1)) == pytest.approx(0.5)

    def test_single_sample_scale_rule(self):
        # delta=2, eps=0.5: p0 = 0.25; after chosen=1 the other color is 1/3
        table = fresh_table()
        pvec = table.reconstruct(Edge(0, 2))
        table.record_sample(1, Edge(0, 2), pvec, 1)
        row = table.reconstruct(Edge(0, 1))
        assert row[0] == 0.0
        assert row[1] == pytest.approx(0.25 / 0.75, rel=1e-15)

    def test_cap_blocks_scale_up(self):
        # cap below p0: no entry may ever scale, only zero
        table = fresh_table(cap=0.2)  # p0 = 0.25 > cap
        pvec = table.reconstruct(Edge(0, 2))
        table.record_sample(1, Edge(0, 2), pvec, None)
        row = table.reconstruct(Edge(0, 1))
        assert np.all(row == 0.25)

    def test_bottom_scales_every_color(self):
        table = fresh_table(delta=3, eps=0.4, cap=5.0)
        p0 = 0.6 / 3
        pvec = table.reconstruct(Edge(0, 2))
        table.record_sample(1, Edge(0, 2), pvec, None)
        row = table.reconstruct(Edge(0, 1))
        assert np.allclose(row, p0 / (1 - p0), rtol=1e-15)
        assert table.z_value(Edge(0, 1)) == pytest.approx(3 * p0 / (1 - p0))

    def test_k4_forced_outcomes_match_dense(self):
        k4 = [e for name, e, d in SMALL_INSTANCES if name == "k4"][0]
        params = derive_params(8, 3, eps=0.5, cap=1.0)

        def choose(t, pvec):
            if t % 3 == 0:
                return None
            positive = np.flatnonzero(pvec > 0)
            return int(positive[0]) + 1 if len(positive) else None

        forced_differential(k4, 4, 3, params, choose)

    def test_burn_then_sample_order_respected(self):
        params = derive_params(8, 2, eps=0.5, cap=1.0)

        def choose(t, pvec):
            if t == 1:
                return "burn:1"
            positive = np.flatnonzero(pvec > 0)
            return int(positive[-1]) + 1
        forced_differential(path_edges(3), 4, 2, params, choose)

    def test_three_edge_path_all_branches_match_dense(self):
        # exhaust every outcome combination of a 3-edge path and compare sums
        params = derive_params(8, 2, eps=0.5, cap=1.0)
        edges = path_edges(3)

        def run_branch(outcomes):
            def choose(t, pvec):
                want = outcomes[t - 1]
                if want is not None and pvec[want - 1] <= 0.0:
                    return None  # zeroed color: branch not reachable, take bottom
                return want
            forced_differential(edges, 4, 2, params, choose)

        import itertools
        for outcomes in itertools.product([1, 2, None], repeat=3):
            run_branch(list(outcomes))


class TestRecording:
    def test_disjoint_edge_unaffected(self):
        table = fresh_table(n=8)
        pvec = table.reconstruct(Edge(0, 1))
        table.record_sample(1, Edge(0, 1), pvec, 1)
        assert np.all(table.reconstruct(Edge(2, 3)) == 0.25)

    def test_chosen_color_zeroed_for_both_endpoints(self):
        table = fresh_table()
        pvec = table.reconstruct(Edge(0, 1))
        table.record_sample(1, Edge(0, 1), pvec, 2)
        assert table.reconstruct(Edge(0, 5))[1] == 0.0
        assert table.reconstruct(Edge(1, 5))[1] == 0.0

    def test_out_of_order_time_raises(self):
        table = fresh_table()
        pvec = table.reconstruct(Edge(0, 1))
        table.record_sample(2, Edge(0, 1), pvec, 1)
        with pytest.raises(ValueError, match="time order"):
            table.record_sample(2, Edge(2, 3), table.reconstruct(Edge(2, 3)), 1)
        with pytest.raises(ValueError, match="time order"):
            table.record_burn(1, Edge(2, 3), 1)
        assert [ev.time for ev in table.logs[0]] == [2]
        assert 2 not in table.logs

    def test_interleaved_endpoints_apply_in_time_order(self):
        # events alternate between the endpoints of the probed edge
        params = derive_params(8, 2, eps=0.5, cap=1.0)

        def choose(t, pvec):
            positive = np.flatnonzero(pvec > 0)
            return int(positive[0]) + 1 if t % 2 else None

        edges = [Edge(0, 2), Edge(1, 3), Edge(0, 3), Edge(1, 2)]
        forced_differential(edges, 4, 2, params, choose)

    def test_burn_zeroes_exactly_one_color(self):
        table = fresh_table(delta=3, eps=0.4)
        table.record_burn(1, Edge(0, 1), 3)
        row = table.reconstruct(Edge(0, 4))
        assert row[2] == 0.0
        assert np.all(row[:2] == 0.6 / 3)

    def test_burn_idempotent(self):
        table = fresh_table(delta=2)
        table.record_burn(1, Edge(0, 1), 1)
        table.record_burn(2, Edge(0, 2), 1)
        row = table.reconstruct(Edge(0, 3))
        assert row[0] == 0.0 and row[1] == 0.25


class TestInvariants:
    def test_bound_two_cap_and_nonnegative(self):
        # cap <= 1/4 keeps every entry within 2*cap on any sampled run
        params = derive_params(12, 3, eps=0.5, cap=0.2)
        stream = gen_random_graph(12, 3, 14, RngHandle(5))
        table = PTable(params)
        gen = RngHandle(5, 1).generator()
        arrived = set()
        for t, arr in enumerate(stream.sequence, 1):
            pvec = table.reconstruct(arr.edge)
            z = float(np.cumsum(pvec)[-1])
            if z <= 1.0:
                draw = gen.random()
                idx = int(np.searchsorted(np.cumsum(pvec), draw, side="right"))
                table.record_sample(t, arr.edge, pvec, idx + 1 if idx < 3 else None)
            arrived.add(arr.edge)
            for f in all_pairs(12):
                if f in arrived:
                    continue
                row = table.reconstruct(f)
                assert np.all(row >= 0.0)
                assert np.all(row <= 2 * params.cap + 1e-15)

    def test_monotone_zeroing(self):
        table = fresh_table(delta=2, cap=5.0, n=8)
        table.record_sample(1, Edge(0, 2), table.reconstruct(Edge(0, 2)), 1)
        assert table.reconstruct(Edge(0, 1))[0] == 0.0
        table.record_sample(2, Edge(0, 3), table.reconstruct(Edge(0, 3)), None)
        table.record_sample(3, Edge(1, 4), table.reconstruct(Edge(1, 4)), 2)
        row = table.reconstruct(Edge(0, 1))
        assert row[0] == 0.0 and row[1] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_differential_random_instances(self, seed):
        n, delta, m = 10, 4, 18
        params = derive_params(n, delta, eps=0.4, cap=(0.2 if seed % 2 else 1.0))
        stream = gen_random_graph(n, delta, m, RngHandle(seed))
        sampled_differential([a.edge for a in stream.sequence], n, delta, params, seed)

    def test_replay_touches_only_endpoint_logs(self):
        # reconstruct cost contract: merged replay sees deg(u) + deg(v) events
        table = fresh_table(delta=2, n=8)
        for t, e in enumerate([Edge(0, 2), Edge(0, 3), Edge(1, 2), Edge(4, 5)], 1):
            table.record_sample(t, e, table.reconstruct(e), None)
        merged = list(table._merged(Edge(0, 1)))
        assert len(merged) == len(table.logs[0]) + len(table.logs[1]) == 3

    def test_fast_path_matches_replay(self):
        table = fresh_table(delta=3, eps=0.4, cap=50.0, n=10)
        for t, e in enumerate([Edge(0, 2), Edge(1, 3), Edge(0, 4), Edge(1, 5)], 1):
            table.record_sample(t, e, table.reconstruct(e), None)
        fast = table.reconstruct(Edge(0, 1))
        exact = table._replay(Edge(0, 1))
        assert np.allclose(fast, exact, rtol=1e-13)


class TestOneSidedReplayCache:
    """Exact rows of edges with one logged endpoint come from a per-vertex
    cached row; the from-scratch loop ``_replay`` is the reference."""

    @pytest.mark.parametrize("colorer", [algorithms.run_alg1, algorithms.run_alg2])
    @pytest.mark.parametrize("instance", ["gadget_farm", "random_graph"])
    def test_rows_match_loop_replay_bytes(self, monkeypatch, colorer, instance):
        if instance == "gadget_farm":
            stream = gen_gadget_farm(8, 3)
        else:
            stream = gen_random_graph(30, 6, 70, RngHandle(0))
        # a cap just above p0 fails the screen on most rows
        params = derive_params(stream.n, stream.delta, "oblivious", eps=0.2, cap=0.15,
                               badness_threshold=2, dangerous_threshold=10)
        exact_calls = {"one_sided": 0, "two_sided": 0}
        one_sided, two_sided = PTable._replay_one_sided, PTable._replay
        reconstruct = PTable.reconstruct

        def spy_one_sided(self, w):
            exact_calls["one_sided"] += 1
            return one_sided(self, w)

        def spy_two_sided(self, e, upto=None):
            exact_calls["two_sided"] += 1
            return two_sided(self, e, upto)

        def checked_reconstruct(self, e):
            before = sum(exact_calls.values())
            row = reconstruct(self, e)
            if sum(exact_calls.values()) > before:  # the screen failed
                assert row.tobytes() == two_sided(self, e).tobytes()
            return row

        monkeypatch.setattr(PTable, "_replay_one_sided", spy_one_sided)
        monkeypatch.setattr(PTable, "_replay", spy_two_sided)
        monkeypatch.setattr(PTable, "reconstruct", checked_reconstruct)
        for seed in range(5):
            colorer(stream, params, RngHandle(seed, 1))
        assert exact_calls["one_sided"] > 0 and exact_calls["two_sided"] > 0

    def star_table(self):
        # delta=2, p0=0.25: one bottom draw at centre 0 lifts the envelope to
        # 1/3 > cap, so every edge from 0 to a fresh vertex replays exactly
        table = fresh_table(delta=2, eps=0.5, cap=0.3, n=10)
        table.record_sample(1, Edge(0, 1), table.reconstruct(Edge(0, 1)), None)
        return table

    def test_writing_into_a_returned_row_leaves_the_cache_alone(self):
        table = self.star_table()
        first = table.reconstruct(Edge(0, 2))
        expected = table._replay(Edge(0, 3)).tobytes()
        assert first.tobytes() == expected
        first[:] = 7.0
        assert table.reconstruct(Edge(0, 3)).tobytes() == expected

    def test_cache_catches_up_with_events_logged_between_calls(self):
        table = self.star_table()
        table.reconstruct(Edge(0, 2))
        table.record_sample(2, Edge(0, 2), table.reconstruct(Edge(0, 2)), 1)
        table.record_burn(3, Edge(0, 3), 2)
        table.record_sample(4, Edge(5, 6), table.reconstruct(Edge(5, 6)), None)
        row = table.reconstruct(Edge(0, 4))
        assert row.tobytes() == table._replay(Edge(0, 4)).tobytes()
        assert np.all(row == 0.0)


class TestTraceDump:
    def test_line_format(self):
        table = fresh_table(delta=2)
        table.record_sample(1, Edge(0, 1), table.reconstruct(Edge(0, 1)), 2)
        table.record_burn(2, Edge(0, 2), 1)
        table.record_sample(3, Edge(1, 3), table.reconstruct(Edge(1, 3)), None)
        assert table.trace_lines() == [
            "1,0,sample,,2",
            "1,1,sample,,2",
            "2,0,burn,1,",
            "2,2,burn,1,",
            "3,1,sample,,bot",
            "3,3,sample,,bot",
        ]
