"""CLI: config handling, CSV schemas, exit codes, determinism."""
from __future__ import annotations

import json
import os

import pytest

from onlinecolor import adversaries, cli
from onlinecolor.core import Edge, RngHandle


def write_config(tmp_path, name="config.json", **body) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_csv(path):
    import csv as csvmod

    with open(path, newline="") as fh:
        rows = list(csvmod.reader(fh))
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def strip_wall_time(path):
    header, rows = read_csv(path)
    idx = header.index("wall_time_s")
    keep = [h for i, h in enumerate(header) if i != idx]
    return [",".join(r[h] for h in keep) for r in rows]


class TestRun:
    def test_greedy_two_star_within_bound(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 5},
            algorithm="greedy",
            seeds=[1],
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == cli.RESULT_COLUMNS
        assert len(rows) == 1
        assert int(rows[0]["total_colors"]) <= 9  # 2 * delta - 1

    def test_alg1_ten_seeds_all_valid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "random_graph", "n": 60, "delta": 8, "m": 150},
            algorithm="alg1",
            params={"eps": 0.3},
            seeds={"start": 1, "count": 10},
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 10
        assert all(r["eps"] == "0.3" for r in rows)
        assert {r["seed"] for r in rows} == {str(s) for s in range(1, 11)}

    def test_randgreedy_farm_failure_flagged(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "gadget_farm", "delta": 2, "copies": 50},
            algorithm="randgreedy",
            palette_size=2,
            continue_after_failure=True,
            seeds=[3],
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "results.csv")
        assert rows[0]["failed"] == "1"  # 1 - 2^-50 chance per seed

    def test_rerun_identical_output_modulo_wall_time(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "random_graph", "n": 40, "delta": 6, "m": 80},
            algorithm="alg2",
            params={"eps": 0.3},
            seeds=[5, 6],
            output={"results": "a.csv"},
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        first = strip_wall_time(tmp_path / "a.csv")
        cfg2 = write_config(
            tmp_path,
            name="config2.json",
            instance={"generator": "random_graph", "n": 40, "delta": 6, "m": 80},
            algorithm="alg2",
            params={"eps": 0.3},
            seeds=[5, 6],
            output={"results": "b.csv"},
        )
        assert cli.main(["run", "--config", cfg2, "--out", str(tmp_path)]) == 0
        assert strip_wall_time(tmp_path / "b.csv") == first

    def test_jobs_pool_matches_serial(self, tmp_path):
        body = dict(
            instance={"generator": "random_graph", "n": 30, "delta": 4, "m": 40},
            algorithm="alg1",
            params={"eps": 0.4},
            seeds=[1, 2, 3, 4],
            output={"results": "serial.csv"},
        )
        cfg = write_config(tmp_path, **body)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        body["output"] = {"results": "pooled.csv"}
        cfg = write_config(tmp_path, name="pooled.json", **body)
        assert cli.main(
            ["run", "--config", cfg, "--out", str(tmp_path), "--jobs", "3"]
        ) == 0
        assert strip_wall_time(tmp_path / "pooled.csv") == strip_wall_time(
            tmp_path / "serial.csv"
        )

    def test_set_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 5},
            algorithm="greedy",
            seeds=[1],
        )
        code = cli.main(
            ["run", "--config", cfg, "--out", str(tmp_path),
             "--set", "instance.delta=3", "--set", "algorithm=greedy"]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "results.csv")
        assert rows[0]["delta"] == "3"

    def test_golden_fixed_seed_output(self, tmp_path):
        # full-row golden file (wall time excluded): greedy on the delta=3
        # gadget colors each star 1..2 and the bridge 3
        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 3},
            algorithm="greedy",
            seeds=[1],
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert strip_wall_time(tmp_path / "results.csv") == [
            "1,1r0,1,0,two_star(delta=3),greedy,6,3,,,3,3,3,0,,0,0,"
        ]

    def test_trajectory_and_scaling_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "random_graph", "n": 30, "delta": 4, "m": 40},
            algorithm="alg1",
            params={"eps": 0.4},
            seeds=[2],
            diagnostics={"trajectories": True, "scaling_factors": True,
                         "tracked_edges": 3},
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectories_2r0.csv")
        assert header == ["t", "edge_u", "edge_v", "Z", "Y", "Zbar", "bad_colors"]
        assert len({(r["edge_u"], r["edge_v"]) for r in rows}) == 3
        header, rows = read_csv(tmp_path / "scaling_2r0.csv")
        assert header == cli.SCALING_COLUMNS
        assert all(float(r["identity_residual"]) <= 1e-10 for r in rows)

    def test_console_script_installed(self, tmp_path):
        import subprocess

        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 3},
            algorithm="greedy",
            seeds=[1],
        )
        proc = subprocess.run(
            ["onlinecolor", "run", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("algorithm, code", [("greedy", 0), ("nosuch", 2)])
    def test_python_m_onlinecolor_exit_code(self, tmp_path, algorithm, code):
        import subprocess
        import sys

        import onlinecolor

        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 3},
            algorithm=algorithm,
            seeds=[1],
        )
        src = os.path.dirname(os.path.dirname(onlinecolor.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "onlinecolor", "run", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "results.csv").exists() == (code == 0)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ONLINECOLOR_SEED", "42")
        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 3},
            algorithm="greedy",
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "results.csv")
        assert rows[0]["seed"] == "42"


class TestSweep:
    def test_missing_axis_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "two_star_bridge", "delta": 3},
            algorithm="greedy",
            sweep={"key": "instance.delta", "values": []},
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_single_point_sweep_matches_run(self, tmp_path):
        base = dict(
            instance={"generator": "random_graph", "n": 30, "delta": 4, "m": 40},
            algorithm="alg1",
            params={"eps": 0.4},
            seeds=[7],
        )
        cfg = write_config(tmp_path, **base, sweep={"key": "params.eps", "values": [0.4]})
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == cli.SUMMARY_COLUMNS
        assert len(rows) == 1 and rows[0]["runs"] == "1"

    def test_bias_tree_ratio_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"delta": 32, "palette_ratio": 1.5, "layers": 3,
                      "pool_size": 256},
            algorithm="biastree",
            seeds=[1, 2],
            sweep={"key": "instance.palette_ratio", "values": [1.5, 1.7]},
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, summary = read_csv(tmp_path / "summary.csv")
        assert len(summary) == 2
        assert all(s["mean_final_layer_bias"] != "" for s in summary)
        assert float(summary[0]["mean_final_layer_bias"]) > 0

    def test_palette_sweep_failure_rates_decrease(self, tmp_path):
        cfg = write_config(
            tmp_path,
            instance={"generator": "gadget_farm", "delta": 2, "copies": 20},
            algorithm="randgreedy",
            palette_size=2,
            continue_after_failure=True,
            seeds={"start": 0, "count": 8},
            sweep={"key": "palette_size", "values": [2, 3]},
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, summary = read_csv(tmp_path / "summary.csv")
        assert float(summary[0]["failure_rate"]) > float(summary[1]["failure_rate"])


class TestEnumerateCmd:
    def test_gadget_failure_probability(self, tmp_path, capsys):
        inst = tmp_path / "gadget.txt"
        adversaries.write_instance(adversaries.gen_two_star_bridge(2), str(inst))
        cfg = write_config(
            tmp_path,
            instance={"file": str(inst)},
            algorithm="randgreedy",
            palette_size=2,
        )
        assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failure_probability"] == 0.5

    def test_alg1_drift_report(self, tmp_path, capsys):
        inst = tmp_path / "path.txt"
        adversaries.write_instance(
            adversaries.oblivious_stream(3, 2, [(0, 1), (1, 2)]), str(inst)
        )
        cfg = write_config(
            tmp_path,
            instance={"file": str(inst)},
            algorithm="alg1",
            params={"eps": 0.5},
        )
        assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_conditional_z_drift"] <= 1e-12
        assert payload["total_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_budget_exceeded_exits_4(self, tmp_path):
        inst = tmp_path / "k4.txt"
        adversaries.write_instance(
            adversaries.oblivious_stream(
                4, 3,
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            ),
            str(inst),
        )
        cfg = write_config(
            tmp_path,
            instance={"file": str(inst)},
            algorithm="alg1",
            params={"eps": 0.5},
            budget=5,
        )
        assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 4


class TestValidateCmd:
    def _triangle_files(self, tmp_path, colors):
        inst = tmp_path / "triangle.txt"
        adversaries.write_instance(
            adversaries.oblivious_stream(3, 2, [(0, 1), (1, 2), (0, 2)]), str(inst)
        )
        assign = tmp_path / "assign.txt"
        assign.write_text(
            "\n".join(
                f"{e[0]} {e[1]} {c}"
                for e, c in zip([(0, 1), (1, 2), (0, 2)], colors)
            )
            + "\n"
        )
        return str(inst), str(assign)

    def test_valid_triangle(self, tmp_path):
        inst, assign = self._triangle_files(tmp_path, ["alg:1", "alg:2", "alg:3"])
        cfg = write_config(tmp_path, instance={"file": inst}, assignment_file=assign)
        assert cli.main(["validate", "--config", cfg]) == 0

    def test_conflict_detected(self, tmp_path):
        inst, assign = self._triangle_files(tmp_path, ["alg:1", "alg:1", "alg:3"])
        cfg = write_config(tmp_path, instance={"file": inst}, assignment_file=assign)
        assert cli.main(["validate", "--config", cfg]) == 1

    def test_missing_assignment_fails(self, tmp_path):
        inst, assign = self._triangle_files(tmp_path, ["alg:1", "alg:2", "alg:3"])
        trimmed = "\n".join(open(assign).read().strip().split("\n")[:-1]) + "\n"
        open(assign, "w").write(trimmed)
        cfg = write_config(tmp_path, instance={"file": inst}, assignment_file=assign)
        assert cli.main(["validate", "--config", cfg]) == 1


class TestExitCodes:
    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_missing_config_exits_3(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_unknown_generator_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, instance={"generator": "mystery"}, algorithm="greedy", seeds=[1]
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_instance_file_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, instance={"file": str(tmp_path / "ghost.txt")},
            algorithm="greedy", seeds=[1],
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
