"""tools/bench_pairs.py: the run order of its pairs, the summary it prints and its record."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def run(tree, workload, seed, **metrics):
    return {"tree": tree, "workload": workload, "seed": seed, "correct": True,
            "attempted": 10, "failed": 0, "metrics": metrics}


def synthetic_runs():
    """Four pairs on one workload: the change decodes 2x faster, with a 1.5x op p50."""
    runs = []
    for seed in range(1, 5):
        base = {name: float(seed) for name in bench_pairs.end_to_end_bounds()}
        changed = dict(base, decode_mbps=2.0 * seed, op_ms_p50=1.5 * seed)
        changed["info_mbps"] = seed * (1.1 if seed < 4 else 0.9)  # wins 3 of 4
        runs += [run("parent", "w", seed, **base), run("change", "w", seed, **changed)]
    return runs


class TestSummarize:
    def test_quartiles_ratios_wins_and_bounds(self):
        rows = {row["metric"]: row for row in bench_pairs.summarize(synthetic_runs())}
        assert set(rows) == set(bench_pairs.end_to_end_bounds())
        decode = rows["decode_mbps"]
        assert decode["parent"] == pytest.approx([1.75, 2.5, 3.25])
        assert decode["change"] == pytest.approx([3.5, 5.0, 6.5])
        assert (decode["ratio"], decode["wins"], decode["pairs"], decode["worse"]) == \
               (pytest.approx(2.0), 4, 4, False)
        p50 = rows["op_ms_p50"]  # lower is better: 1.5x is past the 0.25 bound
        assert (p50["ratio"], p50["wins"], p50["worse"]) == (pytest.approx(1.5), 0, True)
        info = rows["info_mbps"]
        assert (info["ratio"], info["wins"], info["worse"]) == (pytest.approx(1.1), 3, False)
        assert (rows["setup_s"]["ratio"], rows["setup_s"]["wins"]) == (1.0, 0)

    def test_summary_marks_only_ratios_past_their_bound(self, capsys):
        bench_pairs.print_summary(bench_pairs.summarize(synthetic_runs()))
        lines = capsys.readouterr().out.splitlines()
        marked = [line.split()[1] for line in lines if "WORSE" in line]
        assert marked == ["op_ms_p50"]
        assert any("decode_mbps" in line and "2.000x  4/4" in line for line in lines)

    def test_summary_shows_each_trees_median_ops_per_workload(self, capsys):
        runs = []
        for seed, (parent_ops, change_ops) in enumerate([(100, 150), (90, 210), (120, 180)], 1):
            for workload in ("a", "b"):
                scale = 1 if workload == "a" else 10
                runs += [dict(run("parent", workload, seed, **dict.fromkeys(
                                  bench_pairs.end_to_end_bounds(), 1.0)),
                              attempted=parent_ops * scale),
                         dict(run("change", workload, seed, **dict.fromkeys(
                                  bench_pairs.end_to_end_bounds(), 1.0)),
                              attempted=change_ops * scale)]
        rows = bench_pairs.summarize(runs)
        assert {row["workload"]: row["ops"] for row in rows} == {"a": [100, 180],
                                                                 "b": [1000, 1800]}
        bench_pairs.print_summary(rows)
        ops = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.split()[1:2] == ["ops"]]
        assert [line[:5] for line in ops] == [["a", "ops", "100", "->", "180"],
                                              ["b", "ops", "1000", "->", "1800"]]


class TestPairRuns:
    def test_parent_first_at_odd_seeds_change_first_at_even(self, monkeypatch):
        order = []

        def fake_perfbench(checkout, workload, seed, trace):
            order.append((checkout.name, workload, seed))
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"decode_mbps": {"value": 1.0, "unit": "Mbps"}}}

        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        runs = bench_pairs.pair_runs({"parent": Path("p"), "change": Path("c")}, 2)
        expected = [(tree, w, seed) for seed in (1, 2) for w in bench_pairs.WORKLOADS
                    for tree in (("p", "c") if seed == 1 else ("c", "p"))]
        assert order == expected
        assert [(r["tree"][0], r["workload"], r["seed"]) for r in runs] == expected
        assert runs[0]["metrics"] == {"decode_mbps": 1.0}


class TestMain:
    def test_records_each_trees_decoder_path_probed_before_any_run(self, monkeypatch,
                                                                   tmp_path, capsys):
        events = []

        def fake_decoder_path(checkout):
            events.append(("probe", checkout.name))
            return {"p": "numpy", "c": "native"}[checkout.name]

        def fake_perfbench(checkout, workload, seed, trace):
            events.append(("run", checkout.name))
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": 1.0, "unit": ""}
                                for name in bench_pairs.end_to_end_bounds()}}

        monkeypatch.setattr(bench_pairs, "decoder_path", fake_decoder_path)
        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        assert bench_pairs.main(["--label", "t", "--parent", str(tmp_path / "p"),
                                 "--change", str(tmp_path / "c"), "--pairs", "2"]) == 0
        assert sorted(events[:2]) == [("probe", "c"), ("probe", "p")]
        assert {kind for kind, _ in events[2:]} == {"run"}
        record = json.loads((tmp_path / "BENCH_t_pairs.json").read_text())
        assert record["host"]["decoder"] == {"parent": "numpy", "change": "native"}
        assert "decoder path: parent numpy, change native" in capsys.readouterr().out
