"""tools/bench_pairs.py: the run order of its pairs, the summary it prints and its record."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402


def run(tree, workload, seed, **metrics):
    return {"tree": tree, "workload": workload, "seed": seed, "correct": True,
            "attempted": 10, "failed": 0, "metrics": metrics,
            "usage": {"minflt": 100, "majflt": 0, "utime": 1.0, "stime": 0.1}}


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


class TestFaults:
    def test_summary_holds_and_prints_each_trees_median_faults_per_op(self, capsys):
        runs = []
        for seed, (parent, change) in enumerate([(400, 1900), (500, 2000), (450, 2100)], 1):
            for tree, minflt in (("parent", parent), ("change", change)):
                r = run(tree, "w", seed, **dict.fromkeys(bench_pairs.end_to_end_bounds(), 1.0))
                r["usage"] = dict(r["usage"], minflt=minflt, majflt=10)
                runs.append(r)
        rows = bench_pairs.summarize(runs)
        assert all(row["faults"] == [46.0, 201.0] for row in rows)
        bench_pairs.print_summary(rows)
        lines = [line.split() for line in capsys.readouterr().out.splitlines()
                 if line.split()[1:2] == ["faults/op"]]
        assert [line[:5] for line in lines] == [["w", "faults/op", "46", "->", "201"]]


class TestPairRuns:
    def test_records_the_faults_and_cpu_time_of_each_runs_own_children(self, monkeypatch):
        def fake_perfbench(checkout, workload, seed, trace, env=None):
            if checkout.name == "p":  # the parent runs first at seed 1
                subprocess.run([sys.executable, "-c", "pass"], check=True)
            return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        monkeypatch.setattr(bench_pairs, "WORKLOADS", ("w",))
        parent, change = bench_pairs.pair_runs({"parent": Path("p"), "change": Path("c")}, 1)
        assert set(parent["usage"]) == set(change["usage"]) == set(bench_pairs.USAGE)
        # an interpreter's start faults in hundreds of pages and takes some CPU time
        assert parent["usage"]["minflt"] > 100
        assert parent["usage"]["utime"] + parent["usage"]["stime"] > 0
        assert change["usage"] == dict.fromkeys(bench_pairs.USAGE, 0)


    def test_parent_first_at_odd_seeds_change_first_at_even(self, monkeypatch):
        order = []

        def fake_perfbench(checkout, workload, seed, trace, env=None):
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

        def fake_perfbench(checkout, workload, seed, trace, env=None):
            events.append(("run", checkout.name))
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": 1.0, "unit": ""}
                                for name in bench_pairs.end_to_end_bounds()}}

        monkeypatch.setattr(bench_pairs, "decoder_path", fake_decoder_path)
        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        monkeypatch.setattr(bench_pairs, "nrphy_bench_mbps", lambda checkout, blocks: 1.0)
        monkeypatch.setattr(bench_pairs, "calibration_ns", lambda checkout: 1.0)
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        assert bench_pairs.main(["--label", "t", "--parent", str(tmp_path / "p"),
                                 "--change", str(tmp_path / "c"), "--pairs", "2"]) == 0
        assert sorted(events[:2]) == [("probe", "c"), ("probe", "p")]
        assert {kind for kind, _ in events[2:]} == {"run"}
        record = json.loads((tmp_path / "BENCH_t_pairs.json").read_text())
        assert record["host"]["decoder"] == {"parent": "numpy", "change": "native"}
        assert "decoder path: parent numpy, change native" in capsys.readouterr().out

    @staticmethod
    def fake_tools(monkeypatch, tmp_path, calls, traced_correct=True):
        """Fake perfbench and nrphy bench that log each call; the change is 2x faster."""

        def fake_perfbench(checkout, workload, seed, trace, env=None):
            calls.append(("perfbench", checkout.name, workload, seed, trace))
            names = ["ldpc.decode_ms_per_cb"] if trace else bench_pairs.end_to_end_bounds()
            return {"correct": traced_correct or not trace, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}

        def fake_nrphy_bench_mbps(checkout, blocks):
            calls.append(("bench", checkout.name, blocks))
            return {"p": 1.0, "c": 2.0}[checkout.name] * blocks

        monkeypatch.setattr(bench_pairs, "decoder_path", lambda checkout: "native")
        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        monkeypatch.setattr(bench_pairs, "nrphy_bench_mbps", fake_nrphy_bench_mbps)
        monkeypatch.setattr(bench_pairs, "calibration_ns",
                            lambda checkout: float(bench_pairs.REFERENCE_NS))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        return ["--label", "t", "--parent", str(tmp_path / "p"), "--change",
                str(tmp_path / "c"), "--pairs", "3"]

    def test_traced_runs_follow_the_pairs_and_bench_runs_follow_those(self, monkeypatch,
                                                                       tmp_path):
        calls = []
        assert bench_pairs.main(self.fake_tools(monkeypatch, tmp_path, calls)) == 0
        runs = [call for call in calls if call[0] == "perfbench"]
        pairs = (3 + bench_pairs.PINNED_PAIRS) * 2 * len(bench_pairs.WORKLOADS)
        assert {call[4] for call in runs[:pairs]} == {0}
        assert runs[pairs:] == [("perfbench", tree, w, 1, 1)
                                for w in bench_pairs.WORKLOADS for tree in ("p", "c")]
        assert calls[:len(runs)] == runs
        assert calls[len(runs):] == [("bench", tree, blocks)
                                     for repeat in range(1, bench_pairs.BENCH_REPEATS + 1)
                                     for blocks in (20, 40)
                                     for tree in (("p", "c") if repeat % 2 else ("c", "p"))]

    def test_record_holds_traced_runs_and_bench_mbps(self, monkeypatch, tmp_path):
        assert bench_pairs.main(self.fake_tools(monkeypatch, tmp_path, [])) == 0
        record = json.loads((tmp_path / "BENCH_t_pairs.json").read_text())
        assert len(record["runs"]) == 3 * 2 * len(bench_pairs.WORKLOADS)
        assert all(set(r["usage"]) == set(bench_pairs.USAGE) for r in record["runs"])
        assert set(record["faults_per_op"]) == set(bench_pairs.WORKLOADS)
        assert all(set(trees) == {"parent", "change"}
                   for trees in record["faults_per_op"].values())
        assert [(r["tree"], r["workload"], r["seed"]) for r in record["traced"]] == \
               [(tree, w, 1) for w in bench_pairs.WORKLOADS for tree in ("parent", "change")]
        assert all(r["metrics"] == {"ldpc.decode_ms_per_cb": 1.0} and r["correct"]
                   for r in record["traced"])
        assert [(r["tree"], r["blocks"], r["mbps"]) for r in record["nrphy_bench"][:4]] == \
               [("parent", 20, 20.0), ("change", 20, 40.0),
                ("parent", 40, 40.0), ("change", 40, 80.0)]
        assert len(record["nrphy_bench"]) == 2 * 2 * bench_pairs.BENCH_REPEATS

    def test_summary_prints_median_bench_mbps_per_block_count(self, monkeypatch, tmp_path,
                                                              capsys):
        assert bench_pairs.main(self.fake_tools(monkeypatch, tmp_path, [])) == 0
        lines = [line.split()[2:9] for line in capsys.readouterr().out.splitlines()
                 if "nrphy bench" in line]
        assert lines == [["20", "blocks", "20", "->", "40", "Mbps", "2.000x"],
                         ["40", "blocks", "40", "->", "80", "Mbps", "2.000x"]]

    def test_pinned_pairs_follow_the_pairs_with_both_thresholds_and_are_kept_apart(
            self, monkeypatch, tmp_path, capsys):
        envs = []
        args = self.fake_tools(monkeypatch, tmp_path, [])
        logged = bench_pairs.perfbench

        def fake_perfbench(checkout, workload, seed, trace, env=None):
            envs.append((checkout.name, workload, seed, trace, env))
            out = logged(checkout, workload, seed, trace)
            if env and checkout.name == "c":  # only the pinned pairs read 3x
                out["metrics"] = {name: {"value": 3.0, "unit": ""} for name in out["metrics"]}
            return out

        monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
        assert bench_pairs.main(args) == 0
        paired = 3 * 2 * len(bench_pairs.WORKLOADS)
        pinned = bench_pairs.PINNED_PAIRS * 2 * len(bench_pairs.WORKLOADS)
        assert bench_pairs.PINNED_PAIRS == 3
        assert {env is None for *_, env in envs[:paired]} == {True}
        assert [(tree, w, seed, trace) for tree, w, seed, trace, _ in
                envs[paired:paired + pinned]] == [
            (tree, w, seed, 0) for seed in range(1, 4) for w in bench_pairs.WORKLOADS
            for tree in (("p", "c") if seed % 2 else ("c", "p"))]
        thresholds = {"MALLOC_TRIM_THRESHOLD_": "268435456",
                      "MALLOC_MMAP_THRESHOLD_": "268435456"}
        assert all(env == thresholds for *_, env in envs[paired:paired + pinned])
        assert {env is None for *_, env in envs[paired + pinned:]} == {True}
        record = json.loads((tmp_path / "BENCH_t_pairs.json").read_text())
        assert record["pinned"]["env"] == thresholds
        assert len(record["pinned"]["runs"]) == pinned
        assert {(r["tree"], r["metrics"]["decode_mbps"]) for r in record["pinned"]["runs"]} \
            == {("parent", 1.0), ("change", 3.0)}
        assert {r["metrics"]["decode_mbps"] for r in record["runs"]} == {1.0}
        assert set(record["pinned"]["faults_per_op"]) == set(bench_pairs.WORKLOADS)
        out = capsys.readouterr().out.splitlines()
        heads = [i for i, line in enumerate(out) if "median pair ratio" in line]
        assert len(heads) == 2 and out[heads[1]].startswith("pinned, MALLOC_TRIM_THRESHOLD_")
        decode = [line for line in out if line.split()[1:2] == ["decode_mbps"]]
        assert len(decode) == 2 * len(bench_pairs.WORKLOADS)
        assert all("1.000x  0/3" in line for line in decode[:len(bench_pairs.WORKLOADS)])
        assert all("3.000x  3/3" in line for line in decode[len(bench_pairs.WORKLOADS):])

    def test_exits_1_when_only_a_traced_run_is_not_correct(self, monkeypatch, tmp_path, capsys):
        args = self.fake_tools(monkeypatch, tmp_path, [], traced_correct=False)
        assert bench_pairs.main(args) == 1
        out = capsys.readouterr().out
        assert f"parent {bench_pairs.WORKLOADS[0]} seed 1 traced" in out


class TestBenchCalibration:
    def test_each_bench_run_is_followed_by_its_trees_calibration(self, monkeypatch, capsys):
        calls = []

        def fake_run(cmd, checkout, env=None):
            """nrphy bench writes its CSV; the calibration child prints its median unit."""
            if "bench" in cmd:
                calls.append(("bench", checkout.name, cmd[cmd.index("--blocks") + 1]))
                Path(cmd[cmd.index("--out") + 1]).write_text("codeblocks,mbps\nx,10.0\n")
                return ""
            calls.append(("calibration", checkout.name))
            assert "unit_ns" in cmd[-1] and f"range({bench_pairs.CALIBRATION_REPEATS})" in cmd[-1]
            # the change ran while the host was half as fast: its unit took twice as long
            return f"{bench_pairs.REFERENCE_NS * {'p': 1, 'c': 2}[checkout.name]}\n"

        monkeypatch.setattr(bench_pairs, "_run", fake_run)
        bench = bench_pairs.bench_runs({"parent": Path("p"), "change": Path("c")})
        order = [(repeat, blocks, tree) for repeat in range(1, bench_pairs.BENCH_REPEATS + 1)
                 for blocks in bench_pairs.BENCH_BLOCKS
                 for tree in (("p", "c") if repeat % 2 else ("c", "p"))]
        assert calls == [call for _, blocks, tree in order
                         for call in (("bench", tree, str(blocks)), ("calibration", tree))]
        assert [(r["tree"], r["blocks"], r["mbps"], r["calibration_ns"]) for r in bench] == \
               [({"p": "parent", "c": "change"}[tree], blocks, 10.0,
                 bench_pairs.REFERENCE_NS * (1.0 if tree == "p" else 2.0))
                for _, blocks, tree in order]
        bench_pairs.print_bench(bench)
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [line[2:9] + line[12:18] for line in lines] == [
            [str(blocks), "blocks", "10", "->", "10", "Mbps", "1.000x",
             "calibration-scaled", "10", "->", "20", "Mbps", "2.000x"]
            for blocks in bench_pairs.BENCH_BLOCKS]

    def test_calibration_runs_in_a_child_of_the_tree(self):
        assert 0 < bench_pairs.calibration_ns(ROOT) < 1e10


def test_workloads_and_run_length_are_those_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_pairs.WORKLOADS == tuple(w["name"] for w in spec["workloads"])
    assert bench_pairs.SECONDS == spec["run_seconds"]


@pytest.mark.parametrize("args, code", [(["--help"], 0),
                                        (["--label", "t", "--parent", ".", "--pairs", "1"], 2)])
def test_script_runs_on_its_own(args, code):
    done = subprocess.run([sys.executable, "tools/bench_pairs.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
