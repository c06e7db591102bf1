"""Run alternating perfbench pairs of two checkouts and write BENCH_<label>_pairs.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label 14 --parent ../parent
    python3 tools/bench_pairs.py --label 14 --parent ../parent --change ../change --pairs 4

``--change`` defaults to this checkout; the workloads and the run length
are those of ``BENCHMARK.json``. Runs go one process at a time, and each
step alternates which tree runs first, so that a drift of the host over
the session does not favour one tree. The file, written here, holds:

- ``host.decoder``: each tree's decoder path, ``native`` (the compiled
  kernel) or ``numpy``, probed before any run, which builds the kernel.
- ``runs``: ``perfbench/run.py --trace 0`` on both trees for seed S in
  1..``--pairs`` (default 10) and each workload, the parent first at odd S.
  Each run holds, beside its metrics, the ``usage`` of its process and of
  the processes that one waited for: minor and major page faults and user
  and system CPU seconds.
- ``faults_per_op``: per workload, each tree's median page faults (minor
  plus major) per op attempted over its paired runs, so that a change in
  heap layout, which moves op times through page faults, can be told
  apart from a change in the code.
- ``pinned``: then ``PINNED_PAIRS`` more pairs per workload, run the same
  way with both trees under ``PINNED_ENV``, glibc's malloc thresholds
  fixed at 256 MiB, so that neither tree's heap trims its top or maps a
  large block of its own, which have moved op times through page faults
  by heap layout alone: the ``env``, the ``runs`` and their
  ``faults_per_op``. They are kept beside the paired runs, never in
  their place; a claim and the bounds of ``BENCHMARK.json`` are read
  from the paired runs.
- ``traced``: then one ``--trace 1`` pair at seed 1, whose per-layer
  metrics give the time per stage.
- ``nrphy_bench``: last, ``nrphy bench --config default`` Mbps at the
  paper's 20 and 40 code blocks, ``BENCH_REPEATS`` runs per tree, the
  parent first at odd repeats. Each run holds beside its ``mbps`` the
  ``calibration_ns`` timed right after it in a fresh process of the same
  tree: the median of ``CALIBRATION_REPEATS`` timings of perfbench's
  calibration unit, which tracks the host's speed, so that a slow minute
  of the host can be told from a slow change.

The trace seed, block counts and repeats are those of ``BENCH_5``-``BENCH_11.json``.
It prints both decoder paths; per workload, both trees' median ops attempted
and page faults per op and, per end-to-end metric of ``BENCHMARK.json``,
both trees' medians and quartiles, the median pair ratio, the change's wins
and a mark where that ratio is worse than the metric's bound, for the
paired runs and then for the pinned ones; per block count, both trees'
median ``nrphy bench`` Mbps and their ratio, raw and scaled as perfbench
scales its times, by the run's calibration time over ``REFERENCE_NS``. It
exits 1 if any paired, pinned or traced run was not ``correct`` or failed
an op.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.calibration import REFERENCE_NS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
SECONDS = float(BENCHMARK["run_seconds"])
BENCH_BLOCKS = (20, 40)
BENCH_REPEATS = 3
CALIBRATION_REPEATS = 5  # timings of the calibration unit after each nrphy bench run
TREES = ("parent", "change")
USAGE = ("minflt", "majflt", "utime", "stime")  # the getrusage fields each run records
PINNED_PAIRS = 3
PINNED_ENV = {"MALLOC_TRIM_THRESHOLD_": "268435456", "MALLOC_MMAP_THRESHOLD_": "268435456"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>_pairs.json")
    p.add_argument("--parent", type=Path, required=True, help="the tree measured against")
    p.add_argument("--change", type=Path, default=ROOT, help="the tree measured")
    p.add_argument("--pairs", type=int, default=10, help="seeds 1..PAIRS, two or more")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs needs two or more pairs for quartiles")
    return args


def _run(cmd, checkout: Path, env: dict | None = None) -> str:
    """``cmd``'s output, run in ``checkout`` on its ``src/``, with the variables ``env`` set."""
    env = env or {}
    print("$", *(f"{k}={v}" for k, v in env.items()), *cmd, file=sys.stderr, flush=True)
    return subprocess.run(cmd, cwd=checkout, env=dict(os.environ, **env,
                                                      PYTHONPATH=str(checkout / "src")),
                          check=True, capture_output=True, text=True).stdout


def perfbench(checkout: Path, workload: str, seed: int, trace: int,
              env: dict | None = None) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace)], checkout, env)
    return json.loads(out.strip().splitlines()[-1])


def nrphy_bench_mbps(checkout: Path, blocks: int) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "bench.csv"
        _run([sys.executable, "-m", "nrphy.harness.cli", "bench", "--config", "default",
              "--blocks", str(blocks), "--out", str(csv_path)], checkout)
        with open(csv_path) as fh:
            return float(next(csv.DictReader(fh))["mbps"])


def calibration_ns(checkout: Path) -> float:
    """The median of ``CALIBRATION_REPEATS`` timings of ``checkout``'s calibration unit, in ns."""
    script = ("import statistics; from perfbench.calibration import unit_ns; "
              f"print(statistics.median(unit_ns() for _ in range({CALIBRATION_REPEATS})))")
    return float(_run([sys.executable, "-c", script], checkout))


def scaled_mbps(run: dict) -> float:
    """An ``nrphy bench`` run's Mbps on a host on which the calibration unit takes REFERENCE_NS."""
    return run["mbps"] * run["calibration_ns"] / REFERENCE_NS


def decoder_path(checkout: Path) -> str:
    """"native" or "numpy": the decoder path of ``checkout`` here; "numpy" if it has no kernel."""
    probe = ("import nrphy.ldpc as l; n = getattr(l, '_native', None); "
             "print('native' if n and n.library() else 'numpy')")
    return _run([sys.executable, "-c", probe], checkout).strip()


def cc_version() -> str | None:
    """First line of ``$CC --version`` (``cc`` if CC is unset), or None without a compiler."""
    try:
        out = subprocess.run([*shlex.split(os.environ.get("CC") or "cc"), "--version"],
                             check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.splitlines()[0] if out else None


def git_commit(checkout: Path) -> str | None:
    """HEAD's hash, with ``-dirty`` appended when the tree has uncommitted changes."""
    try:
        return subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                               "--abbrev=40"], check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def end_to_end_bounds() -> dict:
    """Metric name -> (``better``, ``bound``) from the end-to-end list of BENCHMARK.json."""
    return {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}


def worse_than_bound(ratio: float, better: str, bound: float) -> bool:
    """True if the change/parent ``ratio`` is worse than 1 by more than ``bound``."""
    return ratio < 1 - bound if better == "higher" else ratio > 1 + bound


def pair_runs(checkouts: dict[str, Path], pairs: int, trace: int = 0,
              env: dict | None = None) -> list[dict]:
    """Every run of seeds 1..``pairs``, in the order they ran, each with ``env`` added.

    A run's ``usage`` is the growth of this process's RUSAGE_CHILDREN over
    its perfbench call: runs go one at a time, so it is that child's, with
    the setup process perfbench waits for.
    """
    runs = []
    for seed in range(1, pairs + 1):
        for workload in WORKLOADS:
            for tree in TREES if seed % 2 else TREES[::-1]:
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                out = perfbench(checkouts[tree], workload, seed, trace, env)
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                runs.append({"tree": tree, "workload": workload, "seed": seed,
                             "correct": out["correct"], "attempted": out["attempted"],
                             "failed": out["failed"],
                             "metrics": {k: m["value"] for k, m in out["metrics"].items()},
                             "usage": {k: round(getattr(after, f"ru_{k}")
                                                - getattr(before, f"ru_{k}"), 3)
                                       for k in USAGE}})
    return runs


def bench_runs(checkouts: dict[str, Path]) -> list[dict]:
    """``nrphy bench`` Mbps of each tree at each of ``BENCH_BLOCKS``, in the order they ran,
    each with the calibration time taken right after it."""
    return [{"tree": tree, "blocks": blocks, "repeat": repeat,
             "mbps": nrphy_bench_mbps(checkouts[tree], blocks),
             "calibration_ns": calibration_ns(checkouts[tree])}
            for repeat in range(1, BENCH_REPEATS + 1) for blocks in BENCH_BLOCKS
            for tree in (TREES if repeat % 2 else TREES[::-1])]


def summarize(runs: list[dict]) -> list[dict]:
    """Per workload and end-to-end metric: quartiles of each tree, median ratio, wins.

    Each row also carries both trees' median ops attempted on its workload,
    against which ``peak_rss_mb`` is read (perfbench keeps about 2 KB per
    op), and their median page faults per op.
    """
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        values = {(run["tree"], run["seed"]): run["metrics"]
                  for run in runs if run["workload"] == workload}
        seeds = sorted({seed for _, seed in values})
        per_tree = [[run for run in runs if run["workload"] == workload and run["tree"] == tree]
                    for tree in TREES]
        ops = [statistics.median(run["attempted"] for run in part) for part in per_tree]
        faults = [statistics.median(map(faults_per_op, part)) for part in per_tree]
        for name, (better, bound) in end_to_end_bounds().items():
            parent, change = ([values[tree, seed][name] for seed in seeds] for tree in TREES)
            ratios = [c / p for c, p in zip(change, parent)]
            ratio = statistics.median(ratios)
            rows.append({
                "workload": workload, "metric": name,
                "parent": statistics.quantiles(parent, n=4, method="inclusive"),
                "change": statistics.quantiles(change, n=4, method="inclusive"),
                "ratio": ratio,
                "wins": sum(r > 1 if better == "higher" else r < 1 for r in ratios),
                "pairs": len(seeds),
                "worse": worse_than_bound(ratio, better, bound),
                "bound": bound,
                "ops": ops,
                "faults": faults,
            })
    return rows


def faults_per_op(run: dict) -> float:
    """A run's minor and major page faults per op attempted."""
    return (run["usage"]["minflt"] + run["usage"]["majflt"]) / max(run["attempted"], 1)


def faults_by_workload(rows: list[dict]) -> dict:
    """Workload -> tree -> median page faults per op, from ``summarize``'s rows."""
    return {row["workload"]: dict(zip(TREES, row["faults"])) for row in rows}


def print_summary(rows: list[dict], title: str = "") -> None:
    print(f"{title}change/parent, median [quartiles] of each tree, median pair ratio, wins")
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            parent, change = row["ops"]
            print(f"  {workload:10s} {'ops':12s} {parent:10.5g} -> {change:10.5g}"
                  "  median attempted")
            parent, change = row["faults"]
            print(f"  {workload:10s} {'faults/op':12s} {parent:10.5g} -> {change:10.5g}"
                  "  median page faults per op")
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        mark = f"  WORSE than the {row['bound']:g} bound" if row["worse"] else ""
        print(f"  {row['workload']:10s} {row['metric']:12s}"
              f" {p2:10.5g} [{p1:.5g}, {p3:.5g}] -> {c2:10.5g} [{c1:.5g}, {c3:.5g}]"
              f"  {row['ratio']:6.3f}x  {row['wins']}/{row['pairs']}{mark}")


def print_bench(bench: list[dict]) -> None:
    for blocks in BENCH_BLOCKS:
        runs = [[run for run in bench if run["blocks"] == blocks and run["tree"] == tree]
                for tree in TREES]
        parent, change = (statistics.median(run["mbps"] for run in part) for part in runs)
        scaled_parent, scaled_change = (statistics.median(map(scaled_mbps, part))
                                        for part in runs)
        print(f"  nrphy bench {blocks} blocks {parent:10.4g} -> {change:10.4g} Mbps"
              f"  {change / parent:6.3f}x  median of {BENCH_REPEATS};"
              f" calibration-scaled {scaled_parent:10.4g} -> {scaled_change:10.4g} Mbps"
              f"  {scaled_change / scaled_parent:6.3f}x")


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    decoders = {tree: decoder_path(path) for tree, path in checkouts.items()}
    runs = pair_runs(checkouts, args.pairs)
    pinned = pair_runs(checkouts, PINNED_PAIRS, env=PINNED_ENV)
    traced = pair_runs(checkouts, 1, trace=1)
    bench = bench_runs(checkouts)
    rows, pinned_rows = summarize(runs), summarize(pinned)
    result = {
        "label": f"{args.label}-pairs",
        **{tree: git_commit(path) for tree, path in checkouts.items()},
        "method": f"perfbench/run.py --seconds {SECONDS:g} --trace 0 at seeds 1..{args.pairs}, "
                  f"then {PINNED_PAIRS} pinned pairs with both malloc thresholds at 256 MiB, "
                  "then --trace 1 at seed 1; last, nrphy bench --config default --blocks 20 and "
                  f"40, {BENCH_REPEATS} repeats, each followed by the median of "
                  f"{CALIBRATION_REPEATS} calibration units in the same tree. One process at a "
                  "time, each tree in its own copy, the parent first at odd seeds and repeats",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "cc": cc_version(), "decoder": decoders},
        "runs": runs,
        "faults_per_op": faults_by_workload(rows),
        "pinned": {"env": PINNED_ENV, "runs": pinned,
                   "faults_per_op": faults_by_workload(pinned_rows)},
        "traced": traced,
        "nrphy_bench": bench,
    }
    out = ROOT / f"BENCH_{args.label}_pairs.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    print("decoder path: " + ", ".join(f"{tree} {path}" for tree, path in decoders.items()))
    print_summary(rows)
    print_summary(pinned_rows, title="pinned, " + ", ".join(f"{k}={v}" for k, v in
                                                           PINNED_ENV.items()) + ": ")
    print_bench(bench)
    bad = [f"{r['tree']} {r['workload']} seed {r['seed']}{kind}"
           for kind, part in (("", runs), (" pinned", pinned), (" traced", traced))
           for r in part
           if not r["correct"] or r["failed"]]
    if bad:
        print("not correct or with failed ops: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
