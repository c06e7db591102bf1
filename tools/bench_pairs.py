"""Run alternating perfbench pairs of two checkouts and write BENCH_<label>_pairs.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label 14 --parent ../parent
    python3 tools/bench_pairs.py --label 14 --parent ../parent --change ../change --pairs 4

For seed S in 1..``--pairs`` (default 10) and each workload, both trees
run ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0``, one
process at a time: the parent first at odd S and the change first at even
S, so that a drift of the host over the session does not favour one tree.
``--change`` defaults to this checkout. Before the first run, each tree's
decoder path is probed (``native`` for the compiled kernel, ``numpy``
otherwise), which also builds the kernel, so that no timed run includes a
compile. The file, written here, holds both paths and every run. Then the
script prints both paths and, per workload and end-to-end metric of
``BENCHMARK.json``, both trees' medians with their quartiles, the median of the
per-pair change/parent ratios, how many pairs the change won, and a mark
where that ratio is worse than the metric's bound; above each workload's
metrics, both trees' median ops attempted. It exits 1 if any run
was not ``correct`` or failed an op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from bench_record import (ROOT, SECONDS, WORKLOADS, cc_version, decoder_path, end_to_end_bounds,
                          git_commit, perfbench, worse_than_bound)

TREES = ("parent", "change")


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


def pair_runs(checkouts: dict[str, Path], pairs: int) -> list[dict]:
    """Every run of ``pairs`` seeds, in the order they ran."""
    runs = []
    for seed in range(1, pairs + 1):
        for workload in WORKLOADS:
            for tree in TREES if seed % 2 else TREES[::-1]:
                out = perfbench(checkouts[tree], workload, seed, 0)
                runs.append({"tree": tree, "workload": workload, "seed": seed,
                             "correct": out["correct"], "attempted": out["attempted"],
                             "failed": out["failed"],
                             "metrics": {k: m["value"] for k, m in out["metrics"].items()}})
    return runs


def summarize(runs: list[dict]) -> list[dict]:
    """Per workload and end-to-end metric: quartiles of each tree, median ratio, wins.

    Each row also carries both trees' median ops attempted on its workload,
    against which ``peak_rss_mb`` is read: perfbench keeps about 2 KB per op.
    """
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        values = {(run["tree"], run["seed"]): run["metrics"]
                  for run in runs if run["workload"] == workload}
        seeds = sorted({seed for _, seed in values})
        ops = [statistics.median(run["attempted"] for run in runs
                                 if run["workload"] == workload and run["tree"] == tree)
               for tree in TREES]
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
            })
    return rows


def print_summary(rows: list[dict]) -> None:
    print("change/parent, median [quartiles] of each tree, median pair ratio, wins")
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            parent, change = row["ops"]
            print(f"  {workload:10s} {'ops':12s} {parent:10.5g} -> {change:10.5g}"
                  "  median attempted")
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        mark = f"  WORSE than the {row['bound']:g} bound" if row["worse"] else ""
        print(f"  {row['workload']:10s} {row['metric']:12s}"
              f" {p2:10.5g} [{p1:.5g}, {p3:.5g}] -> {c2:10.5g} [{c1:.5g}, {c3:.5g}]"
              f"  {row['ratio']:6.3f}x  {row['wins']}/{row['pairs']}{mark}")


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    decoders = {tree: decoder_path(path) for tree, path in checkouts.items()}
    runs = pair_runs(checkouts, args.pairs)
    result = {
        "label": f"{args.label}-pairs",
        **{tree: git_commit(path) for tree, path in checkouts.items()},
        "method": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} "
                  "--trace 0, each tree in its own copy, one process at a time; for seed S "
                  f"in 1..{args.pairs} and each workload, the parent runs first at odd S and "
                  "the change first at even S",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "cc": cc_version(),
                 "decoder": decoders},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}_pairs.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    print("decoder path: " + ", ".join(f"{tree} {path}" for tree, path in decoders.items()))
    print_summary(summarize(runs))
    bad = [f"{r['tree']} {r['workload']} seed {r['seed']}" for r in runs
           if not r["correct"] or r["failed"]]
    if bad:
        print("not correct or with failed ops: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
