"""Record one BENCH_<label>.json: perfbench metrics plus `nrphy bench` Mbps.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --label 6
    python3 tools/bench_record.py --label 5 --checkout ../parent --against BENCH_6.json

For each perfbench workload the file holds the median, over ``SEEDS``,
of the untraced (``--trace 0``) end-to-end metrics, with every run's
value; the per-layer metrics of one traced (``--trace 1``) run at
``TRACE_SEED``; and the `nrphy bench` decode-chain Mbps at the paper's
20 and 40 code blocks (median of ``BENCH_REPEATS`` runs, default
config). These settings are fixed so that every record compares with
the earlier ones. ``--checkout`` measures another tree (say, a clone of
the parent commit) with this script; the file is written here. Runs are
sequential, one process at a time. ``--against`` prints each end-to-end
median as a ratio to an earlier BENCH file and marks every ratio that is
worse than the metric's bound in ``BENCHMARK.json``. The ``host`` block
names the decoder path the tree runs (``native`` for the compiled layer
kernel, ``numpy`` otherwise; probing it builds the kernel before any run
is timed) and the C compiler's ``--version`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("link_10db", "link_3db", "harq_ir")
BENCH_BLOCKS = (20, 40)
SEEDS = (901, 902, 903)
TRACE_SEED = 1
SECONDS = 25.0
BENCH_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--checkout", type=Path, default=ROOT, help="tree to measure")
    p.add_argument("--against", type=Path, help="earlier BENCH file to print ratios against")
    return p.parse_args(argv)


def _run(cmd, checkout: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    print("$", " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True,
                          text=True).stdout


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace)], checkout)
    return json.loads(out.strip().splitlines()[-1])


def nrphy_bench_mbps(checkout: Path, blocks: int) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "bench.csv"
        _run([sys.executable, "-m", "nrphy.harness.cli", "bench", "--config", "default",
              "--blocks", str(blocks), "--out", str(csv_path)], checkout)
        with open(csv_path) as fh:
            return float(next(csv.DictReader(fh))["mbps"])


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


def record(args) -> dict:
    checkout = args.checkout.resolve()
    decoder = decoder_path(checkout)
    end_to_end = {}
    for workload in WORKLOADS:
        runs = [perfbench(checkout, workload, seed, 0) for seed in SEEDS]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {"median": statistics.median(values), "unit": first["unit"],
                             "runs": values}
        end_to_end[workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
    per_layer = {}
    for workload in WORKLOADS:
        run = perfbench(checkout, workload, TRACE_SEED, 1)
        per_layer[workload] = {"correct": run["correct"], "attempted": run["attempted"],
                               "failed": run["failed"], "metrics": run["metrics"]}
    bench = {}
    for blocks in BENCH_BLOCKS:
        values = [nrphy_bench_mbps(checkout, blocks) for _ in range(BENCH_REPEATS)]
        bench[str(blocks)] = {"median_mbps": statistics.median(values), "runs": values}
    return {
        "label": args.label,
        "commit": git_commit(checkout),
        "settings": {"seeds": list(SEEDS), "trace_seed": TRACE_SEED, "seconds": SECONDS,
                     "bench_repeats": BENCH_REPEATS},
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "decoder": decoder,
                 "cc": cc_version()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "nrphy_bench": bench,
    }


def end_to_end_bounds() -> dict:
    """Metric name -> (``better``, ``bound``) from the end-to-end list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def worse_than_bound(ratio: float, better: str, bound: float) -> bool:
    """True if the new/old ``ratio`` is worse than 1 by more than ``bound``."""
    return ratio < 1 - bound if better == "higher" else ratio > 1 + bound


def print_ratios(new: dict, old: dict) -> None:
    print(f"ratios BENCH_{new['label']} / BENCH_{old['label']} (end-to-end medians)")
    bounds = end_to_end_bounds()
    for workload, cur in new["end_to_end"].items():
        for name, metric in cur["metrics"].items():
            base = old["end_to_end"][workload]["metrics"][name]["median"]
            ratio = metric["median"] / base if base else float("nan")
            mark = ""
            if name in bounds and worse_than_bound(ratio, *bounds[name]):
                mark = f"  WORSE than the {bounds[name][1]:g} bound"
            print(f"  {workload:10s} {name:12s} {base:12.6g} -> {metric['median']:12.6g}"
                  f"  {ratio:6.3f}x{mark}")
    for blocks, cur in new["nrphy_bench"].items():
        base = old["nrphy_bench"][blocks]["median_mbps"]
        print(f"  nrphy bench {blocks} blocks  {base:.4g} -> {cur['median_mbps']:.4g} Mbps"
              f"  {cur['median_mbps'] / base:6.3f}x")


def main(argv=None) -> int:
    args = parse_args(argv)
    result = record(args)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if args.against:
        print_ratios(result, json.loads(args.against.read_text()))
    ok = all(w["correct"] for part in ("end_to_end", "per_layer") for w in result[part].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
