"""Stage-resolved benchmark of the nrphy link chain.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload link_10db --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each op starts when the previous one
has returned. The inputs of one pass (payloads and noise keys) are made
from ``--seed``; the run repeats whole passes until ``--seconds`` have gone
by, and checks every op's outcome (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from start to the first op: imports, table
load, code construction, inputs and warm-up), ``info_mbps``,
``decode_mbps`` and ``encode_mbps`` (offered info bits per second of op
time, of time inside ``decode_chain`` and of time inside
``encode_chain``), ``op_ms_p50``, ``op_ms_p90`` and ``peak_rss_mb``.
Times are scaled to a reference host speed (see ``calibration.py``); the
unscaled figures are printed as context.
``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics of the traced passes plus ``trace.overhead_ratio``;
its spans go to ``.perfbench_out/``. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
# Reported for the FPGA accelerator at 20 / 40 code blocks (K'=8448, rate
# 2/3, QPSK, 10 dB). Printed as context only; never a metric or a target.
FPGA_REFERENCE_MBPS = {20: 899.9, 40: 900.1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import nrphy from it."""
    src = ROOT / "src"
    if not (src / "nrphy" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/nrphy not found; run from the root of a checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import nrphy

    if not Path(nrphy.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported nrphy from {nrphy.__file__}, not from {src}")


def attempt(runner, inp):
    """Run and check one op: its record and its problems (an exception is one)."""
    try:
        record = runner.run_op(inp)
        return record, runner.check(inp, record)
    except Exception as exc:  # any exception is a failed op
        traceback.print_exc()
        return None, [f"{type(exc).__name__}: {exc}"]


def set_up(wl, seed):
    """Everything before the first timed op, in this process.

    The warm-up ops are the reference seed's first ops, so every run, at
    any seed, also checks them bit-exactly. Returns the runner and the
    warm-up ops' problems.
    """
    from perfbench.workloads import REFERENCE_SEED, WARMUP_OPS, Runner, load_reference

    reference = load_reference(wl.name)
    warm = Runner(wl, REFERENCE_SEED, reference)
    problems = [attempt(warm, inp)[1] for inp in warm.inputs[:WARMUP_OPS]]
    return Runner(wl, seed, reference if seed == REFERENCE_SEED else None), problems


def measure_setup_s(args) -> float:
    """Median start-to-first-op time of fresh interpreter processes.

    Each is scaled to reference host speed by the median of three
    calibration units run right after its set-up.
    """
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
        start = time.monotonic()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or not out.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        _, ready, factor = out.split()
        times.append((float(ready) - start) * float(factor))
    return statistics.median(times)


def measure(runner, seconds: float, trace: bool):
    """Run whole passes until ``seconds`` have gone by; traced passes alternate."""
    from perfbench import calibration
    from perfbench.spans import layer_sites

    deadline = time.perf_counter() + seconds
    traced_ops: set[int] = set()
    first_pass: list = []
    attempted = failed = 0
    problems: list[str] = []
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 0
        with runner.rec.patched(layer_sites()) if traced else nullcontext():
            for inp in runner.inputs:
                attempted += 1
                record, found = attempt(runner, inp)
                runner.scale[runner.rec.op_id] = calibration.scale()
                if traced:
                    traced_ops.add(runner.rec.op_id)
                if n_pass == 0:
                    first_pass.append(record)
                if found:
                    failed += 1
                    problems.extend(f"op {inp.index}: {p}" for p in found)
        n_pass += 1
        if time.perf_counter() >= deadline and (not trace or n_pass % 2 == 0):
            break
    return traced_ops, first_pass, attempted, failed, problems


def chain_metrics(runner, op_ids: set, scaled: bool = True) -> dict:
    """Op latencies and chain-level throughput over ``op_ids``.

    Each op's times (the op, and its time inside ``encode_chain`` and
    ``decode_chain``) are scaled to reference host speed by the factor
    measured right after it (see ``calibration.py``); ``scaled=False``
    keeps them as measured. Each input runs once per pass and contributes
    the median of its passes. Throughputs are one pass's info bits over
    the sum of those medians; the percentiles are over the inputs.
    """
    per_op: dict[int, list[float]] = {}  # op id -> [op, encode_chain, decode_chain] ns
    slot = {"op": 0, "encode_chain": 1, "decode_chain": 2}
    for name, start, end, _, op in runner.rec.spans:
        if op in op_ids and name in slot:
            per_op.setdefault(op, [0, 0, 0])[slot[name]] += end - start
    by_input: dict[int, list[list[float]]] = {}
    for op, times in per_op.items():
        factor = runner.scale[op] if scaled else 1.0
        by_input.setdefault(runner.input_of[op], []).append([t * factor for t in times])
    typical = [[statistics.median(col) for col in zip(*runs)] for runs in by_input.values()]
    op_ns, enc_ns, dec_ns = (sum(col) for col in zip(*typical))
    bits = runner.wl.info_bits_per_op * len(typical)
    op_ms = [times[0] / 1e6 for times in typical]
    return {
        "info_mbps": (bits / op_ns * 1e3, "Mbps"),
        "decode_mbps": (bits / dec_ns * 1e3, "Mbps"),
        "encode_mbps": (bits / enc_ns * 1e3, "Mbps"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10)[8], "ms"),
    }


def context(wl, args) -> dict:
    import numpy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "code_blocks_per_op": wl.cfg.blocks, "k_prime": wl.cfg.k_prime, "snr_db": wl.cfg.snr_db,
        "harq_rounds": wl.harq_rounds, "ops_per_pass": wl.ops_per_pass,
        "load": "closed loop, one caller, one process",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import calibration
    from perfbench.spans import layer_metrics
    from perfbench.workloads import WORKLOADS, outcome_summary

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        set_up(wl, args.seed)
        ready = time.monotonic()
        print(f"ready {ready!r} {statistics.median(calibration.scale() for _ in range(3))!r}",
              flush=True)
        return 0

    setup_s = measure_setup_s(args) if not args.trace else None
    runner, warm_problems = set_up(wl, args.seed)
    traced_ops, first_pass, attempted, failed, problems = measure(
        runner, args.seconds, bool(args.trace))
    attempted += len(warm_problems)
    failed += sum(1 for found in warm_problems if found)
    problems += [f"warm-up op {i}: {p}" for i, found in enumerate(warm_problems) for p in found]
    all_ops = {span[4] for span in runner.rec.spans if span[0] == "op"}
    ctx = context(wl, args)

    if args.trace:
        metrics = layer_metrics(runner.rec, traced_ops)
        traced = chain_metrics(runner, traced_ops)["info_mbps"][0]
        untraced = chain_metrics(runner, all_ops - traced_ops)["info_mbps"][0]
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        runner.rec.write_jsonl(spans_path, {"context": ctx, "traced_ops": sorted(traced_ops)})
    else:
        metrics = chain_metrics(runner, all_ops)
        ctx["ops_timed"] = len(all_ops)
        ctx["unscaled"] = {name: value for name, (value, _) in
                           chain_metrics(runner, all_ops, scaled=False).items()}
        ctx["calibration_scale_median"] = statistics.median(runner.scale.values())
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    fpga = " / ".join(f"{v} Mbps at {k} code blocks" for k, v in FPGA_REFERENCE_MBPS.items())
    print(f"context: {json.dumps(ctx)}")
    print(f"context: the FPGA accelerator reports {fpga} at the paper's operating point; "
          "a hardware figure, printed for reference only")
    summary = outcome_summary([r for r in first_pass if r is not None])
    print(f"outcome: {json.dumps(summary)}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
