"""Decode-chain software throughput measurement.

Symbols are generated up front; the timed region is the full decode
chain (soft demap through LDPC decode, including buffer management).
A pass over every block lasts milliseconds, so one stall of the host
would move its Mbps a lot: passes repeat until they sum to MIN_TIMED_S,
and the median pass is reported. Errors and the iteration histogram are
those of the first pass.
The FPGA accelerator this software models reports 899.9 / 900.1 Mbps for
20 / 40 code blocks at the same operating point; those figures are
printed for context only and are not reproducible in software.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from ..ldpc import as_int
from ..llr import awgn
from ..rate_adapt import HarqBufferPool
from .chain import decode_chain, encode_chain
from .config import ChainConfig
from .report import RunReport
from .sim import _rng_for

BENCH_COLUMNS = ["codeblocks", "info_bits", "elapsed_s", "mbps", "block_errors"]

FPGA_REFERENCE_MBPS = {20: 899.9, 40: 900.1}

MIN_TIMED_S = 0.25  # timed decode passes, summed


def run_throughput_bench(cfg: ChainConfig, blocks: int) -> RunReport:
    """Time the decode chain over ``blocks`` identical code blocks."""
    as_int(blocks, "blocks", 1)
    cfg = replace(cfg, blocks=1)
    report = RunReport(kind="bench", config=cfg.echo(), columns=BENCH_COLUMNS)

    rng = _rng_for(cfg.seed, blocks)
    payloads = [rng.integers(0, 2, cfg.k_prime, dtype=np.uint8) for _ in range(blocks)]
    symbol_batches = [
        awgn(encode_chain(cfg, payload).symbols, cfg.sigma2,
             np.random.SeedSequence([cfg.seed, blocks, b]))
        for b, payload in enumerate(payloads)]

    pool = HarqBufferPool()
    decode_chain(cfg, symbol_batches[0], pool)  # warm caches before timing
    passes, first = [], None
    while sum(passes) < MIN_TIMED_S:
        t0 = time.perf_counter()
        decoded = [decode_chain(cfg, symbols, pool) for symbols in symbol_batches]
        passes.append(time.perf_counter() - t0)
        first = first or decoded
    elapsed = statistics.median(passes)
    errors = 0
    for dec, payload in zip(first, payloads):
        errors += dec.block_delivered(payload).count(False)
        report.count_iterations(dec.results[0].iterations_used)

    info_bits = blocks * cfg.k_prime
    mbps = info_bits / elapsed / 1e6
    report.wall_clock_s = elapsed
    report.throughput_mbps = mbps
    report.bler = errors / blocks
    report.add_row(codeblocks=blocks, info_bits=info_bits,
                   elapsed_s=f"{elapsed:.6f}", mbps=f"{mbps:.3f}",
                   block_errors=errors)
    code, _ = cfg.code()
    ref = FPGA_REFERENCE_MBPS.get(blocks)
    context = f"{ref:.1f} Mbps" if ref else "n/a"
    report.notes.append(
        f"[bench] code: K={code.K}, circular buffer {code.N_cb} of "
        f"{code.N_full} pre-puncture bits, E_r={cfg.e_r}")
    report.notes.append(
        f"[bench] software decode chain: {blocks} blocks, {mbps:.3f} Mbps "
        f"(FPGA accelerator reference at this operating point: {context}; "
        "hardware figure, not a software target)")
    return report
