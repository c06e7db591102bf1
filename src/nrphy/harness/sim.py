"""Link-level simulators: BLER/SNR sweeps and the HARQ buffer-pool study."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..errors import PoolExhaustedError
from ..llr import awgn
from ..rate_adapt import POOL_SLOTS, HarqBufferPool
from .chain import _block_process_id, decode_chain, encode_chain
from .config import ChainConfig
from .report import RunReport

BLER_COLUMNS = ["snr_db", "blocks", "block_errors", "bler", "avg_iterations"]
HARQ_COLUMNS = ["pool_size", "processes", "transmissions", "delivered_bits",
                "bits_per_transmission"]


def _rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def run_bler_sweep(cfg: ChainConfig, snr_list, blocks_per_point: int) -> RunReport:
    """Measure block error rate per SNR point; deterministic under seed."""
    if blocks_per_point < 1:
        raise ValueError("blocks_per_point must be >= 1")
    report = RunReport(kind="bler", config=cfg.echo(), columns=BLER_COLUMNS)
    t0 = time.perf_counter()
    info_bits = 0
    for i_snr, snr_db in enumerate(snr_list):
        point = replace(cfg, snr_db=float(snr_db))
        pool = HarqBufferPool()
        errors = 0
        iter_sum = 0
        n_blocks = 0
        for trial in range(blocks_per_point):
            rng = _rng_for(cfg.seed, i_snr, trial)
            payload = rng.integers(0, 2, cfg.k_prime * cfg.blocks, dtype=np.uint8)
            enc = encode_chain(point, payload)
            noisy = awgn(enc.symbols, point.sigma2,
                         np.random.SeedSequence([cfg.seed, i_snr, trial, 1]))
            dec = decode_chain(point, noisy, pool)
            for b, res in enumerate(dec.results):
                rx = dec.payload[b * cfg.k_prime:(b + 1) * cfg.k_prime]
                tx = payload[b * cfg.k_prime:(b + 1) * cfg.k_prime]
                if not (res.parity_ok and np.array_equal(rx, tx)):
                    errors += 1
                iter_sum += res.iterations_used
                report.count_iterations(res.iterations_used)
                n_blocks += 1
            info_bits += cfg.k_prime * cfg.blocks
        report.add_row(
            snr_db=f"{float(snr_db):g}",
            blocks=n_blocks,
            block_errors=errors,
            bler=f"{errors / n_blocks:.6g}",
            avg_iterations=f"{iter_sum / n_blocks:.4g}",
        )
    report.wall_clock_s = time.perf_counter() - t0
    if report.rows:
        report.bler = float(report.rows[-1]["bler"])
    if report.wall_clock_s > 0:
        report.throughput_mbps = info_bits / report.wall_clock_s / 1e6
    return report


@dataclass
class HarqLinkResult:
    delivered: bool
    rounds_used: int
    parity_history: list[bool]


def run_harq_link(
    cfg: ChainConfig,
    pool: HarqBufferPool,
    payload: np.ndarray,
    seed_key: tuple[int, ...],
    max_rounds: int | None = None,
) -> HarqLinkResult:
    """Drive one packet through the rv schedule with soft combining."""
    rounds = max_rounds if max_rounds is not None else len(cfg.rv_schedule)
    history: list[bool] = []
    delivered = False
    used = 0
    for r in range(rounds):
        enc = encode_chain(cfg, payload, rv_round=r)
        noisy = awgn(enc.symbols, cfg.sigma2, np.random.SeedSequence([*seed_key, r]))
        dec = decode_chain(cfg, noisy, pool, rv_round=r,
                           new_packet=(r == 0), release=False)
        used = r + 1
        history.append(all(dec.block_ok))
        if all(dec.block_ok) and np.array_equal(dec.payload, payload):
            delivered = True
            break
    for b in range(cfg.blocks):
        pool.release(_block_process_id(cfg, b))
    return HarqLinkResult(delivered=delivered, rounds_used=used, parity_history=history)


def run_harq_sim(
    cfg: ChainConfig,
    pool_size: int,
    n_processes: int,
    max_rounds: int,
    packets_per_process: int = 8,
) -> RunReport:
    """Interleaved HARQ processes contending for a limited buffer pool.

    Processes take turns transmitting one round each. A packet whose
    process could not obtain a buffer is decoded round by round without
    combining, which at the simulated operating point almost never
    succeeds. Reports delivered information per transmission.
    """
    if not 1 <= pool_size <= POOL_SLOTS:
        raise ValueError(f"pool_size must be in [1, {POOL_SLOTS}]")
    if not 1 <= n_processes <= POOL_SLOTS:
        raise ValueError(f"n_processes must be in [1, {POOL_SLOTS}]")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    cfg = replace(cfg, blocks=1)
    code, filler = cfg.code()
    pool = HarqBufferPool(num_slots=pool_size)
    scratch = HarqBufferPool(num_slots=1)
    report = RunReport(kind="harq-sim", config=cfg.echo(), columns=HARQ_COLUMNS)
    t0 = time.perf_counter()
    transmissions = 0
    delivered_bits = 0

    def process(pid: int):
        """Send one process's packets, yielding after each transmission."""
        nonlocal transmissions, delivered_bits
        run_cfg = replace(cfg, harq_process=pid)
        for packet in range(packets_per_process):
            payload = _rng_for(cfg.seed, pid, packet).integers(0, 2, cfg.k_prime, dtype=np.uint8)
            try:
                pool.acquire(pid, True, code, filler)
                bound = True
            except PoolExhaustedError:
                bound = False
            for r in range(max_rounds):
                enc = encode_chain(run_cfg, payload, rv_round=r)
                noise_key = np.random.SeedSequence([cfg.seed, pid, packet, r, 7])
                noisy = awgn(enc.symbols, cfg.sigma2, noise_key)
                if bound:
                    dec = decode_chain(run_cfg, noisy, pool, rv_round=r,
                                       new_packet=False, release=False)
                else:  # no soft buffer: this round is decoded on its own
                    dec = decode_chain(run_cfg, noisy, scratch, rv_round=r)
                transmissions += 1
                for res in dec.results:
                    report.count_iterations(res.iterations_used)
                ok = all(dec.block_ok) and np.array_equal(dec.payload, payload)
                if ok:
                    delivered_bits += cfg.k_prime
                if bound and (ok or r + 1 == max_rounds):
                    pool.release(pid)  # free before the next process's turn
                yield True
                if ok:
                    break

    turns = [process(pid) for pid in range(n_processes)]
    while turns:  # round robin, one transmission per turn, until all are done
        turns = [proc for proc in turns if next(proc, False)]

    report.wall_clock_s = time.perf_counter() - t0
    per_tx = delivered_bits / transmissions if transmissions else 0.0
    report.add_row(
        pool_size=pool_size,
        processes=n_processes,
        transmissions=transmissions,
        delivered_bits=delivered_bits,
        bits_per_transmission=f"{per_tx:.4f}",
    )
    if delivered_bits and report.wall_clock_s > 0:
        report.throughput_mbps = delivered_bits / report.wall_clock_s / 1e6
    report.notes.append(
        f"[harq-sim] pool={pool_size}: {delivered_bits} info bits over "
        f"{transmissions} transmissions ({per_tx:.1f} bits/tx)")
    return report
