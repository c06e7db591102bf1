"""Link-level simulators: BLER/SNR sweeps and the HARQ buffer-pool study."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import zip_longest

import numpy as np

from ..ldpc import as_int
from ..llr import awgn
from ..rate_adapt import POOL_SLOTS, HarqBufferPool
from .chain import DecodeOutput, decode_chain, encode_chain
from .config import ChainConfig
from .report import RunReport

BLER_COLUMNS = ["snr_db", "blocks", "block_errors", "bler", "avg_iterations"]
HARQ_COLUMNS = ["pool_size", "processes", "transmissions", "delivered_bits",
                "bits_per_transmission"]


def _rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def transmit(cfg: ChainConfig, payload: np.ndarray, noise_key: tuple[int, ...],
             pool: HarqBufferPool, rv_round: int = 0, new_packet: bool = True,
             release: bool = True) -> DecodeOutput:
    """One simulated round: encode, add AWGN seeded by ``noise_key``, decode.

    ``encode_chain``, ``awgn`` and ``decode_chain`` are looked up in this
    module on every call, so a wrapper set on them sees every round.
    """
    enc = encode_chain(cfg, payload, rv_round)
    noisy = awgn(enc.symbols, cfg.sigma2, np.random.SeedSequence(noise_key))
    return decode_chain(cfg, noisy, pool, rv_round, new_packet, release)


def run_bler_sweep(cfg: ChainConfig, snr_list, blocks_per_point: int) -> RunReport:
    """Measure block error rate per SNR point; deterministic under seed."""
    as_int(blocks_per_point, "blocks_per_point", 1)
    report = RunReport(kind="bler", config=cfg.echo(), columns=BLER_COLUMNS)
    n_blocks = blocks_per_point * cfg.blocks
    pool = HarqBufferPool()
    t0 = time.perf_counter()
    for i_snr, snr_db in enumerate(snr_list):
        point = replace(cfg, snr_db=float(snr_db))
        errors = iter_sum = 0
        for trial in range(blocks_per_point):
            rng = _rng_for(cfg.seed, i_snr, trial)
            payload = rng.integers(0, 2, cfg.k_prime * cfg.blocks, dtype=np.uint8)
            dec = transmit(point, payload, (cfg.seed, i_snr, trial, 1), pool)
            errors += dec.block_delivered(payload).count(False)
            for res in dec.results:
                iter_sum += res.iterations_used
                report.count_iterations(res.iterations_used)
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
        info_bits = len(report.rows) * n_blocks * cfg.k_prime
        report.throughput_mbps = info_bits / report.wall_clock_s / 1e6
    return report


@dataclass
class HarqLinkResult:
    delivered: bool
    parity_history: list[bool]

    @property
    def rounds_used(self) -> int:
        return len(self.parity_history)


def run_harq_link(
    cfg: ChainConfig,
    pool: HarqBufferPool,
    payload: np.ndarray,
    seed_key: tuple[int, ...],
    max_rounds: int | None = None,
) -> HarqLinkResult:
    """Drive one packet through the rv schedule with soft combining."""
    rounds = len(cfg.rv_schedule) if max_rounds is None else as_int(max_rounds, "max_rounds", 1)
    history: list[bool] = []
    delivered = False
    before = dict(pool.bindings)
    try:
        for r in range(rounds):
            dec = transmit(cfg, payload, (*seed_key, r), pool, r,
                           new_packet=(r == 0), release=False)
            history.append(all(dec.block_ok))
            delivered = all(dec.block_delivered(payload))
            if delivered:
                break
    finally:  # release every buffer this call bound, even when a round raised
        for pid in [pid for pid, buf in pool.bindings.items() if buf is not before.get(pid)]:
            pool.release(pid)
    return HarqLinkResult(delivered=delivered, parity_history=history)


def run_harq_sim(
    cfg: ChainConfig,
    pool_sizes,
    n_processes: int,
    max_rounds: int,
    packets_per_process: int = 8,
) -> RunReport:
    """Interleaved HARQ processes contending for a limited buffer pool, per pool size.

    For each size in ``pool_sizes``, in order, processes take turns
    transmitting one round each. A packet whose process could not obtain
    a buffer is decoded round by round without combining, which at the
    simulated operating point almost never succeeds. Reports one row and
    one note per size, delivered information per transmission, and one
    iteration histogram, wall clock and throughput for the whole sweep.
    Every size is checked before any round runs.
    """
    pool_sizes = [as_int(size, "pool_size", 1, POOL_SLOTS + 1) for size in pool_sizes]
    as_int(n_processes, "n_processes", 1, POOL_SLOTS + 1)
    as_int(max_rounds, "max_rounds", 1)
    as_int(packets_per_process, "packets_per_process", 1)
    cfg = replace(cfg, blocks=1)
    report = RunReport(kind="harq-sim", config=cfg.echo(), columns=HARQ_COLUMNS)

    def process(pool: HarqBufferPool, pid: int):
        """Send one process's packets, yielding whether each round delivered."""
        run_cfg = replace(cfg, harq_process=pid)
        for packet in range(packets_per_process):
            payload = _rng_for(cfg.seed, pid, packet).integers(0, 2, cfg.k_prime, dtype=np.uint8)
            # round 0 binds a free buffer; without one, each round is decoded on its own
            bound = len(pool.bindings) < pool.num_slots
            for r in range(max_rounds):
                dec = transmit(run_cfg, payload, (cfg.seed, pid, packet, r, 7),
                               pool if bound else HarqBufferPool(), r,
                               new_packet=(r == 0 or not bound), release=False)
                ok = all(dec.block_delivered(payload))
                if bound and (ok or r + 1 == max_rounds):
                    pool.release(pid)  # free before the next process's turn
                report.count_iterations(dec.results[0].iterations_used)
                yield ok
                if ok:
                    break

    t0 = time.perf_counter()
    for pool_size in pool_sizes:
        pool = HarqBufferPool(num_slots=pool_size)
        # round robin, one transmission per process per turn, until all are done
        turns = zip_longest(*(process(pool, pid) for pid in range(n_processes)))
        sent = [ok for turn in turns for ok in turn if ok is not None]
        transmissions = len(sent)
        delivered_bits = cfg.k_prime * sum(sent)
        per_tx = delivered_bits / transmissions if transmissions else 0.0
        report.add_row(
            pool_size=pool_size,
            processes=n_processes,
            transmissions=transmissions,
            delivered_bits=delivered_bits,
            bits_per_transmission=f"{per_tx:.4f}",
        )
        report.notes.append(
            f"[harq-sim] pool={pool_size}: {delivered_bits} info bits over "
            f"{transmissions} transmissions ({per_tx:.1f} bits/tx)")
    report.wall_clock_s = time.perf_counter() - t0
    delivered_bits = sum(row["delivered_bits"] for row in report.rows)
    if delivered_bits and report.wall_clock_s > 0:
        report.throughput_mbps = delivered_bits / report.wall_clock_s / 1e6
    return report
