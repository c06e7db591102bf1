"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Operating points marked "pre-measured" were fixed by
offline scans with the same oracles used here and are frozen below.
"""

import math
import time
from dataclasses import replace

import numpy as np

from nrphy.harness import (
    ChainConfig,
    decode_chain,
    encode_chain,
    run_bler_sweep,
    run_harq_link,
    run_harq_sim,
    run_throughput_bench,
)
from nrphy.ldpc import check_node_update
from nrphy.llr import (
    DemapperParams,
    EqualizedSymbols,
    awgn,
    llr_estimate,
    modulate,
    pack_bit_words,
    pack_llr_words,
    quantize,
    unpack_bit_words,
    unpack_llr_words,
)
from nrphy.rate_adapt import HarqBufferPool, deinterleave, interleave
from nrphy.scramble import ScramblingIdentity, sequence

from test_ldpc import brute_force_check_node
from test_llr import all_labels, maxlog_oracle, noisy_symbols
from test_scramble import gold_oracle


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# Pre-measured HARQ operating point: BG2, K'=192, E_r=256 (rate 0.75,
# heavily punctured) at 0 dB Es/N0. Measured single-transmission BLER is
# 1.0; rv schedule {0,2,3,1} converges by round 3 in virtually all trials.
HARQ_POINT = dict(k_prime=192, target_rate=0.75, e_r=256, q_m=2,
                  rv_schedule=(0, 2, 3, 1), blocks=1, snr_db=0.0)


def test_criterion_1_noiseless_roundtrip_100_configs():
    t0 = time.time()
    rng = np.random.default_rng(20250808)
    failures = 0
    checked = 0
    for i in range(100):
        q_m = int(rng.choice([2, 4, 6, 8]))
        if i % 2 == 0:  # force BG2 half the time via short blocks
            k_prime = int(rng.integers(24, 1500))
            target_rate = 0.45
        else:  # long blocks select BG1
            k_prime = int(rng.integers(3900, 8448))
            target_rate = 0.7
        e_r = int(math.ceil(k_prime * float(rng.uniform(1.15, 2.2))))
        e_r += (-e_r) % q_m
        cfg = ChainConfig(k_prime=k_prime, target_rate=target_rate, e_r=e_r,
                          q_m=q_m, rv_schedule=(0,), snr_db=50.0,
                          seed=int(rng.integers(1 << 30)))
        payload = np.random.default_rng(cfg.seed).integers(
            0, 2, k_prime, dtype=np.uint8)
        enc = encode_chain(cfg, payload)
        dec = decode_chain(cfg, enc.symbols, HarqBufferPool())
        checked += 1
        if not (all(dec.block_ok)
                and np.array_equal(dec.payload, payload)
                and dec.results[0].iterations_used <= 2):
            failures += 1
    elapsed = time.time() - t0
    report("criterion 1 (noiseless round-trip x100)",
           failures == 0 and checked == 100 and elapsed < 60,
           f"{checked} configs, {failures} failures, {elapsed:.1f}s")


def test_criterion_2_benchmark_configuration():
    t0 = time.time()
    cfg = ChainConfig()  # K'=8448, E_r=12672, QPSK, 10 dB
    sweep = run_bler_sweep(cfg, [10.0], 200)
    errors = int(sweep.rows[0]["block_errors"])

    mbps = {}
    for blocks in (20, 40):
        rep = run_throughput_bench(cfg, blocks)
        mbps[blocks] = rep.throughput_mbps
        for line in rep.notes:
            print(line)
    elapsed = time.time() - t0
    report("criterion 2 (8448-bit block config, 200 blocks @ 10 dB)",
           errors == 0 and elapsed < 120,
           f"0 of 200 expected errors -> got {errors}; software "
           f"{mbps[20]:.1f}/{mbps[40]:.1f} Mbps for 20/40 blocks vs "
           f"899.9/900.1 Mbps FPGA reference (not asserted); {elapsed:.1f}s")


def test_criterion_3_llr_approximation_vs_brute_force():
    t0 = time.time()
    sign_ok = True
    for q_m in (2, 4, 6, 8):
        sigma2 = 0.05
        sym = modulate(all_labels(q_m).reshape(-1), q_m)
        approx = llr_estimate(sym, DemapperParams.for_noise(q_m, sigma2))
        ref = maxlog_oracle(sym.values(), q_m, sigma2)
        sign_ok &= bool(np.array_equal(np.sign(approx), np.sign(ref)))

    rates = {}
    for q_m, snr_db in ((2, 4.0), (4, 12.0), (6, 20.0), (8, 24.0)):
        sigma2 = 10 ** (-snr_db / 10)
        rng = np.random.default_rng(99)
        sym = noisy_symbols(q_m, sigma2, 10_000, rng)
        approx = llr_estimate(sym, DemapperParams.for_noise(q_m, sigma2)).astype(int)
        ref = quantize(maxlog_oracle(sym.values(), q_m, sigma2)).astype(int)
        rates[q_m] = float((np.abs(approx - ref) <= 2).mean())
    elapsed = time.time() - t0
    ok = sign_ok and all(r >= 0.95 for r in rates.values()) and elapsed < 60
    report("criterion 3 (max-log agreement)", ok,
           "exhaustive signs " + ("match" if sign_ok else "MISMATCH") + "; "
           + " ".join(f"Qm{q}:{r*100:.1f}%" for q, r in rates.items())
           + f" within 2 LSBs (floor 95%); {elapsed:.1f}s")


def test_criterion_4_harq_incremental_redundancy():
    t0 = time.time()
    cfg = ChainConfig(**HARQ_POINT)
    pool = HarqBufferPool()

    single_fail = 0
    trials = 500
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([41, t]))
        payload = rng.integers(0, 2, cfg.k_prime, dtype=np.uint8)
        enc = encode_chain(cfg, payload)
        noisy = awgn(enc.symbols, cfg.sigma2, np.random.SeedSequence([42, t]))
        dec = decode_chain(cfg, noisy, pool)
        if not (all(dec.block_ok) and np.array_equal(dec.payload, payload)):
            single_fail += 1
    single_bler = single_fail / trials

    combined_fail = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([43, t]))
        payload = rng.integers(0, 2, cfg.k_prime, dtype=np.uint8)
        res = run_harq_link(cfg, pool, payload, seed_key=(44, t), max_rounds=4)
        if not res.delivered:
            combined_fail += 1
    combined_bler = combined_fail / trials
    elapsed = time.time() - t0
    report("criterion 4 (HARQ incremental redundancy)",
           single_bler >= 0.9 and combined_bler <= 0.1 and elapsed < 120,
           f"single-tx BLER {single_bler:.3f} (>=0.9), 4-round BLER "
           f"{combined_bler:.3f} (<=0.1) over {trials} trials; {elapsed:.1f}s")


def test_criterion_5_virtual_memory_trend():
    t0 = time.time()
    cfg = ChainConfig(**HARQ_POINT)
    sizes = (1, 2, 4, 8, 16)
    means = {}
    for size in sizes:
        samples = []
        for s in range(20):
            rep = run_harq_sim(replace(cfg, seed=5000 + s), [size], n_processes=8,
                               max_rounds=4, packets_per_process=2)
            samples.append(float(rep.rows[0]["bits_per_transmission"]))
        means[size] = float(np.mean(samples))
    nondecreasing = all(means[a] <= means[b] + 1e-9
                        for a, b in zip(sizes, sizes[1:]))
    ratio = means[1] / means[16] if means[16] else float("inf")
    elapsed = time.time() - t0
    report("criterion 5 (throughput vs virtual buffers)",
           nondecreasing and ratio < 0.25 and elapsed < 180,
           "bits/tx " + " ".join(f"{k}:{v:.1f}" for k, v in means.items())
           + f"; pool1/pool16 = {ratio:.2f} (<0.25); {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence_suites():
    t0 = time.time()

    gold_ok = True
    rng = np.random.default_rng(6)
    for _ in range(10):
        ident = ScramblingIdentity(int(rng.integers(0, 1 << 16)),
                                   int(rng.integers(0, 2)),
                                   int(rng.integers(0, 1008)))
        gold_ok &= bool(np.array_equal(sequence(ident, 4096),
                                       gold_oracle(ident.c_init, 4096)))

    cn_ok = True
    for _ in range(1000):
        deg = int(rng.integers(2, 24))
        raws = rng.integers(-31, 32, deg).astype(np.int8)
        cn_ok &= bool(np.array_equal(check_node_update(raws),
                                     brute_force_check_node(raws)))

    perm_ok = True
    for q_m in (2, 4, 6, 8):
        for groups in (1, 3, 17, 64, 4096 // q_m):
            x = np.arange(q_m * groups)
            perm_ok &= bool(np.array_equal(deinterleave(interleave(x, q_m), q_m), x))

    pack_ok = True
    raw = rng.integers(-31, 32, 9999).astype(np.int8)
    pack_ok &= bool(np.array_equal(unpack_llr_words(pack_llr_words(raw), 9999), raw))
    bits = rng.integers(0, 2, 9999).astype(np.uint8)
    pack_ok &= bool(np.array_equal(unpack_bit_words(pack_bit_words(bits), 9999), bits))

    elapsed = time.time() - t0
    ok = gold_ok and cn_ok and perm_ok and pack_ok and elapsed < 30
    report("criterion 6 (oracle equivalence)", ok,
           f"gold:{gold_ok} check-node:{cn_ok} interleave:{perm_ok} "
           f"packing:{pack_ok}; {elapsed:.1f}s")


def test_criterion_7_fixed_point_contracts():
    t0 = time.time()

    # quantizer: monotone, idempotent, saturating at +/-7.75
    grid = np.linspace(-40, 40, 40001)
    q = quantize(grid)
    mono = bool(np.all(np.diff(q.astype(int)) >= 0))
    idem = bool(np.array_equal(quantize(q / 4.0), q))
    sat = int(quantize(1e9)) == 31 and int(quantize(-1e9)) == -31

    # chain instrumentation: every LLR stream produced by representative
    # chain runs (the criteria 1-5 shapes) stays within raw [-31, 31]
    in_range = True
    for cfg, seed in ((ChainConfig(**HARQ_POINT), 1),
                      (ChainConfig(), 2),
                      (ChainConfig(k_prime=300, target_rate=0.5, e_r=1200,
                                   q_m=8, snr_db=24.0), 3)):
        payload = np.random.default_rng(seed).integers(
            0, 2, cfg.k_prime, dtype=np.uint8)
        enc = encode_chain(cfg, payload)
        noisy = awgn(enc.symbols, cfg.sigma2, seed)
        raw = llr_estimate(noisy, DemapperParams.for_noise(cfg.q_m, cfg.sigma2))
        in_range &= int(np.abs(raw.astype(int)).max()) <= 31
        decode_chain(cfg, noisy, HarqBufferPool())  # asserts ranges internally

    # demapper saturation at the rails
    sym = EqualizedSymbols(np.array([32767, -32768], np.int16),
                           np.array([0, 0], np.int16))
    rail = llr_estimate(sym, DemapperParams.for_noise(2, 0.1))
    rails_ok = rail[0] == -31 and rail[2] == 31

    elapsed = time.time() - t0
    ok = mono and idem and sat and in_range and rails_ok
    report("criterion 7 (fixed-point contracts)", ok,
           f"monotone:{mono} idempotent:{idem} saturation:{sat} "
           f"chain-range:{in_range} rails:{rails_ok}; {elapsed:.1f}s")
