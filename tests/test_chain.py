"""End-to-end chain tests: round trips, determinism, HARQ combining."""

import math
import os
import statistics
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrphy.errors import ConfigError, PoolExhaustedError, UnknownProcessError
from nrphy.harness import (
    ChainConfig,
    decode_chain,
    decode_chain_from_llrs,
    encode_chain,
    run_bler_sweep,
    run_harq_link,
    run_harq_sim,
    run_throughput_bench,
)
from nrphy.harness.config import load_config, parse_config_text
from nrphy.ldpc import ldpc_decode
from nrphy.llr import awgn, pack_llr_words
from nrphy.rate_adapt import HarqBufferPool, RateMatchConfig, rate_unmatch_combine, receive_block
from nrphy.scramble import descramble_llrs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_words.txt")
HARQ_IR_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "harq_ir.cfg")

# Operating point pre-measured for HARQ tests: heavily punctured single
# transmission (rate 0.75) at 0 dB always fails; combining rv {0,2,3,1}
# converges by round 3 (see the acceptance suite for the full run).
HARQ_POINT = dict(k_prime=192, target_rate=0.75, e_r=256, q_m=2,
                  rv_schedule=(0, 2, 3, 1), blocks=1, snr_db=0.0)


def random_payload(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, cfg.k_prime * cfg.blocks, dtype=np.uint8)


class TestEncodeChain:
    def test_symbol_count_at_benchmark_point(self):
        cfg = ChainConfig()  # K'=8448, E_r=12672, QPSK
        enc = encode_chain(cfg, random_payload(cfg))
        assert len(enc.symbols) == 12672 // 2

    def test_deterministic(self):
        cfg = ChainConfig(k_prime=100, e_r=256, q_m=4, target_rate=0.5)
        p = random_payload(cfg, 3)
        a = encode_chain(cfg, p)
        b = encode_chain(cfg, p)
        assert np.array_equal(a.symbols.re, b.symbols.re)
        assert np.array_equal(a.scrambled_words.words, b.scrambled_words.words)

    def test_payload_length_checked(self):
        cfg = ChainConfig(k_prime=100, e_r=256)
        with pytest.raises(ValueError):
            encode_chain(cfg, np.zeros(99, np.uint8))

    @pytest.mark.parametrize("dtype,bad", [(np.uint8, 2), (np.int64, -1), (np.int64, 256)])
    def test_non_binary_payload_rejected(self, dtype, bad):
        cfg = ChainConfig(k_prime=100, e_r=256)
        payload = random_payload(cfg).astype(dtype)
        payload[37] = bad
        with pytest.raises(ValueError):
            encode_chain(cfg, payload)


class TestRoundTrip:
    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_noiseless_each_modulation(self, q_m):
        cfg = ChainConfig(k_prime=300, target_rate=0.5, e_r=720 - 720 % q_m,
                          q_m=q_m, snr_db=40.0)
        payload = random_payload(cfg, q_m)
        enc = encode_chain(cfg, payload)
        dec = decode_chain(cfg, enc.symbols, HarqBufferPool())
        assert all(dec.block_ok)
        assert np.array_equal(dec.payload, payload)

    def test_multi_block(self):
        cfg = ChainConfig(k_prime=120, target_rate=0.5, e_r=320, q_m=2,
                          blocks=5, snr_db=12.0)
        payload = random_payload(cfg, 11)
        enc = encode_chain(cfg, payload)
        noisy = awgn(enc.symbols, cfg.sigma2, 5)
        dec = decode_chain(cfg, noisy, HarqBufferPool())
        assert all(dec.block_ok)
        assert np.array_equal(dec.payload, payload)

    def test_awgn_at_benchmark_point(self):
        cfg = ChainConfig()
        payload = random_payload(cfg, 17)
        enc = encode_chain(cfg, payload)
        noisy = awgn(enc.symbols, cfg.sigma2, 23)
        dec = decode_chain(cfg, noisy, HarqBufferPool())
        assert dec.block_ok == [True]
        assert np.array_equal(dec.payload, payload)
        assert dec.results[0].iterations_used <= 3

    def test_with_fillers(self):
        cfg = ChainConfig(k_prime=77, target_rate=0.4, e_r=250, q_m=2, snr_db=30.0)
        payload = random_payload(cfg, 7)
        enc = encode_chain(cfg, payload)
        dec = decode_chain(cfg, enc.symbols, HarqBufferPool())
        assert all(dec.block_ok)
        assert np.array_equal(dec.payload, payload)


@st.composite
def chain_configs(draw):
    """A valid config whose E_r sends every circular-buffer bit at least once,
    so that a noiseless transmission decodes at any rv."""
    q_m = draw(st.sampled_from([2, 4, 6, 8]))
    fields = dict(k_prime=draw(st.integers(4, 1200)),
                  target_rate=draw(st.floats(0.1, 1.0)), q_m=q_m, snr_db=40.0)
    try:
        code, _ = ChainConfig(e_r=q_m, **fields).code()
    except ConfigError:  # K' below 2 Zc of its base graph
        assume(False)
    e_r = draw(st.integers(code.N_cb, 2 * code.N_cb))
    return ChainConfig(e_r=e_r + -e_r % q_m, blocks=draw(st.integers(1, 3)),
                       rv_schedule=(draw(st.integers(0, 3)),), **fields)


class TestRoundTripProperty:
    @settings(max_examples=50, deadline=timedelta(seconds=2))
    @given(chain_configs(), st.integers(0, 2**32 - 1))
    def test_noiseless_decode_returns_payload(self, cfg, seed):
        payload = random_payload(cfg, seed)
        enc = encode_chain(cfg, payload)
        dec = decode_chain(cfg, enc.symbols, HarqBufferPool())
        assert all(dec.block_ok)
        assert np.array_equal(dec.payload, payload)


class TestGoldenVector:
    def test_committed_word_stream_reproduces(self):
        cfg = ChainConfig(k_prime=128, target_rate=0.5, e_r=384, q_m=4,
                          rnti=311, cell_id=7, seed=314)
        payload = random_payload(cfg, cfg.seed)
        enc = encode_chain(cfg, payload)
        with open(GOLDEN_PATH) as fh:
            assert enc.scrambled_words.dump_hex() == fh.read()


class TestPoolErrorSurfacing:
    def test_exhaustion_reports_block(self):
        cfg = ChainConfig(**HARQ_POINT)
        pool = HarqBufferPool(num_slots=1)
        pool.acquire(15, True, *cfg.code())
        enc = encode_chain(cfg, random_payload(cfg))
        with pytest.raises(PoolExhaustedError, match="block 0"):
            decode_chain(cfg, enc.symbols, pool)

    def test_retransmission_without_binding(self):
        cfg = ChainConfig(**HARQ_POINT)
        enc = encode_chain(cfg, random_payload(cfg))
        with pytest.raises(UnknownProcessError, match="block 0"):
            decode_chain(cfg, enc.symbols, HarqBufferPool(), new_packet=False)

    def test_two_processes_one_slot(self):
        cfg_a = ChainConfig(**HARQ_POINT, harq_process=0)
        cfg_b = ChainConfig(**HARQ_POINT, harq_process=1)
        pool = HarqBufferPool(num_slots=1)
        enc_a = encode_chain(cfg_a, random_payload(cfg_a))
        enc_b = encode_chain(cfg_b, random_payload(cfg_b))
        decode_chain(cfg_a, enc_a.symbols, pool, release=False)
        with pytest.raises(PoolExhaustedError):
            decode_chain(cfg_b, enc_b.symbols, pool, release=False)


class TestHarqCombining:
    def test_first_tx_fails_schedule_recovers(self):
        cfg = ChainConfig(**HARQ_POINT)
        pool = HarqBufferPool()
        payload = random_payload(cfg, 21)
        res = run_harq_link(cfg, pool, payload, seed_key=(21,))
        assert not res.parity_history[0]
        assert res.delivered
        assert res.rounds_used <= 4
        assert len(pool.bindings) == 0  # released at the end

    def test_more_blocks_than_soft_buffers_rejected(self):
        # Process ids wrap modulo the 16 slots, so block 16 would rebind
        # block 0's process and zero its buffer between rounds.
        cfg = ChainConfig(**{**HARQ_POINT, "blocks": 17, "snr_db": 30.0})
        pool = HarqBufferPool()
        payload = random_payload(cfg, 4)
        with pytest.raises(ConfigError, match="soft buffers"):
            run_harq_link(cfg, pool, payload, seed_key=(4,))
        assert not pool.bindings
        # one-shot decoding releases each buffer before the ids wrap
        dec = decode_chain(cfg, encode_chain(cfg, payload).symbols, pool)
        assert all(dec.block_ok)
        assert np.array_equal(dec.payload, payload)

    @pytest.mark.parametrize("foreign", [(), (9,)])
    def test_failed_round_leaves_pool_as_it_was(self, foreign):
        # three blocks need three soft buffers; block 2 finds none free
        cfg = ChainConfig(**{**HARQ_POINT, "blocks": 3})
        pool = HarqBufferPool(num_slots=2 + len(foreign))
        for pid in foreign:  # bound by another caller before the call
            pool.acquire(pid, True, *cfg.code())
        before = dict(pool.bindings)
        with pytest.raises(PoolExhaustedError, match="block 2"):
            run_harq_link(cfg, pool, random_payload(cfg, 3), seed_key=(3,))
        assert pool.bindings.keys() == before.keys()
        assert all(pool.bindings[pid] is buf for pid, buf in before.items())

    def test_retransmission_with_other_filler_count_rejected(self):
        # K' = 190 lifts to the same BG2 Zc = 20 as K' = 192, with 10 fillers, not 8
        cfg = ChainConfig(**HARQ_POINT)
        other = ChainConfig(**{**HARQ_POINT, "k_prime": 190})
        (code, fillers), (other_code, other_fillers) = cfg.code(), other.code()
        assert other_code == code and other_fillers != fillers
        pool = HarqBufferPool()
        llrs = np.zeros(cfg.G, np.int8)
        decode_chain_from_llrs(cfg, llrs, pool, release=False)
        with pytest.raises(ValueError, match="filler"):
            decode_chain_from_llrs(other, llrs, pool, new_packet=False)
        decode_chain_from_llrs(cfg, llrs, pool, new_packet=False)

    def test_rebound_receive_stages_see_every_block_bit_exact(self, monkeypatch):
        # a caller that rebinds the chain's stage names (perfbench's traced
        # run) gets one call per stage and block, and the same outcome
        from nrphy.harness import chain
        cfg = ChainConfig(**{**HARQ_POINT, "blocks": 3})
        payload = random_payload(cfg, 6)
        symbols = [awgn(encode_chain(cfg, payload, rv_round=r).symbols, cfg.sigma2, 60 + r)
                   for r in range(2)]

        def two_rounds():
            pool = HarqBufferPool()
            outs = [decode_chain(cfg, symbols[r], pool, rv_round=r,
                                 new_packet=r == 0, release=False)
                    for r in range(2)]
            return outs, [pool.bindings[pid].llrs.copy() for pid in sorted(pool.bindings)]

        fused_outs, fused_bufs = two_rounds()
        calls = []
        for name in ("deinterleave", "rate_unmatch_combine", "materialize_decoder_input"):
            def counted(*args, _fn=getattr(chain, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(chain, name, counted)
        staged_outs, staged_bufs = two_rounds()
        assert len(calls) == 3 * 2 * cfg.blocks
        for fused, staged in zip(fused_outs, staged_outs):
            assert np.array_equal(fused.payload, staged.payload)
            for a, b in zip(fused.results, staged.results):
                assert np.array_equal(a.hard_bits, b.hard_bits)
                assert (a.iterations_used, a.termination_reason) == (
                    b.iterations_used, b.termination_reason)
        assert all(np.array_equal(a, b) for a, b in zip(fused_bufs, staged_bufs))

    def test_retransmission_may_change_er_and_qm(self):
        # positions are derived per transmission, so a later round may use
        # a different rate-matched length and modulation order
        base = ChainConfig(**HARQ_POINT)
        pool = HarqBufferPool()
        payload = random_payload(base, 8)
        enc0 = encode_chain(base, payload, rv_round=0)
        noisy0 = awgn(enc0.symbols, base.sigma2, 100)
        dec0 = decode_chain(base, noisy0, pool, rv_round=0,
                            new_packet=True, release=False)
        assert not all(dec0.block_ok)
        wider = ChainConfig(**{**HARQ_POINT, "e_r": 512, "q_m": 4, "snr_db": 20.0})
        enc1 = encode_chain(wider, payload, rv_round=1)
        noisy1 = awgn(enc1.symbols, wider.sigma2, 101)
        dec1 = decode_chain(wider, noisy1, pool, rv_round=1,
                            new_packet=False, release=False)
        assert all(dec1.block_ok)
        assert np.array_equal(dec1.payload, payload)


class TestSweepDeterminism:
    def test_csv_byte_identical(self):
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=256, q_m=2, seed=77)
        a = run_bler_sweep(cfg, [2.0, 6.0], 20)
        b = run_bler_sweep(cfg, [2.0, 6.0], 20)
        assert a.to_csv() == b.to_csv()

    def test_noiseless_point_has_zero_bler(self):
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=256, q_m=2, seed=7)
        rep = run_bler_sweep(cfg, [60.0], 10)
        assert rep.rows[0]["block_errors"] == 0

    def test_report_echoes_config(self):
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=256, q_m=2, seed=9)
        rep = run_bler_sweep(cfg, [10.0], 5)
        assert rep.config["k_prime"] == 96
        assert rep.config["rv_schedule"] == "0,2,3,1"
        assert rep.config["G"] == 256


class TestPinnedOutputs:
    """Recorded outcomes at fixed seeds: a rewrite of a simulator must
    reproduce every payload, noise draw and decode, not only run twice alike."""

    def test_multi_block_bler_csv_and_histogram(self):
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=224, q_m=2, blocks=3, seed=41)
        rep = run_bler_sweep(cfg, [0.0, 2.0, 4.0], 8)
        assert rep.to_csv() == (
            "snr_db,blocks,block_errors,bler,avg_iterations\n"
            "0,24,24,1,4.542\n"
            "2,24,2,0.0833333,4.958\n"
            "4,24,0,0,2.417\n")
        assert rep.iterations_histogram == {2: 19, 3: 16, 4: 15, 5: 8, 6: 6, 8: 8}

    def test_harq_link_outcomes(self):
        F, T = False, True
        expected = [
            (T, 4, [F, F, F, T]), (T, 4, [F, F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 4, [F, F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 4, [F, F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 3, [F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 4, [F, F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 4, [F, F, F, T]), (T, 2, [F, T]),
            (F, 4, [F, F, F, F]), (T, 3, [F, F, T]), (T, 2, [F, T]),
            (T, 4, [F, F, F, T]), (T, 3, [F, F, T]), (T, 2, [F, T]),
        ]
        pool = HarqBufferPool()
        for key, outcome in enumerate(expected):
            cfg = ChainConfig(**{**HARQ_POINT, "blocks": 2, "harq_process": key % 16,
                                 "snr_db": (-2.0, -1.0, 1.0)[key % 3]})
            res = run_harq_link(cfg, pool, random_payload(cfg, key), seed_key=(key, 5))
            assert (res.delivered, res.rounds_used, res.parity_history) == outcome, key
        assert not pool.bindings

    def test_bench_errors_and_histogram(self):
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=224, q_m=2, snr_db=2.0, seed=17)
        rep = run_throughput_bench(cfg, 30)
        assert rep.rows[0]["block_errors"] == 3
        assert rep.iterations_histogram == {3: 4, 4: 8, 5: 9, 6: 2, 7: 1, 8: 6}


class TestHarqSimulator:
    def test_unconstrained_pool_matches_process_count(self):
        cfg = ChainConfig(**HARQ_POINT, seed=1)
        full = run_harq_sim(cfg, 16, n_processes=4, max_rounds=4,
                            packets_per_process=2)
        enough = run_harq_sim(cfg, 4, n_processes=4, max_rounds=4,
                              packets_per_process=2)
        assert full.rows[0]["bits_per_transmission"] == \
            enough.rows[0]["bits_per_transmission"]

    def test_starved_pool_loses_throughput(self):
        cfg = ChainConfig(**HARQ_POINT, seed=2)
        one = run_harq_sim(cfg, 1, n_processes=6, max_rounds=4,
                           packets_per_process=2)
        six = run_harq_sim(cfg, 16, n_processes=6, max_rounds=4,
                           packets_per_process=2)
        assert float(one.rows[0]["bits_per_transmission"]) < \
            float(six.rows[0]["bits_per_transmission"])

    def test_pool_sizes_pinned_at_harq_ir_point(self):
        # recorded rows and iteration histograms: a rewrite of the simulator
        # must reproduce every transmission and every decode
        cfg = load_config(HARQ_IR_CFG)
        expected = {1: (46, 384), 2: (42, 960), 4: (38, 1728), 16: (35, 2304)}
        histograms = {1: {2: 31, 3: 11, 6: 1, 7: 1, 8: 2},
                      16: {2: 11, 3: 2, 4: 7, 5: 1, 6: 1, 7: 1, 8: 12}}
        for size, (transmissions, bits) in expected.items():
            rep = run_harq_sim(cfg, size, n_processes=6, max_rounds=4,
                               packets_per_process=2)
            row = rep.rows[0]
            assert (row["transmissions"], row["delivered_bits"]) == (transmissions, bits)
            if size in histograms:
                assert rep.iterations_histogram == histograms[size]

    def test_zero_rounds_rejected(self):
        cfg = ChainConfig(**HARQ_POINT)
        with pytest.raises(ValueError, match="max_rounds"):
            run_harq_sim(cfg, 16, n_processes=1, max_rounds=0,
                         packets_per_process=1)

    @pytest.mark.parametrize("packets", [0, -2])
    def test_no_packets_rejected(self, packets):
        cfg = ChainConfig(**HARQ_POINT)
        with pytest.raises(ValueError, match="packets_per_process"):
            run_harq_sim(cfg, 16, n_processes=1, max_rounds=1, packets_per_process=packets)

    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_link_with_no_rounds_rejected(self, max_rounds):
        cfg = ChainConfig(**HARQ_POINT)
        pool = HarqBufferPool()
        with pytest.raises(ValueError, match="max_rounds"):
            run_harq_link(cfg, pool, random_payload(cfg), seed_key=(1,), max_rounds=max_rounds)
        assert pool.bindings == {}

    def test_more_processes_than_ids_rejected(self):
        cfg = ChainConfig(**HARQ_POINT)
        with pytest.raises(ValueError, match="n_processes"):
            run_harq_sim(cfg, 16, n_processes=17, max_rounds=1,
                         packets_per_process=1)

    @pytest.mark.parametrize("value", [True, 2.0], ids=repr)
    @pytest.mark.parametrize("name", ["link max_rounds", "pool_size", "n_processes",
                                      "max_rounds", "packets_per_process", "blocks_per_point"])
    def test_non_integer_counts_rejected(self, name, value):
        # True would run one round, packet or block, and 2.0 fail in range()
        cfg = ChainConfig(**HARQ_POINT)
        calls = {
            "link max_rounds": lambda: run_harq_link(cfg, HarqBufferPool(), random_payload(cfg),
                                                     seed_key=(1,), max_rounds=value),
            "pool_size": lambda: run_harq_sim(cfg, value, 2, 2, 2),
            "n_processes": lambda: run_harq_sim(cfg, 4, value, 2, 2),
            "max_rounds": lambda: run_harq_sim(cfg, 4, 2, value, 2),
            "packets_per_process": lambda: run_harq_sim(cfg, 4, 2, 2, value),
            "blocks_per_point": lambda: run_bler_sweep(cfg, [10.0], value),
        }
        with pytest.raises(ValueError, match=name.split()[-1]):
            calls[name]()


class TestBlerMonotonicity:
    def test_bler_nonincreasing_in_snr(self):
        # 1000 blocks/point on a short code; statistical noise tolerated
        # by demanding no increase beyond 2 sigma of the estimate
        cfg = ChainConfig(k_prime=96, target_rate=0.5, e_r=224, q_m=2, seed=13)
        rep = run_bler_sweep(cfg, [0.0, 2.0, 4.0, 6.0], 1000)
        blers = [float(r["bler"]) for r in rep.rows]
        for a, b in zip(blers, blers[1:]):
            slack = 2 * math.sqrt(max(a, 1e-6) / 1000)
            assert b <= a + slack, blers
        assert blers[0] > blers[-1]


def bench_rounds(cfg, *block_counts):
    """Five rounds of ``run_throughput_bench``, one run per block count each.

    Each run already times its decode passes for at least ``MIN_TIMED_S``
    and reports the median. The runs of one round follow each other, so a
    ratio within a round compares one host speed; the tests take the median
    ratio over the rounds, so a host that speeds up or slows down between
    rounds (1.6x was seen between two rounds) moves at most one of the five.
    """
    return [[run_throughput_bench(cfg, n) for n in block_counts] for _ in range(5)]


class TestBenchmark:
    def test_steady_state_throughput_and_context(self, capsys):
        # measurement property: per-block rate roughly independent of the
        # batch size; jitter measured at up to ~12%, asserted at 25%
        cfg = ChainConfig()
        rounds = bench_rounds(cfg, 20, 40)
        assert all(r.bler == 0 for r in sum(rounds, []))
        ratio = statistics.median(r20.throughput_mbps / r40.throughput_mbps
                                  for r20, r40 in rounds)
        assert 0.75 < ratio < 1.33, ratio
        r20, r40 = rounds[0]
        assert any("899.9" in n for n in r20.notes)
        assert any("900.1" in n for n in r40.notes)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            run_throughput_bench(ChainConfig(k_prime=96, target_rate=0.5, e_r=256), 0)

    @pytest.mark.parametrize("blocks", [2.0, True])
    def test_non_integer_blocks_rejected(self, blocks):
        with pytest.raises(ValueError, match="blocks must be an integer"):
            run_throughput_bench(ChainConfig(k_prime=96, target_rate=0.5, e_r=256), blocks)

    def test_elapsed_roughly_linear_in_blocks(self):
        cfg = ChainConfig()
        ratio = statistics.median(r40.wall_clock_s / r10.wall_clock_s
                                  for r10, r40 in bench_rounds(cfg, 10, 40))
        assert 2.5 < ratio < 6.5, ratio


class TestConfigParsing:
    def test_key_value_roundtrip(self):
        text = """
        # comment
        k_prime = 300
        e_r = 720
        q_m = 4
        rv_schedule = 0,2
        snr_db = 6.5
        """
        cfg = parse_config_text(text)
        assert (cfg.k_prime, cfg.e_r, cfg.q_m) == (300, 720, 4)
        assert cfg.rv_schedule == (0, 2)
        assert cfg.snr_db == 6.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus = 1")

    def test_inconsistent_er_qm_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("e_r = 7\nq_m = 2")

    @pytest.mark.parametrize("text", [
        "q_m = 3", "q_m = 0", "rv_schedule = 0,5", "rv_schedule = -1",
        "harq_process = 16", "harq_process = -1",
        "k_prime = 0", "k_prime = 3", "k_prime = 8449",
        "k_prime = abc", "rv_schedule = 0,x", "rv_schedule = 0,,2", "rv_schedule = 0,2,",
        "e_r = 0", "e_r = -2",
        "rnti = 65536", "q = 2", "cell_id = 1008", "snr_db = nan", "snr_db = -inf",
        "snr_db = -4000", "target_rate = nan", "target_rate = 5", "target_rate = 0", "seed = -1",
    ])
    def test_out_of_range_value_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("text", ["target_rate = 0", "target_rate = -1"])
    def test_nonpositive_rate_names_the_rate(self, text):
        # rejected for the rate itself, not for a K' the rate's base graph cannot carry
        with pytest.raises(ConfigError, match="target_rate"):
            parse_config_text(text)

    def test_default_name(self):
        assert load_config("default") == ChainConfig()

    @pytest.mark.parametrize("field, value", [
        ("q_m", 2.0), ("blocks", True), ("rnti", 42.5), ("e_r", 12672.0), ("k_prime", 8448.0),
        ("harq_process", 1.5), ("seed", 2025.0), ("q", False), ("cell_id", 1.0),
        ("rv_schedule", (0, 2.0)),
    ])
    def test_non_integer_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be an integer"):
            ChainConfig(**{field: value})


def _softllr_readers():
    """(input length, call) of every public function that takes SoftLlrs."""
    cfg = ChainConfig(k_prime=100, e_r=256, target_rate=0.5)
    code, filler = cfg.code()

    def combine(llrs, stage=rate_unmatch_combine):
        buf = HarqBufferPool().acquire(0, True, code, filler)
        stage(buf, llrs, RateMatchConfig(E_r=cfg.e_r, rv=0, Q_m=cfg.q_m))

    return {
        "ldpc_decode": (code.N_full, lambda llrs: ldpc_decode(code, llrs)),
        "descramble_llrs": (cfg.G, lambda llrs: descramble_llrs(llrs, cfg.identity)),
        "rate_unmatch_combine": (cfg.e_r, combine),
        "receive_block": (cfg.e_r, lambda llrs: combine(llrs, receive_block)),
        "pack_llr_words": (7, pack_llr_words),
        "decode_chain_from_llrs": (
            cfg.G, lambda llrs: decode_chain_from_llrs(cfg, llrs, HarqBufferPool())),
    }


class TestSoftLlrInput:
    """Every LLR input is a SoftLlr: integers in [-31, 31], or ValueError."""

    @pytest.mark.parametrize("reader", list(_softllr_readers()))
    @pytest.mark.parametrize("dtype,bad", [
        (np.float64, 0.9),  # a cast would truncate it to 0
        (np.int32, 65537),  # a cast would wrap it to 1
        (np.int64, 261),  # a cast would wrap it to 5
        (np.int16, 40),
        (np.int8, -32),
        (bool, True),
    ], ids=["float-0.9", "int32-65537", "int64-261", "int16-40", "int8-minus-32", "bool"])
    def test_non_softllr_rejected(self, reader, dtype, bad):
        n, call = _softllr_readers()[reader]
        llrs = np.zeros(n, dtype)
        llrs[-1] = bad
        with pytest.raises(ValueError):
            call(llrs)
