"""Rate matching, interleaving, and HARQ buffer pool tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrphy import _native
from nrphy.errors import PoolExhaustedError, UnknownProcessError
from nrphy.ldpc import BaseGraphId, Codeword, InfoBlock, build_code, ldpc_encode, select_lifting
from nrphy.rate_adapt import (
    FILLER_LLR_RAW,
    HarqBufferPool,
    RateMatchConfig,
    buffer_filler_range,
    deinterleave,
    interleave,
    k0_start,
    materialize_decoder_input,
    rate_match,
    rate_unmatch_combine,
    receive_block,
    _selection,
)


def selection_indices(n_cb, k0, filler_range, count):
    """The index definition of one transmission's buffer positions, in order.

    The buffer read circularly from k0, fillers skipped, repeated to ``count``.
    """
    usable = np.ones(n_cb, dtype=bool)
    usable[filler_range.start:filler_range.stop] = False
    order = np.roll(np.arange(n_cb), -k0)
    return np.resize(order[usable[order]], count)


def combine_oracle(held, llrs, idx):
    """``held`` after adding ``llrs`` at ``idx`` in order, each sum saturated at +/-31."""
    out = held.astype(np.int64)
    for p, v in zip(idx.tolist(), llrs.tolist()):
        out[p] = min(max(out[p] + v, -31), 31)
    return out


@pytest.fixture
def small_code():
    return build_code(BaseGraphId.BG2, 2)


@pytest.fixture
def small_codeword(small_code):
    rng = np.random.default_rng(1)
    info = InfoBlock(rng.integers(0, 2, small_code.K).astype(np.uint8), 0)
    return ldpc_encode(small_code, info)


class TestK0Start:
    def test_rv0_starts_at_head(self, small_code):
        assert k0_start(small_code, 0) == 0

    def test_bg1_rv2(self):
        code = build_code(BaseGraphId.BG1, 384)
        assert k0_start(code, 2) == 12672

    def test_bg2_rv3(self, small_code):
        assert k0_start(small_code, 3) == 86

    def test_multiples_of_zc(self):
        for bg, Zc in ((BaseGraphId.BG1, 48), (BaseGraphId.BG2, 52)):
            code = build_code(bg, Zc)
            for rv in range(4):
                assert k0_start(code, rv) % Zc == 0

    def test_bad_rv(self, small_code):
        with pytest.raises(ValueError):
            k0_start(small_code, 4)

    @pytest.mark.parametrize("rv", [True, 1.0])
    def test_non_integer_rv_rejected(self, small_code, rv):
        with pytest.raises(ValueError, match="rv must be an integer"):
            k0_start(small_code, rv)


class TestRateMatch:
    def test_identity_read(self, small_codeword):
        code = small_codeword.code
        cfg = RateMatchConfig(E_r=code.N_cb, rv=0, Q_m=2)
        out = rate_match(small_codeword, cfg)
        assert np.array_equal(out, small_codeword.bits[2 * code.Zc:])

    def test_full_wrap_repeats(self, small_codeword):
        code = small_codeword.code
        cfg = RateMatchConfig(E_r=2 * code.N_cb, rv=0, Q_m=2)
        out = rate_match(small_codeword, cfg)
        assert np.array_equal(out, np.tile(small_codeword.bits[2 * code.Zc:], 2))

    def test_circular_read_against_slicing_oracle(self, small_codeword):
        code = small_codeword.code
        buf = small_codeword.bits[2 * code.Zc:]
        cfg = RateMatchConfig(E_r=8, rv=1, Q_m=2)
        k0 = k0_start(code, 1)
        expect = buf[(k0 + np.arange(8)) % code.N_cb]
        assert np.array_equal(rate_match(small_codeword, cfg), expect)

    def test_fillers_never_transmitted(self):
        k_prime = 14
        Zc, _, K, F = select_lifting(BaseGraphId.BG2, k_prime)
        code = build_code(BaseGraphId.BG2, Zc)
        bits = np.zeros(K, np.uint8)
        bits[:k_prime] = 1  # fillers stay zero; mark data with ones
        cw = ldpc_encode(code, InfoBlock(bits, F))
        # poison filler positions to prove they are skipped
        poisoned = cw.bits.copy()
        fr = buffer_filler_range(code, F)
        poisoned[2 * code.Zc + fr.start: 2 * code.Zc + fr.stop] = 1
        cfg = RateMatchConfig(E_r=2 * (code.N_cb - F), rv=0, Q_m=2)
        out = rate_match(Codeword(bits=poisoned, code=code, filler_count=F), cfg)
        usable = np.ones(code.N_cb, bool)
        usable[list(fr)] = False
        expect = np.tile(cw.bits[2 * code.Zc:][usable], 2)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("bits", [
        np.zeros(100, np.uint8),
        np.zeros(1041, np.uint8),
        np.full(1040, 2.7),
        np.full(1040, 2, np.uint8),
        np.zeros((2, 520), np.uint8),
    ], ids=["short", "long", "float", "two", "2-D"])
    def test_rejects_a_codeword_that_is_not_n_full_bits(self, bits):
        # BG2 Zc=20: N_full = 1040; a short codeword once gave fewer than E_r bits
        code = build_code(BaseGraphId.BG2, 20)
        with pytest.raises(ValueError, match="bits"):
            rate_match(Codeword(bits, code, 0), RateMatchConfig(256, 0, 2))


class TestInterleave:
    def test_enumerated_pattern_qm2(self):
        out = interleave(np.arange(8), 2)
        assert out.tolist() == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_enumerated_pattern_qm4(self):
        out = interleave(np.arange(12), 4)
        assert out.tolist() == [0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]

    def test_matches_index_formula(self):
        # output group g holds inputs {g + l*(E/Qm)} for l = 0..Qm-1
        e_r, q_m = 48, 6
        out = interleave(np.arange(e_r), q_m)
        for g in range(e_r // q_m):
            for ell in range(q_m):
                assert out[g * q_m + ell] == g + ell * (e_r // q_m)

    def test_deinterleave_enumerated(self):
        out = deinterleave(np.arange(8), 2)
        assert out.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_single_group_identity(self):
        assert np.array_equal(deinterleave(np.arange(2), 2), np.arange(2))

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            interleave(np.arange(10), 4)

    @pytest.mark.parametrize("stage", [interleave, deinterleave])
    @pytest.mark.parametrize("q_m", [0, -2, 2.0, True], ids=repr)
    def test_non_positive_integer_q_m_rejected(self, stage, q_m):
        with pytest.raises(ValueError, match="Q_m"):
            stage(np.arange(8), q_m)

    @pytest.mark.parametrize("stage", [interleave, deinterleave])
    @pytest.mark.parametrize("q_m", [1, 3, 5])
    def test_order_outside_the_modulation_orders_rejected(self, stage, q_m):
        # 120 is a multiple of every order here, so only the order itself is wrong
        with pytest.raises(ValueError, match="Q_m"):
            stage(np.arange(120), q_m)

    @pytest.mark.parametrize("stage", [interleave, deinterleave])
    @pytest.mark.parametrize("shape", [(4, 2), (8, 1), ()], ids=str)
    def test_rejects_input_that_is_not_one_dimensional(self, stage, shape):
        with pytest.raises(ValueError, match="1-D"):
            stage(np.zeros(shape, np.int8), 2)

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    def test_matches_the_transpose_at_link_and_harq_lengths(self, q_m, dtype):
        # the link workloads' E_r, harq_ir's and a short block; input as a strided view
        for e_r in (12672, 256, 24):
            x = np.random.default_rng(e_r).integers(-2, 2, 2 * e_r).astype(dtype)[::2]
            if e_r % q_m == 0:
                out = interleave(x, q_m)
                assert out.dtype == x.dtype and out.flags.c_contiguous
                assert np.array_equal(out, x.reshape(q_m, -1).T.reshape(-1)), e_r

    @settings(max_examples=60, deadline=None)
    @given(q_m=st.sampled_from([2, 4, 6, 8]), groups=st.integers(1, 512))
    def test_inverse_property(self, q_m, groups):
        e_r = q_m * groups
        x = np.arange(e_r, dtype=np.int32)
        assert np.array_equal(deinterleave(interleave(x, q_m), q_m), x)
        assert np.array_equal(interleave(deinterleave(x, q_m), q_m), x)


class TestRateMatchConfig:
    @pytest.mark.parametrize("kwargs", [dict(E_r=100.0), dict(rv=True), dict(rv=1.0),
                                        dict(Q_m=2.0)], ids=str)
    def test_non_integer_field_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            RateMatchConfig(**dict(dict(E_r=100, rv=0, Q_m=2), **kwargs))

    def test_numpy_integer_fields_are_kept_as_ints(self):
        # the selection cache is typed: a NumPy E_r would hold a second entry per layout
        cfg = RateMatchConfig(np.int64(256), np.int32(1), np.uint8(2))
        assert [type(v) for v in (cfg.E_r, cfg.rv, cfg.Q_m)] == [int] * 3
        assert cfg == RateMatchConfig(256, 1, 2)


class TestHarqPool:
    def test_fresh_slot_is_zeroed(self, small_code):
        pool = HarqBufferPool()
        buf = pool.acquire(7, True, small_code, 0)
        assert len(buf.llrs) == small_code.N_cb
        assert not buf.llrs.any()

    @pytest.mark.parametrize("num_slots", [0, 17, 2.5, True])
    def test_pool_size_outside_one_to_sixteen_rejected(self, num_slots):
        # 2.5 once made a pool that never ran out: no count of bindings equals it
        with pytest.raises(ValueError, match="num_slots"):
            HarqBufferPool(num_slots=num_slots)

    def test_capacity_is_sixteen(self, small_code):
        # every process id binds at once; 16 is not one, and a smaller pool runs out
        pool = HarqBufferPool()
        for pid in range(16):
            pool.acquire(pid, True, small_code, 0)
        assert len(pool.bindings) == 16
        with pytest.raises(ValueError, match="process id"):
            pool.acquire(16, True, small_code, 0)
        smaller = HarqBufferPool(num_slots=15)
        for pid in range(15):
            smaller.acquire(pid, True, small_code, 0)
        with pytest.raises(PoolExhaustedError):
            smaller.acquire(15, True, small_code, 0)

    def test_retransmission_preserves_contents(self, small_code):
        pool = HarqBufferPool()
        buf = pool.acquire(3, True, small_code, 0)
        buf.llrs[5] = 17
        again = pool.acquire(3, False, small_code, 0)
        assert again.llrs[5] == 17

    def test_every_lookup_names_its_code_and_fillers(self, small_code):
        # a lookup once skipped the bound buffer's check when given no code
        pool = HarqBufferPool()
        pool.acquire(3, True, small_code, 0)
        with pytest.raises(TypeError):
            pool.acquire(3, False)
        with pytest.raises(TypeError):
            pool.acquire(3, False, small_code)

    def test_release_lifecycle(self, small_code):
        pool = HarqBufferPool()
        pool.acquire(3, True, small_code, 0)
        pool.release(3)
        with pytest.raises(UnknownProcessError):
            pool.release(3)
        with pytest.raises(UnknownProcessError):
            pool.acquire(3, False, small_code, 0)

    def test_reused_slot_comes_back_zeroed(self, small_code):
        pool = HarqBufferPool(num_slots=1)
        buf = pool.acquire(1, True, small_code, 0)
        buf.llrs[:] = 9
        pool.release(1)
        buf2 = pool.acquire(2, True, small_code, 0)
        assert not buf2.llrs.any()

    def test_rebinding_a_bound_id_in_a_full_pool_zeroes_it(self, small_code):
        pool = HarqBufferPool(num_slots=2)
        pool.acquire(0, True, small_code, 0).llrs[:] = 9
        pool.acquire(1, True, small_code, 0)
        buf = pool.acquire(0, True, small_code, 0)  # a new packet on process 0
        assert len(buf.llrs) == small_code.N_cb
        assert not buf.llrs.any()
        assert len(pool.bindings) == 2

    def test_retransmission_with_other_code_rejected(self, small_code):
        pool = HarqBufferPool()
        pool.acquire(0, True, small_code, 0)
        with pytest.raises(ValueError, match="do not match"):
            pool.acquire(0, False, build_code(BaseGraphId.BG2, 4), 0)

    def test_retransmission_with_other_filler_count_rejected(self):
        # K' = 8448 and 8348 both lift BG1 to Zc = 384; the bound buffer keeps
        # its own filler positions, which the other count would combine into
        code = build_code(BaseGraphId.BG1, 384)
        pool = HarqBufferPool()
        bound = pool.acquire(0, True, code, 0)
        with pytest.raises(ValueError, match="filler"):
            pool.acquire(0, False, code, 100)
        assert pool.acquire(0, False, code, 0) is bound

    @pytest.mark.parametrize("pid", [-1, 16, 2.5, True, np.bool_(True)], ids=repr)
    def test_process_id_outside_the_pool_rejected(self, small_code, pid):
        pool = HarqBufferPool()
        with pytest.raises(ValueError, match="process id"):
            pool.acquire(pid, True, small_code, 0)
        pool.acquire(1, True, small_code, 0)
        with pytest.raises(ValueError, match="process id"):
            pool.acquire(pid, False, small_code, 0)
        assert list(pool.bindings) == [1]

    @pytest.mark.parametrize("pid", [True, 1.0, np.bool_(True), -1, 16, "x"], ids=repr)
    def test_release_checks_the_process_id(self, small_code, pid):
        # True and 1.0 once released process 1
        pool = HarqBufferPool()
        pool.acquire(1, True, small_code, 0)
        with pytest.raises(ValueError, match="process id"):
            pool.release(pid)
        assert list(pool.bindings) == [1]

    @pytest.mark.parametrize("pid", [99, "x", True, -1, 2.5], ids=repr)
    def test_full_pool_checks_the_process_id_first(self, small_code, pid):
        # a full pool once answered these with PoolExhaustedError
        pool = HarqBufferPool(num_slots=1)
        pool.acquire(0, True, small_code, 0)
        with pytest.raises(ValueError, match="process id"):
            pool.acquire(pid, True, small_code, 0)
        assert list(pool.bindings) == [0]

    def test_partition_invariant_under_random_ops(self, small_code):
        rng = np.random.default_rng(5)
        pool = HarqBufferPool(num_slots=12)
        live = set()
        for _ in range(300):
            pid = int(rng.integers(0, 16))
            try:
                if rng.random() < 0.55:
                    pool.acquire(pid, True, small_code, 0)
                    live.add(pid)
                else:
                    pool.release(pid)
                    live.discard(pid)
            except (PoolExhaustedError, UnknownProcessError):
                pass
            assert set(pool.bindings) == live
            assert len(pool.bindings) <= 12


class TestRateUnmatchCombine:
    def test_single_transmission_scatter(self, small_codeword):
        code = small_codeword.code
        cfg = RateMatchConfig(E_r=40, rv=0, Q_m=2)
        tx = rate_match(small_codeword, cfg)
        llrs = np.where(tx == 1, 9, -9).astype(np.int8)
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, code, 0)
        rate_unmatch_combine(buf, llrs, cfg)
        assert np.array_equal(buf.llrs[:40], llrs)
        assert not buf.llrs[40:].any()

    def test_saturating_addition_at_rail(self, small_code):
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, small_code, 0)
        buf.llrs[0] = 28  # +7.0
        cfg = RateMatchConfig(E_r=2, rv=0, Q_m=2)
        rate_unmatch_combine(buf, np.array([6, 0], np.int8), cfg)
        assert buf.llrs[0] == 31  # +7.75, clamped

    @pytest.mark.parametrize("add", [-31, 31])
    def test_saturates_for_every_int8_buffer_value(self, small_code, add):
        # SoftBuffer.llrs is a public int8 field, so it may hold any int8 value
        cfg = RateMatchConfig(E_r=small_code.N_cb, rv=0, Q_m=2)
        for start in range(-128, 128, small_code.N_cb):
            buf = HarqBufferPool().acquire(0, True, small_code, 0)
            held = np.arange(start, start + small_code.N_cb).clip(-128, 127).astype(np.int8)
            buf.llrs[:] = held
            rate_unmatch_combine(buf, np.full(cfg.E_r, add, np.int8), cfg)
            assert np.array_equal(buf.llrs, np.clip(held.astype(int) + add, -31, 31))

    @pytest.mark.parametrize("path", ["native", "numpy"])
    @pytest.mark.parametrize("make", [
        lambda n: np.zeros(n, np.int16),
        lambda n: np.zeros(n - 1, np.int8),
        lambda n: np.zeros(n + 1, np.int8),
        lambda n: np.zeros(2 * n, np.int8)[::2],
        lambda n: np.zeros((1, n), np.int8),
        lambda n: np.broadcast_to(np.int8(0), n),
    ], ids=["int16", "short", "long", "strided", "2-D", "read-only"])
    def test_rejects_a_buffer_it_cannot_write_in_place(self, small_code, monkeypatch,
                                                       path, make):
        # the kernel writes through the buffer's address, so no cast or copy may stand in
        if path == "numpy":
            monkeypatch.setattr(_native, "library", lambda: None)
        buf = HarqBufferPool().acquire(0, True, small_code, 0)
        buf.llrs = make(small_code.N_cb)
        with pytest.raises(ValueError, match="soft buffer"):
            rate_unmatch_combine(buf, np.ones(40, np.int8), RateMatchConfig(40, 0, 2))

    def test_two_rv_combining_matches_scatter_oracle(self, small_codeword):
        code = small_codeword.code
        rng = np.random.default_rng(8)
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, code, 0)
        reference = np.zeros(code.N_cb, dtype=np.int64)
        for rv in (0, 2):
            cfg = RateMatchConfig(E_r=60, rv=rv, Q_m=2)
            llrs = rng.integers(-10, 11, 60).astype(np.int8)
            rate_unmatch_combine(buf, llrs, cfg)
            k0 = k0_start(code, rv)
            for j in range(60):  # brute-force scatter-add
                reference[(k0 + j) % code.N_cb] += llrs[j]
        assert np.array_equal(buf.llrs, np.clip(reference, -31, 31))

    def test_incremental_redundancy_covers_new_positions(self, small_codeword):
        code = small_codeword.code
        touched = {}
        for rv in (0, 2):
            cfg = RateMatchConfig(E_r=40, rv=rv, Q_m=2)
            pool = HarqBufferPool()
            buf = pool.acquire(0, True, code, 0)
            rate_unmatch_combine(buf, np.full(40, 5, np.int8), cfg)
            touched[rv] = set(np.flatnonzero(buf.llrs))
        assert touched[0] != touched[2]

    def test_combining_order_commutes_in_range(self, small_codeword):
        code = small_codeword.code
        rng = np.random.default_rng(9)
        cfgs = [RateMatchConfig(E_r=50, rv=0, Q_m=2), RateMatchConfig(E_r=50, rv=2, Q_m=2)]
        llrs = [rng.integers(-15, 16, 50).astype(np.int8) for _ in cfgs]
        outputs = []
        for order in ((0, 1), (1, 0)):
            pool = HarqBufferPool()
            buf = pool.acquire(0, True, code, 0)
            for i in order:
                rate_unmatch_combine(buf, llrs[i], cfgs[i])
            outputs.append(buf.llrs.copy())
        assert np.array_equal(outputs[0], outputs[1])


def selection_cases():
    """(label, code, filler count, cfg): every rv, filler counts of 0, some and
    K - 2Zc, E_r below, equal to and above N_cb, on both base graphs."""
    for bg, Zc in ((BaseGraphId.BG1, 2), (BaseGraphId.BG1, 13), (BaseGraphId.BG2, 2),
                   (BaseGraphId.BG2, 20)):
        code = build_code(bg, Zc)
        max_fillers = code.K - 2 * Zc
        for fillers in (0, max_fillers // 3, max_fillers):
            for e_r in (2 * (code.N_cb // 5), code.N_cb, 2 * code.N_cb + 6):
                for rv in range(4):
                    label = f"{bg.name} Zc={Zc} fillers={fillers} E_r={e_r} rv={rv}"
                    yield label, code, fillers, RateMatchConfig(E_r=e_r, rv=rv, Q_m=2)


class TestSelectionRuns:
    """Rate matching and combining read the circular buffer as contiguous runs."""

    def test_runs_are_one_pass_of_the_index_definition(self):
        for label, code, fillers, cfg in selection_cases():
            k0 = k0_start(code, cfg.rv)
            fr = buffer_filler_range(code, fillers)
            pieces = _selection(code.bg, code.Zc, cfg.rv, fillers, code.N_cb - fillers)
            assert 1 <= len(pieces.pieces) <= 3, label
            assert pieces.table.tolist() == [list(p) for p in pieces.pieces], label
            assert pieces.table.dtype == np.int32 and not pieces.table.flags.writeable, label
            cycle = np.concatenate([np.arange(a, b) for a, b in pieces.pieces])
            assert np.array_equal(cycle, selection_indices(code.N_cb, k0, fr,
                                                           code.N_cb - fillers)), label

    def test_rate_match_reads_the_indexed_positions(self):
        rng = np.random.default_rng(31)
        for label, code, fillers, cfg in selection_cases():
            bits = rng.integers(0, 2, code.N_full).astype(np.uint8)
            out = rate_match(Codeword(bits, code, fillers), cfg)
            idx = selection_indices(code.N_cb, k0_start(code, cfg.rv),
                                    buffer_filler_range(code, fillers), cfg.E_r)
            assert np.array_equal(out, bits[2 * code.Zc:][idx]), label

    def test_combine_adds_at_the_indexed_positions(self):
        rng = np.random.default_rng(32)
        for label, code, fillers, cfg in selection_cases():
            buf = HarqBufferPool().acquire(0, True, code, fillers)
            held = rng.integers(-31, 32, code.N_cb).astype(np.int8)
            buf.llrs[:] = held
            llrs = rng.integers(-31, 32, cfg.E_r).astype(np.int8)
            rate_unmatch_combine(buf, llrs, cfg)
            idx = selection_indices(code.N_cb, k0_start(code, cfg.rv),
                                    buffer_filler_range(code, fillers), cfg.E_r)
            assert np.array_equal(buf.llrs, combine_oracle(held, llrs, idx)), label


class TestRateMatchUnmatchAdjoint:
    @pytest.mark.parametrize("rv", [0, 1, 2, 3])
    @pytest.mark.parametrize("e_r", [24, 120, 1200])
    def test_max_llrs_land_at_transmitted_positions(self, rv, e_r):
        # K'=14 gives BG2, Zc 2, 6 fillers and N_cb 100, so E_r 120 and 1200
        # wrap around a buffer with a filler gap.
        for k_prime in (50, 14):
            self._check_adjoint(rv, e_r, k_prime)

    @staticmethod
    def _check_adjoint(rv, e_r, k_prime):
        Zc, _, K, F = select_lifting(BaseGraphId.BG2, k_prime)
        code = build_code(BaseGraphId.BG2, Zc)
        rng = np.random.default_rng(rv * 100 + e_r)
        bits = np.zeros(K, np.uint8)
        bits[:k_prime] = rng.integers(0, 2, k_prime)
        cw = ldpc_encode(code, InfoBlock(bits, F))
        fr = buffer_filler_range(code, F)
        cfg = RateMatchConfig(E_r=e_r, rv=rv, Q_m=2)

        tx = rate_match(cw, cfg)
        llrs = np.where(tx == 1, 31, -31).astype(np.int8)
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, code, F)
        rate_unmatch_combine(buf, llrs, cfg)
        full = materialize_decoder_input(buf)

        touched = np.zeros(code.N_cb, bool)
        k0 = k0_start(code, rv)
        usable = np.ones(code.N_cb, bool)
        usable[list(fr)] = False
        order = np.concatenate([np.arange(k0, code.N_cb), np.arange(0, k0)])
        order = order[usable[order]]
        touched[order[np.arange(e_r) % len(order)]] = True
        idx = selection_indices(code.N_cb, k0, fr, e_r)
        assert np.array_equal(idx, order[np.arange(e_r) % len(order)])

        body = full[2 * code.Zc:]
        filler_mask = np.zeros(code.N_cb, bool)
        filler_mask[list(fr)] = True
        # transmitted positions: nonzero and sign equals the codeword bit
        sent = body[touched & ~filler_mask]
        sent_bits = cw.bits[2 * code.Zc:][touched & ~filler_mask]
        assert np.all(sent != 0)
        assert np.array_equal(sent > 0, sent_bits == 1)
        # untouched non-filler positions remain erased
        assert not body[~touched & ~filler_mask].any()


class TestReceiveBlock:
    def test_numpy_body_is_the_three_stages(self, small_code, monkeypatch):
        monkeypatch.setattr(_native, "library", lambda: None)
        rng = np.random.default_rng(33)
        cfg = RateMatchConfig(E_r=3 * small_code.N_cb // 2 // 4 * 4, rv=2, Q_m=4)
        llrs = rng.integers(-31, 32, cfg.E_r).astype(np.int8)
        bufs = [HarqBufferPool().acquire(0, True, small_code, 0) for _ in range(2)]
        got = receive_block(bufs[0], llrs, cfg)
        rate_unmatch_combine(bufs[1], deinterleave(llrs, 4), cfg)
        assert np.array_equal(got, materialize_decoder_input(bufs[1]))
        assert np.array_equal(bufs[0].llrs, bufs[1].llrs)

    @pytest.mark.parametrize("path", ["native", "numpy"])
    @pytest.mark.parametrize("make", [
        lambda held, n: _read_only(held[:n]),
        lambda held, n: held[::2],
        lambda held, n: held[:n].view(np.uint8),
        lambda held, n: held.view(np.int16),
        lambda held, n: held[:n - 1],
        lambda held, n: held[:n + 1],
    ], ids=["read-only", "strided", "uint8", "int16", "short", "long"])
    def test_rejects_a_buffer_before_writing_it(self, small_code, monkeypatch, path, make):
        # each buffer is a view of held: the kernel would write through its address
        if path == "numpy":
            monkeypatch.setattr(_native, "library", lambda: None)
        held = np.full(2 * small_code.N_cb, 5, np.int8)
        buf = HarqBufferPool().acquire(0, True, small_code, 0)
        buf.llrs = make(held, small_code.N_cb)
        assert np.shares_memory(buf.llrs, held)
        with pytest.raises(ValueError, match="soft buffer"):
            receive_block(buf, np.full(40, 3, np.int8), RateMatchConfig(40, 0, 2))
        assert np.all(held == 5)


    # small_code: N_cb = 100 and K - 2Zc = 16, the most fillers it can have
    BAD_FILLERS = [-1, 17, 200, True, 2.0, "3"]

    @staticmethod
    def _cache_every_count(codeword, cfg):
        """Select for each valid count first: True and 2.0 equal cached counts."""
        for count in range(17):
            rate_match(Codeword(codeword.bits, codeword.code, count), cfg)

    @pytest.mark.parametrize("path", ["native", "numpy"])
    @pytest.mark.parametrize("fillers", BAD_FILLERS, ids=repr)
    def test_rejects_fillers_before_writing_the_buffer(self, small_code, small_codeword,
                                                        monkeypatch, path, fillers):
        if path == "numpy":
            monkeypatch.setattr(_native, "library", lambda: None)
        cfg = RateMatchConfig(40, 0, 2)
        self._cache_every_count(small_codeword, cfg)
        buf = HarqBufferPool().acquire(0, True, small_code, 0)
        buf.llrs[:] = 5
        buf.filler_count = fillers
        for stage in (receive_block, rate_unmatch_combine):
            with pytest.raises(ValueError, match="filler count"):
                stage(buf, np.full(40, 3, np.int8), cfg)
        with pytest.raises(ValueError, match="filler count"):
            materialize_decoder_input(buf)
        assert np.all(buf.llrs == 5)

    @pytest.mark.parametrize("path", ["native", "numpy"])
    @pytest.mark.parametrize("fillers", BAD_FILLERS, ids=repr)
    def test_rate_match_rejects_fillers(self, small_codeword, monkeypatch, path, fillers):
        if path == "numpy":
            monkeypatch.setattr(_native, "library", lambda: None)
        cfg = RateMatchConfig(40, 0, 2)
        self._cache_every_count(small_codeword, cfg)
        codeword = Codeword(small_codeword.bits, small_codeword.code, fillers)
        with pytest.raises(ValueError, match="filler count"):
            rate_match(codeword, cfg)


def _read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


class TestMaterialize:
    def test_punctured_head_is_zero(self, small_code):
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, small_code, 0)
        buf.llrs[:] = 7
        out = materialize_decoder_input(buf)
        assert not out[: 2 * small_code.Zc].any()
        assert np.all(out[2 * small_code.Zc:] == 7)

    def test_fillers_forced_to_minimum(self):
        Zc, _, K, F = select_lifting(BaseGraphId.BG2, 14)
        code = build_code(BaseGraphId.BG2, Zc)
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, code, F)
        buf.llrs[:] = 12  # filler positions get overwritten regardless
        out = materialize_decoder_input(buf)
        fr = buffer_filler_range(code, F)
        assert np.all(out[2 * Zc + fr.start: 2 * Zc + fr.stop] == FILLER_LLR_RAW)

    @pytest.mark.parametrize("filler_count", [-1, 161, 170])
    def test_filler_count_outside_the_systematic_tail_rejected(self, filler_count):
        # BG2 Zc=20 has K - 2Zc = 160 buffer positions before its parity
        code = build_code(BaseGraphId.BG2, 20)
        assert buffer_filler_range(code, 160) == range(0, 160)
        assert buffer_filler_range(code, 0) == range(160, 160)
        with pytest.raises(ValueError, match="filler"):
            buffer_filler_range(code, filler_count)
        with pytest.raises(ValueError, match="filler"):
            HarqBufferPool().acquire(0, True, code, filler_count)

    @pytest.mark.parametrize("filler_count", [True, np.bool_(True), 2.0, "3", None], ids=repr)
    def test_filler_count_that_is_not_an_integer_rejected(self, filler_count):
        # True was once one filler, and 2.0 raised TypeError
        code = build_code(BaseGraphId.BG2, 20)
        with pytest.raises(ValueError, match="filler count"):
            buffer_filler_range(code, filler_count)
        pool = HarqBufferPool()
        with pytest.raises(ValueError, match="filler count"):
            pool.acquire(0, True, code, filler_count)
        bound = pool.acquire(0, True, code, 1)
        with pytest.raises(ValueError, match="filler count"):
            pool.acquire(0, False, code, filler_count)
        assert pool.acquire(0, False, code, 1) is bound

    def test_no_fillers_full_rate(self, small_code):
        pool = HarqBufferPool()
        buf = pool.acquire(0, True, small_code, 0)
        buf.llrs[:] = np.arange(small_code.N_cb) % 23 - 11
        out = materialize_decoder_input(buf)
        assert np.array_equal(out[2 * small_code.Zc:], buf.llrs)
