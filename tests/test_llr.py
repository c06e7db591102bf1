"""Modulation, fixed-point demapping, quantizer, and word-packing tests.

The demapper oracle is a brute-force max-log: for each bit, the
difference of minimum squared distances between the bit-0 and bit-1
constellation subsets, scaled by 1/(2 sigma^2). Positive favors bit 1.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrphy.errors import FormatError
from nrphy.llr import (
    KIND_LLRS,
    KIND_RAW_BITS,
    SYMBOL_SCALE,
    DemapperParams,
    EqualizedSymbols,
    PackedWordStream,
    awgn,
    llr_estimate,
    modulate,
    pack_bit_words,
    pack_llr_words,
    quantize,
    unpack_bit_words,
    unpack_llr_words,
)

DATA = Path(__file__).resolve().parent / "data"


def all_labels(q_m):
    """Every q_m-bit label, b0 first."""
    return np.array([[(i >> (q_m - 1 - k)) & 1 for k in range(q_m)]
                     for i in range(2 ** q_m)], dtype=np.uint8)


def maxlog_oracle(r, q_m, sigma2):
    """Brute-force max-log LLRs over the full constellation."""
    bits = all_labels(q_m)
    points = modulate(bits.reshape(-1), q_m).values()
    d2 = np.abs(np.asarray(r)[:, None] - points[None, :]) ** 2
    out = np.empty((len(r), q_m))
    for k in range(q_m):
        one = bits[:, k] == 1
        out[:, k] = (d2[:, ~one].min(1) - d2[:, one].min(1)) / (2.0 * sigma2)
    return out.reshape(-1)


def to_q312(values):
    return np.clip(np.rint(values * SYMBOL_SCALE), -32768, 32767).astype(np.int16)


def gray_oracle(bits, q_m):
    """Gray mapping by arithmetic: nested amplitudes 2 - (1-2c), 4 - (1-2c)(2 - ...)."""
    g = np.asarray(bits, dtype=np.int64).reshape(-1, q_m)
    half = q_m // 2

    def axis(cols):
        mag = np.ones(len(cols), dtype=np.int64)
        for lvl in range(1, half):
            mag = (1 << lvl) - (1 - 2 * cols[:, half - lvl]) * mag
        return (1 - 2 * cols[:, 0]) * mag

    norm = math.sqrt(2 * (4 ** half - 1) / 3)
    points = (axis(g[:, 0::2]) + 1j * axis(g[:, 1::2])) / norm
    return to_q312(points.real), to_q312(points.imag)


def complex_awgn(symbols, sigma2, seed):
    """AWGN through complex128 values, in-phase draws first."""
    rng = np.random.default_rng(seed)
    std = math.sqrt(sigma2 / 2.0)
    noisy = symbols.values() + rng.normal(0.0, std, len(symbols)) \
        + 1j * rng.normal(0.0, std, len(symbols))
    return to_q312(noisy.real), to_q312(noisy.imag)


def int64_llr_estimate(symbols, params):
    """The demapper with every product widened to int64."""
    def sat16(x):
        return np.clip(x, -32768, 32767).astype(np.int32)

    q_m = params.Q_m
    out = np.empty((len(symbols), q_m), dtype=np.int8)
    offsets = (params.B, params.C, params.D)
    for comp, base in ((symbols.re, 0), (symbols.im, 1)):
        t = comp.astype(np.int32)
        stage = -t
        for k in range(q_m // 2):
            scaled = sat16((stage.astype(np.int64) * params.A) >> 12)
            scaled = sat16((scaled.astype(np.int64) * params.inv_noise) >> 8)
            raw = np.sign(scaled) * ((np.abs(scaled) + 512) // 1024)
            out[:, 2 * k + base] = np.clip(raw, -31, 31)
            if k < q_m // 2 - 1:
                t = sat16(np.abs(t) - offsets[k])
                stage = t
    return out.reshape(-1)


def random_symbols(n, rng):
    """Q3.12 symbols over the whole int16 range, a quarter of them at the rails."""
    comps = rng.integers(-32768, 32768, (2, n)).astype(np.int16)
    comps[:, : n // 8] = rng.integers(32700, 32768, (2, n // 8))
    comps[:, n // 8: n // 4] = rng.integers(-32768, -32700, (2, n // 4 - n // 8))
    return EqualizedSymbols(comps[0], comps[1])


def noisy_symbols(q_m, sigma2, n, rng):
    tx = rng.integers(0, 2, n * q_m, dtype=np.uint8)
    clean = modulate(tx, q_m).values()
    r = clean + rng.normal(0, math.sqrt(sigma2 / 2), n) \
        + 1j * rng.normal(0, math.sqrt(sigma2 / 2), n)
    re = np.clip(np.rint(r.real * SYMBOL_SCALE), -32768, 32767).astype(np.int16)
    im = np.clip(np.rint(r.imag * SYMBOL_SCALE), -32768, 32767).astype(np.int16)
    return EqualizedSymbols(re, im)


class TestModulate:
    def test_qpsk_zero_pair(self):
        s = modulate(np.array([0, 0]), 2).values()[0]
        assert s == pytest.approx((1 + 1j) / math.sqrt(2), abs=2e-4)

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_unit_average_energy(self, q_m):
        sym = modulate(all_labels(q_m).reshape(-1), q_m)
        assert np.mean(np.abs(sym.values()) ** 2) == pytest.approx(1.0, abs=1e-3)

    def test_16qam_component_levels(self):
        sym = modulate(all_labels(4).reshape(-1), 4)
        levels = sorted(set(np.round(sym.values().real, 4)))
        expect = sorted(np.round([-3, -1, 1, 3] / np.sqrt(10), 4))
        assert levels == pytest.approx(expect, abs=2e-4)

    def test_gray_neighbors_differ_in_one_bit(self):
        # adjacent in-phase levels of 64QAM differ in exactly one I-axis bit
        labels = all_labels(6)
        sym = modulate(labels.reshape(-1), 6).values()
        by_level = {}
        for lab, s in zip(labels, sym):
            by_level.setdefault(round(s.real, 4), set()).add(tuple(lab[0::2]))
        levels = sorted(by_level)
        for a, b in zip(levels, levels[1:]):
            (la,), (lb,) = by_level[a], by_level[b]
            assert sum(x != y for x, y in zip(la, lb)) == 1

    def test_rejects_partial_group(self):
        with pytest.raises(ValueError):
            modulate(np.zeros(7, np.uint8), 4)

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_table_matches_gray_formula(self, q_m):
        labels = all_labels(q_m).reshape(-1)
        sym = modulate(labels, q_m)
        re, im = gray_oracle(labels, q_m)
        assert np.array_equal(sym.re, re) and np.array_equal(sym.im, im)

    @pytest.mark.parametrize("bits", [[2, 0, 0, -1], [0, 1, 1, 256], [0.5, 0, 1, 1]])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            modulate(np.array(bits), 2)

    @pytest.mark.parametrize("q_m", [2.0, np.float64(4), True, 0], ids=repr)
    def test_non_integer_q_m_rejected(self, q_m):
        with pytest.raises(ValueError, match="Q_m"):
            modulate(np.zeros(8, np.uint8), q_m)


class TestQuantize:
    def test_worked_examples(self):
        assert quantize(0.0) == 0
        assert quantize(-1.2) == -5    # -1.25, ties away from zero
        assert quantize(100.0) == 31   # clamp at +7.75

    def test_ties_away_from_zero(self):
        assert quantize(0.125) == 1
        assert quantize(-0.125) == -1

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 20), st.floats(-20, 20))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize(lo) <= quantize(hi)

    def test_idempotent_on_representable(self):
        raws = np.arange(-31, 32, dtype=np.int8)
        assert np.array_equal(quantize(raws / 4.0), raws)


class TestDemapperParams:
    def test_table_constants(self):
        p = DemapperParams.for_noise(8, 1.0)
        a = 2 / math.sqrt(170)
        assert p.A == round(a * SYMBOL_SCALE)
        assert p.B == round(4 * a * SYMBOL_SCALE)
        assert p.C == round(2 * a * SYMBOL_SCALE)
        assert p.D == round(1 * a * SYMBOL_SCALE)

    def test_inv_noise_format(self):
        assert DemapperParams.for_noise(2, 1.0).inv_noise == 256
        assert DemapperParams.for_noise(2, 0.5).inv_noise == 512
        assert DemapperParams.for_noise(2, 0.0).inv_noise == 0xFFFF  # clamped

    @pytest.mark.parametrize("sigma2", [1e-300, 1e-308, 1e-320, 5e-324])
    def test_tiny_noise_variance_clamps(self, sigma2):
        # 2^8 / sigma2 is inf below about 1.4e-306, which round() cannot convert
        assert DemapperParams.for_noise(2, sigma2).inv_noise == 0xFFFF

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            DemapperParams.for_noise(3, 1.0)

    @pytest.mark.parametrize("sigma2", [math.nan, -1.0, math.inf, -math.inf])
    def test_rejects_noise_variance_that_is_not_finite_and_nonnegative(self, sigma2):
        # nan and -1.0 once read as noiseless (inv_noise 65535), inf as infinite noise
        with pytest.raises(ValueError, match="sigma2"):
            DemapperParams.for_noise(2, sigma2)

    # Each of these once demapped to wrong LLRs: Q_m=3 read uninitialized
    # memory, and A=10**6 wrapped int32 to the wrong sign.
    @pytest.mark.parametrize("fields", [
        (3, 5793, 0, 0, 0, 2560), (0, 5793, 0, 0, 0, 256), (2.0, 5793, 0, 0, 0, 256),
        (2, 10 ** 6, 0, 0, 0, 2560), (2, 0, 0, 0, 0, 256), (2, 32768, 0, 0, 0, 256),
        (4, 2591, -1, 0, 0, 256), (6, 1264, 2528, 32768, 0, 256),
        (8, 628, 2513, 1257, -628, 256), (2, 5793, 0, 0, 0, 0x10000),
        (2, 5793, 0, 0, 0, -1), (2, 5793.0, 0, 0, 0, 256), (2, 5793, 0, 0, 0, 25.6),
        (2, True, 0, 0, 0, 256), (4, 2591, False, 0, 0, 256), (2, 5793, 0, 0, 0, True),
    ])
    def test_rejects_fields_outside_their_range(self, fields):
        with pytest.raises(ValueError):
            DemapperParams(*fields)

    def test_accepts_the_bounds(self):
        for fields in ((2, 1, 0, 0, 0, 0), (8, 32767, 32767, 32767, 32767, 0xFFFF)):
            assert DemapperParams(*fields).A == fields[1]


class TestEqualizedSymbols:
    @pytest.mark.parametrize("re,im", [
        (np.array([0.7, -3000.9]), np.array([0.0, 0.0])),
        (np.array([1, 2], np.int32), np.array([1, 2], np.int16)),
        (np.array([1, 2], np.int16), np.array([1, 2], np.uint16)),
        ([1, 2], np.array([1, 2], np.int16)),
        (np.zeros((2, 2), np.int16), np.zeros((2, 2), np.int16)),
        (np.array([1, 2], np.int16), np.array([1, 2, 3], np.int16)),
    ])
    def test_rejects_components_other_than_equal_1d_int16(self, re, im):
        with pytest.raises(ValueError, match="symbol component"):
            EqualizedSymbols(re, im)

    def test_strided_view_is_copied_contiguous_not_cast(self):
        comps = np.arange(-8, 8, dtype=np.int16).reshape(4, 4)
        sym = EqualizedSymbols(comps[:, 0], comps[:, 1])
        assert sym.re.flags.c_contiguous and sym.im.flags.c_contiguous
        assert sym.re.dtype == sym.im.dtype == np.int16
        assert sym.re.tolist() == [-8, -4, 0, 4] and sym.im.tolist() == [-7, -3, 1, 5]


class TestLlrEstimate:
    def test_qpsk_worked_example(self):
        # r = (1/sqrt2, 1/sqrt2), sigma2 = 1 -> both LLRs exactly -1.0
        v = int(round(SYMBOL_SCALE / math.sqrt(2)))
        sym = EqualizedSymbols(np.array([v], np.int16), np.array([v], np.int16))
        out = llr_estimate(sym, DemapperParams.for_noise(2, 1.0))
        assert out.tolist() == [-4, -4]

    def test_16qam_worked_example(self):
        # r_I = 3/sqrt10, sigma2 = 0.5: b0 -> -1.25 raw -5, b2 -> +0.5 raw 2
        v = int(round(3 / math.sqrt(10) * SYMBOL_SCALE))
        sym = EqualizedSymbols(np.array([v], np.int16), np.array([0], np.int16))
        out = llr_estimate(sym, DemapperParams.for_noise(4, 0.5))
        assert out[0] == -5
        assert out[2] == 2

    def test_near_rail_saturates(self):
        sym = EqualizedSymbols(np.array([int(7.9 * SYMBOL_SCALE)], np.int16),
                               np.array([0], np.int16))
        out = llr_estimate(sym, DemapperParams.for_noise(2, 1.0))
        assert out[0] == -31

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_exhaustive_noiseless_sign_agreement(self, q_m):
        # Low noise keeps every quantized output away from zero, so the
        # sign of each approximation is well defined at every point.
        sigma2 = 0.05
        labels = all_labels(q_m)
        sym = modulate(labels.reshape(-1), q_m)
        approx = llr_estimate(sym, DemapperParams.for_noise(q_m, sigma2))
        ref = maxlog_oracle(sym.values(), q_m, sigma2)
        assert not (approx == 0).any()
        assert np.array_equal(np.sign(approx), np.sign(ref))

    # Agreement rates measured over 10^4 samples at each order's typical
    # operating region (tolerances frozen from that measurement):
    #   QPSK @ 4 dB: 100%; 16QAM @ 12 dB: 99.6%;
    #   64QAM @ 20 dB: 100%; 256QAM @ 24 dB: 98.2%.
    # The linearized approximation underestimates outer-region magnitudes
    # at mid SNR (down to ~80% within 2 LSBs near 8-16 dB for Qm >= 4),
    # which is the documented error envelope of the approximation.
    @pytest.mark.parametrize("q_m,snr_db", [(2, 4.0), (4, 12.0), (6, 20.0), (8, 24.0)])
    def test_noisy_quantized_within_2lsb(self, q_m, snr_db):
        sigma2 = 10 ** (-snr_db / 10)
        rng = np.random.default_rng(99)
        sym = noisy_symbols(q_m, sigma2, 10_000, rng)
        approx = llr_estimate(sym, DemapperParams.for_noise(q_m, sigma2)).astype(int)
        ref = quantize(maxlog_oracle(sym.values(), q_m, sigma2)).astype(int)
        agree = (np.abs(approx - ref) <= 2).mean()
        assert agree >= 0.95

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_matches_int64_reference(self, q_m):
        rng = np.random.default_rng(40 + q_m)
        sym = random_symbols(4000, rng)
        for sigma2 in (0.0, 0.01, 0.5, 5.0):  # 0 gives the largest multiplier, 0xFFFF
            params = DemapperParams.for_noise(q_m, sigma2)
            assert np.array_equal(llr_estimate(sym, params), int64_llr_estimate(sym, params))

    def test_output_in_softllr_range(self):
        rng = np.random.default_rng(5)
        sym = noisy_symbols(8, 0.02, 2000, rng)
        out = llr_estimate(sym, DemapperParams.for_noise(8, 0.02))
        assert int(np.abs(out.astype(np.int16)).max()) <= 31


def approx_float(r, q_m, sigma2):
    """Unquantized nested-absolute-difference approximation (float)."""
    norm = {2: 2 ** 0.5, 4: 10 ** 0.5, 6: 42 ** 0.5, 8: 170 ** 0.5}[q_m]
    a = 2.0 / norm
    offs = {2: (), 4: (a,), 6: (2 * a, a), 8: (4 * a, 2 * a, a)}[q_m]
    out = np.empty((len(r), q_m))
    for base, comp in ((0, np.asarray(r).real), (1, np.asarray(r).imag)):
        t = comp.copy()
        stage = -t
        for k in range(q_m // 2):
            out[:, 2 * k + base] = stage * a / sigma2
            if k < q_m // 2 - 1:
                t = np.abs(t) - offs[k]
                stage = t
    return out.reshape(-1)


class TestApproximationEnvelope:
    # Normalized error |approx - maxlog| * sigma2, measured over 10^4
    # noisy samples per order and frozen with margin: QPSK is exact; the
    # measured maxima were 0.95 / 1.64 / 1.89 for 16/64/256QAM.
    ENVELOPE = {2: 0.01, 4: 1.2, 6: 2.0, 8: 2.3}

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    def test_unquantized_error_within_recorded_envelope(self, q_m):
        rng = np.random.default_rng(12)
        sigma2 = 0.25
        n = 10_000
        tx = rng.integers(0, 2, n * q_m, dtype=np.uint8)
        r = modulate(tx, q_m).values() \
            + rng.normal(0, math.sqrt(sigma2 / 2), n) \
            + 1j * rng.normal(0, math.sqrt(sigma2 / 2), n)
        err = np.abs(approx_float(r, q_m, sigma2) - maxlog_oracle(r, q_m, sigma2))
        assert float(err.max()) * sigma2 <= self.ENVELOPE[q_m]

    def test_qpsk_approximation_is_exact_maxlog(self):
        # algebraically identical for QPSK, any noise level; the residual
        # comes only from the oracle's Q3.12 constellation points
        rng = np.random.default_rng(13)
        for sigma2 in (0.1, 1.0, 4.0):
            r = rng.normal(0, 1, 2000) + 1j * rng.normal(0, 1, 2000)
            np.testing.assert_allclose(
                approx_float(r, 2, sigma2), maxlog_oracle(r, 2, sigma2),
                rtol=0, atol=0.05)

    def test_16qam_agrees_away_from_outer_region(self):
        # inside the first reflection boundary the linearization is exact,
        # so quantized outputs match the quantized oracle there
        sigma2 = 0.1
        rng = np.random.default_rng(14)
        sym = noisy_symbols(4, sigma2, 20_000, rng)
        params = DemapperParams.for_noise(4, sigma2)
        vals = sym.values()
        inner = (np.abs(vals.real) <= params.B / SYMBOL_SCALE) \
            & (np.abs(vals.imag) <= params.B / SYMBOL_SCALE)
        approx = llr_estimate(sym, params).astype(int).reshape(-1, 4)[inner]
        ref = quantize(maxlog_oracle(vals, 4, sigma2)).astype(int).reshape(-1, 4)[inner]
        assert inner.sum() > 1000
        assert int(np.abs(approx - ref).max()) <= 2


class TestAwgn:
    def test_zero_noise_is_identity(self):
        sym = modulate(np.arange(16) % 2, 2)
        out = awgn(sym, 0.0, 1)
        assert np.array_equal(out.re, sym.re) and np.array_equal(out.im, sym.im)

    @pytest.mark.parametrize("sigma2", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_sigma2_rejected(self, sigma2):
        sym = modulate(np.zeros(64, np.uint8), 2)
        with pytest.raises(ValueError, match="sigma2"):
            awgn(sym, sigma2, 1)

    def test_seed_determinism(self):
        sym = modulate(np.zeros(64, np.uint8), 2)
        a = awgn(sym, 0.3, 42)
        b = awgn(sym, 0.3, 42)
        assert np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)

    @pytest.mark.parametrize("q_m", [2, 4, 6, 8])
    @pytest.mark.parametrize("sigma2", [0.01, 0.1, 1.0, 5.0])
    def test_matches_complex_reference(self, q_m, sigma2):
        rng = np.random.default_rng(q_m)
        clean = modulate(rng.integers(0, 2, 1000 * q_m), q_m)
        rails = random_symbols(1000, rng)  # noise pushes many past +/-32767
        sym = EqualizedSymbols(np.concatenate([clean.re, rails.re]),
                               np.concatenate([clean.im, rails.im]))
        for seed in (0, 7, np.random.SeedSequence(2**40 + q_m)):
            out = awgn(sym, sigma2, seed)
            re, im = complex_awgn(sym, sigma2, seed)
            assert np.array_equal(out.re, re) and np.array_equal(out.im, im)
            assert out.re.dtype == out.im.dtype == np.int16

    def test_sample_variance(self):
        rng = np.random.default_rng(0)
        sym = modulate(rng.integers(0, 2, 200_000).astype(np.uint8), 2)
        out = awgn(sym, 0.4, 7)
        d = out.values() - sym.values()
        assert np.var(d.real) + np.var(d.imag) == pytest.approx(0.4, rel=0.05)


def _llr_word(raw, w):
    """Byte k of word w is raw[4w+k] & 0xFF (zero past the end)."""
    return sum((int(v) & 0xFF) << 8 * k for k, v in enumerate(raw[4 * w:4 * w + 4]))


def _bit_word(bits, w):
    """Bit j of word w is bits[32w+j] (zero past the end)."""
    return sum(int(b) << j for j, b in enumerate(bits[32 * w:32 * w + 32]))


class TestPacking:
    def test_llr_word_layout(self):
        ws = pack_llr_words(np.array([1, -1, 31, -31], np.int8))
        assert ws.kind == KIND_LLRS
        assert ws.words.tolist() == [0xE11FFF01]
        assert ws.to_bytes() == bytes([0x01, 0xFF, 0x1F, 0xE1])

    def test_empty_stream(self):
        assert len(pack_llr_words(np.array([], np.int8)).words) == 0

    def test_llr_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for n in [*range(201), 10_000]:
            raw = rng.integers(-31, 32, n).astype(np.int8)
            ws = pack_llr_words(raw)
            assert ws.words.tolist() == [_llr_word(raw, w) for w in range(-(-n // 4))]
            assert np.array_equal(unpack_llr_words(ws, n), raw)

    def test_malformed_sign_extension_rejected(self):
        bad = PackedWordStream(np.array([0x00000040], np.uint32), KIND_LLRS)
        with pytest.raises(FormatError):
            unpack_llr_words(bad)
        minus32 = PackedWordStream(np.array([0x000000E0], np.uint32), KIND_LLRS)
        with pytest.raises(FormatError):
            unpack_llr_words(minus32)

    def test_nonzero_padding_rejected(self):
        # three LLRs leave one pad byte, the top byte of the word; 5 would be
        # a valid fourth LLR but is not a valid pad
        padded = PackedWordStream(np.array([0x05000000], np.uint32), KIND_LLRS)
        assert unpack_llr_words(padded, 4).tolist() == [0, 0, 0, 5]
        with pytest.raises(FormatError):
            unpack_llr_words(padded, 3)

    def test_bit_word_lsb_first(self):
        bits = np.zeros(32, np.uint8)
        bits[0] = 1
        assert pack_bit_words(bits).words.tolist() == [1]

    @pytest.mark.parametrize("bits", [[2, 0, 0, 0], [256, 1, 0, 0], [0, -1], [0.5, 1]])
    def test_non_binary_bit_words_rejected(self, bits):
        with pytest.raises(ValueError):
            pack_bit_words(np.array(bits))

    @pytest.mark.parametrize("pack, values", [
        (pack_llr_words, np.ones((3, 3), np.int8)),  # would flatten into 3 words
        (pack_llr_words, np.int8(5)),
        (pack_bit_words, np.ones((4, 8), np.uint8)),
    ], ids=["llr-2-D", "llr-scalar", "bit-2-D"])
    def test_non_1d_input_rejected(self, pack, values):
        with pytest.raises(ValueError, match="1-D"):
            pack(values)

    def test_33rd_bit_starts_new_word(self):
        bits = np.zeros(33, np.uint8)
        bits[32] = 1
        ws = pack_bit_words(bits)
        assert ws.words.tolist() == [0, 1]
        assert unpack_bit_words(ws, 33)[32] == 1

    def test_bit_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for n in [*range(201), 10_000]:
            bits = rng.integers(0, 2, n).astype(np.uint8)
            ws = pack_bit_words(bits)
            assert ws.words.tolist() == [_bit_word(bits, w) for w in range(-(-n // 32))]
            assert np.array_equal(unpack_bit_words(ws, n), bits)

    def test_count_overflow_rejected(self):
        ws = pack_bit_words(np.zeros(32, np.uint8))
        with pytest.raises(FormatError):
            unpack_bit_words(ws, 33)
        ls = pack_llr_words(np.zeros(4, np.int8))
        with pytest.raises(FormatError):
            unpack_llr_words(ls, 5)

    def test_negative_count_rejected(self):
        # a negative count would otherwise slice from the end of the stream
        with pytest.raises(FormatError, match="negative"):
            unpack_llr_words(pack_llr_words(np.array([1, 2, 3, 4, 0, 0, 0, 0], np.int8)), -4)
        with pytest.raises(FormatError, match="negative"):
            unpack_llr_words(pack_llr_words(np.array([1, 2, 3, 4], np.int8)), -1)
        with pytest.raises(FormatError, match="negative"):
            unpack_bit_words(pack_bit_words(np.ones(32, np.uint8)), -1)

    @pytest.mark.parametrize("count", [True, False, 2.0, np.float64(4.0), "4"], ids=repr)
    def test_non_integer_count_rejected(self, count):
        # a bool is not a count, though True == 1, nor is a whole float
        llrs = PackedWordStream(np.array([0x05], np.uint32), KIND_LLRS)
        with pytest.raises(FormatError, match="count must be an integer"):
            unpack_llr_words(llrs, count)
        bits = pack_bit_words(np.ones(32, np.uint8))
        with pytest.raises(FormatError, match="count must be an integer"):
            unpack_bit_words(bits, count)

    def test_numpy_integer_count_reads_as_its_value(self):
        llrs = PackedWordStream(np.array([0x05], np.uint32), KIND_LLRS)
        assert unpack_llr_words(llrs, np.int64(1)).tolist() == [5]
        assert unpack_llr_words(llrs, np.uint8(4)).tolist() == [5, 0, 0, 0]
        bits = pack_bit_words(np.array([1, 0, 1], np.uint8))
        assert unpack_bit_words(bits, np.int32(3)).tolist() == [1, 0, 1]

    def test_kind_mismatch_rejected(self):
        ws = pack_bit_words(np.zeros(32, np.uint8))
        with pytest.raises(FormatError):
            unpack_llr_words(ws)

    def test_hex_dump_roundtrip(self):
        ws = pack_llr_words(np.array([5, -6, 7, -8, 9], np.int8))
        again = PackedWordStream.from_hex(ws.dump_hex(), KIND_LLRS)
        assert np.array_equal(again.words, ws.words)

    def test_hex_dump_reads_golden_words(self):
        text = (DATA / "golden_words.txt").read_text()
        ws = PackedWordStream.from_hex(text, KIND_RAW_BITS)
        assert len(ws.words) == 12 and ws.dump_hex() == text

    def test_hex_dump_reads_short_words_and_blank_lines(self):
        ws = PackedWordStream.from_hex("ffffffff\r\n\n  0 \nA\n", KIND_RAW_BITS)
        assert ws.words.tolist() == [0xFFFFFFFF, 0, 0xA]

    @pytest.mark.parametrize("line", ["1ffffffff", "-1", "zz", "+1", "0x1f", "1_0",
                                      "0000 0001"])
    def test_malformed_hex_dump_line_rejected(self, line):
        # each line holds one word of at most 8 hex digits, as dump_hex writes it
        with pytest.raises(FormatError, match="malformed hex dump"):
            PackedWordStream.from_hex(f"00000001\n{line}\n", KIND_RAW_BITS)

    def test_bytes_roundtrip(self):
        ws = pack_bit_words(np.arange(100) % 2)
        again = PackedWordStream.from_bytes(ws.to_bytes(), KIND_RAW_BITS)
        assert np.array_equal(again.words, ws.words)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-31, 31), max_size=200))
    def test_llr_roundtrip_property(self, raws):
        raw = np.array(raws, np.int8)
        assert np.array_equal(unpack_llr_words(pack_llr_words(raw), len(raw)), raw)
