"""Gold sequence and scrambling tests against a bit-at-a-time oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from nrphy.scramble import (
    _X1_WARM,
    _X2_WARM,
    SEQUENCE_CACHE_SIZE,
    ScramblingIdentity,
    _sequence,
    descramble_llrs,
    scramble_bits,
    sequence,
)


def gold_oracle(c_init, n):
    """Independent step-by-step dual-LFSR implementation."""
    nc = 1600
    total = n + nc + 31
    x1 = [0] * total
    x2 = [0] * total
    x1[0] = 1
    for i in range(31):
        x2[i] = (c_init >> i) & 1
    for i in range(total - 31):
        x1[i + 31] = (x1[i + 3] + x1[i]) % 2
        x2[i + 31] = (x2[i + 3] + x2[i + 2] + x2[i + 1] + x2[i]) % 2
    return np.array([(x1[i + nc] + x2[i + nc]) % 2 for i in range(n)], dtype=np.uint8)


IDENTITIES = [
    ScramblingIdentity(0, 0, 0),
    ScramblingIdentity(1, 0, 0),
    ScramblingIdentity(0, 0, 1),
    ScramblingIdentity(0, 1, 0),
    ScramblingIdentity(42, 0, 1),
    ScramblingIdentity(0xFFFF, 1, 1007),
    ScramblingIdentity(17, 1, 399),
    ScramblingIdentity(5000, 0, 777),
    ScramblingIdentity(300, 1, 2),
    ScramblingIdentity(65535, 0, 0),
]

# The generator starts from the state after the warm-up and fills up to
# 28*2^k outputs per pass once 31*2^k outputs exist, so its passes change
# step at n = 31*2^k; probe each one and either side. The lengths where
# WARMUP + n = 31*2^k (the boundaries of a generator that runs the warm-up
# on every call) stay, as does the 101376-bit transport block of the
# 8-block K'=8448 link.
ORACLE_LENGTHS = sorted(
    {4096, 101376}
    | {31 * 2 ** k + d for k in range(0, 12) for d in (-1, 0, 1)}
    | {31 * 2 ** k - 1600 + d for k in range(6, 12) for d in (-1, 0, 1)})


def register_state(bits):
    """31 consecutive outputs packed as a register state, the oldest in bit 0."""
    return sum(int(b) << i for i, b in enumerate(bits))


class TestGoldSequence:
    def test_c_init_packing(self):
        ident = ScramblingIdentity(rnti=3, q=1, cell_id=5)
        assert ident.c_init == 3 * 2 ** 15 + 1 * 2 ** 14 + 5

    @pytest.mark.parametrize("field, value", [("rnti", 42.5), ("rnti", True), ("q", 1.0),
                                              ("cell_id", 7.0)])
    def test_non_integer_identity_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScramblingIdentity(**dict(dict(rnti=42, q=0, cell_id=1), **{field: value}))

    def test_zero_identity_is_x1_only(self):
        # c_init = 0 keeps x2 all-zero, so the output is the x1 stream alone.
        n = 256
        x1 = [1] + [0] * (n + 1631)
        for i in range(n + 1600):
            x1[i + 31] = (x1[i + 3] + x1[i]) % 2
        expect = np.array(x1[1600:1600 + n], dtype=np.uint8)
        assert np.array_equal(sequence(ScramblingIdentity(0, 0, 0), n), expect)

    def test_warm_states_match_oracle(self):
        # The 32 per-process constants are the states after the 1600-output
        # warm-up: x1's, then x2's for each c_init = 2^i. With c_init = 0 x2
        # stays zero, so the oracle's output is x1 alone.
        x1 = gold_oracle(0, 31)
        assert _X1_WARM == register_state(x1)
        assert len(_X2_WARM) == 31
        for i, state in enumerate(_X2_WARM):
            assert state == register_state(gold_oracle(1 << i, 31) ^ x1), i

    @pytest.mark.parametrize("bit", range(31))
    def test_single_bit_c_init_matches_oracle(self, bit):
        # Bits 10-13 of c_init lie past cell_id's range, beyond any
        # ScramblingIdentity, yet each selects its own x2 state; sequence
        # reads only c_init.
        ident = SimpleNamespace(c_init=1 << bit)
        assert np.array_equal(sequence(ident, 500), gold_oracle(1 << bit, 500))

    @pytest.mark.parametrize("ident", IDENTITIES, ids=lambda i: f"cinit={i.c_init}")
    def test_matches_bitwise_oracle(self, ident):
        # Shorter sequences are prefixes of longer ones, so one oracle run
        # checks every length.
        oracle = gold_oracle(ident.c_init, max(ORACLE_LENGTHS))
        for n in ORACLE_LENGTHS:
            assert np.array_equal(sequence(ident, n), oracle[:n]), f"n={n}"

    def test_distinct_identities_distinct_sequences(self):
        a = sequence(ScramblingIdentity(1, 0, 0), 512)
        b = sequence(ScramblingIdentity(0, 0, 1), 512)
        assert not np.array_equal(a, b)

    def test_same_identity_reproducible(self):
        ident = ScramblingIdentity(9, 1, 500)
        assert np.array_equal(sequence(ident, 777), sequence(ident, 777))

    def test_zero_length_is_empty(self):
        assert sequence(ScramblingIdentity(9, 1, 500), 0).shape == (0,)

    @pytest.mark.parametrize("n", [-1, -5, -1599, -1600])
    def test_negative_length_rejected(self, n):
        with pytest.raises(ValueError, match="length"):
            sequence(ScramblingIdentity(9, 1, 500), n)

    def test_numpy_integer_length_reads_as_int(self):
        # np.int64 once raised AttributeError from int.to_bytes
        ident = ScramblingIdentity(9, 1, 500)
        assert np.array_equal(sequence(ident, np.int64(37)), sequence(ident, 37))

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(ValueError, match="length must be an integer"):
            sequence(ScramblingIdentity(9, 1, 500), n)


class TestSequenceCache:
    def test_result_is_read_only(self):
        ident = ScramblingIdentity(77, 1, 12)
        seq = sequence(ident, 300)
        with pytest.raises(ValueError, match="read-only"):
            seq[:] = 1 - seq
        assert np.array_equal(sequence(ident, 300), gold_oracle(ident.c_init, 300))

    def test_identities_and_lengths_never_share_bits(self):
        # every (identity, length) in an interleaved order, twice: each call
        # returns its own oracle bits, whatever was asked for just before
        lengths = (1, 31, 256, 257, 4096)
        oracles = {i.c_init: gold_oracle(i.c_init, max(lengths)) for i in IDENTITIES}
        rng = np.random.default_rng(11)
        pairs = [(i, n) for i in IDENTITIES for n in lengths] * 2
        for k in rng.permutation(len(pairs)):
            ident, n = pairs[k]
            assert np.array_equal(sequence(ident, n), oracles[ident.c_init][:n]), \
                (ident, n)

    def test_cache_holds_at_most_its_size(self):
        for rnti in range(SEQUENCE_CACHE_SIZE + 5):
            sequence(ScramblingIdentity(rnti, 0, 500), 64)
        info = _sequence.cache_info()
        assert info.maxsize == SEQUENCE_CACHE_SIZE
        assert info.currsize <= SEQUENCE_CACHE_SIZE

    def test_scrambled_outputs_are_fresh_and_writable(self):
        ident = ScramblingIdentity(8, 0, 8)
        seq = sequence(ident, 64).copy()
        for out in (scramble_bits(np.zeros(64, np.uint8), ident),
                    descramble_llrs(np.ones(64, np.int8), ident)):
            out[:] = 0
        assert np.array_equal(sequence(ident, 64), seq)


class TestScrambleBits:
    def test_involution(self):
        rng = np.random.default_rng(0)
        ident = ScramblingIdentity(123, 0, 456)
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        assert np.array_equal(scramble_bits(scramble_bits(bits, ident), ident), bits)

    def test_zero_positions_unchanged(self):
        ident = ScramblingIdentity(14, 0, 3)
        bits = np.ones(700, np.uint8)
        out = scramble_bits(bits, ident)
        c = sequence(ident, 700)
        assert np.array_equal(out[c == 0], bits[c == 0])

    def test_zero_input_reveals_sequence(self):
        ident = ScramblingIdentity(31, 1, 900)
        out = scramble_bits(np.zeros(512, np.uint8), ident)
        assert np.array_equal(out, sequence(ident, 512))

    @pytest.mark.parametrize("bits", [[2, 2, 2, 2, 3, 0], [0, 1, -1], [0, 256], [0.5, 1]])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            scramble_bits(np.array(bits), ScramblingIdentity(31, 1, 900))


    def test_non_1d_bits_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            scramble_bits(np.zeros((4, 2), np.uint8), ScramblingIdentity(31, 1, 900))


class TestDescrambleLlrs:
    def test_sign_flip_where_bit_set(self):
        ident = ScramblingIdentity(3, 0, 3)
        raw = np.full(100, 12, np.int8)  # +3.0
        out = descramble_llrs(raw, ident)
        c = sequence(ident, 100)
        assert np.all(out[c == 1] == -12)
        assert np.all(out[c == 0] == 12)

    def test_magnitude_preserved_exactly(self):
        rng = np.random.default_rng(1)
        ident = ScramblingIdentity(200, 1, 200)
        raw = rng.integers(-31, 32, 2048).astype(np.int8)
        assert np.array_equal(np.abs(descramble_llrs(raw, ident)), np.abs(raw))

    def test_negation_closed_at_rail(self):
        ident = ScramblingIdentity(0, 0, 3)
        raw = np.full(64, -31, np.int8)
        out = descramble_llrs(raw, ident)
        assert set(np.unique(out)) <= {-31, 31}

    def test_commutes_with_hard_decision(self):
        # hard(descramble(x)) == scramble(hard(x)) with hard(v) = v > 0
        rng = np.random.default_rng(2)
        ident = ScramblingIdentity(99, 0, 99)
        raw = rng.integers(-31, 32, 4096).astype(np.int8)
        raw = raw[raw != 0]  # zero has no sign to flip
        lhs = (descramble_llrs(raw, ident) > 0).astype(np.uint8)
        rhs = scramble_bits((raw > 0).astype(np.uint8), ident)[: len(raw)]
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("llrs", [
        np.ones((5, 1), np.int8),  # would broadcast against 5 scrambling bits to (5, 5)
        np.ones((2, 3), np.int8),
        np.int8(5),
    ], ids=["column", "2-D", "scalar"])
    def test_non_1d_input_rejected(self, llrs):
        with pytest.raises(ValueError, match="1-D"):
            descramble_llrs(llrs, ScramblingIdentity(3, 0, 3))

    def test_roundtrip_restores_signs(self):
        rng = np.random.default_rng(3)
        ident = ScramblingIdentity(55, 0, 12)
        bits = rng.integers(0, 2, 600).astype(np.uint8)
        tx = scramble_bits(bits, ident)
        # model a perfect channel: positive LLR means bit 1
        llrs = np.where(tx == 1, 31, -31).astype(np.int8)
        rx = descramble_llrs(llrs, ident)
        assert np.array_equal((rx > 0).astype(np.uint8), bits)
