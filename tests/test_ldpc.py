"""LDPC module tests: graph structure, encoding, and the min-sum decoder."""

import hashlib
import os
import shlex
import shutil
from collections import Counter

import numpy as np
import pytest

from nrphy import _native
from nrphy.errors import ConfigError
from nrphy.ldpc import (
    LIFTING_SETS,
    MAX_ITERATIONS,
    BaseGraphId,
    InfoBlock,
    TerminationReason,
    _element_indices,
    _layers,
    as_bits,
    as_int,
    as_softllr,
    build_code,
    check_node_update,
    choose_base_graph,
    ldpc_decode,
    ldpc_encode,
    parity_check,
    select_lifting,
)
from nrphy.rate_adapt import (
    HarqBufferPool,
    RateMatchConfig,
    materialize_decoder_input,
    rate_match,
    rate_unmatch_combine,
)


GOLDEN_DECODES_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_decodes.txt")

# (amplitude, noise sigma) of each noisy codeword, in raw quarter-LLR units
GOLDEN_DECODE_POINTS = ((31, 2.0), (16, 8.0), (10, 10.0), (6, 8.0), (4, 6.0), (2, 4.0))


def random_codeword(code, rng, filler=0):
    bits = np.zeros(code.K, dtype=np.uint8)
    bits[: code.K - filler] = rng.integers(0, 2, code.K - filler)
    return InfoBlock(bits, filler), ldpc_encode(code, InfoBlock(bits, filler))


def solve_gf2(a, b):
    """x with a @ x = b over GF(2), for an invertible square a (Gaussian elimination)."""
    ab = np.column_stack([a, b]).astype(np.uint8)
    for col in range(len(ab)):
        pivot = col + np.flatnonzero(ab[col:, col])[0]
        ab[[col, pivot]] = ab[[pivot, col]]
        others = np.flatnonzero(ab[:, col])
        ab[others[others != col]] ^= ab[col]
    return ab[:, -1]


def reference_encode(code, bits):
    """Per-row loop encoder: p0 from the sum of the four core rows, solved
    on the dense Zc x Zc circulant, then, in base-graph order, each row's
    one unsolved column from the XOR of the row's other bits."""
    Zc, kb = code.Zc, code.systematic_cols
    t = np.arange(Zc)
    idx = [np.array([c * Zc + (t + s) % Zc for c, s in row]) for row in code.rows]
    x = np.zeros(code.N_full, dtype=np.uint8)
    x[: code.K] = bits
    # lifted row t of an edge (kb, s) reads p0[(t + s) % Zc]
    circulant = np.zeros((Zc, Zc), dtype=np.uint8)
    for row in code.rows[:4]:
        for c, s in row:
            if c == kb:
                circulant[t, (t + s) % Zc] ^= 1
    syndrome = np.bitwise_xor.reduce(x[np.concatenate(idx[:4])], axis=0)
    x[kb * Zc:(kb + 1) * Zc] = solve_gf2(circulant, syndrome)
    solved = set(range(kb + 1))
    for row, ix in zip(code.rows, idx):
        unsolved = [e for e, (c, _) in enumerate(row) if c not in solved]
        assert len(unsolved) <= 1
        if unsolved:
            x[ix[unsolved[0]]] = np.bitwise_xor.reduce(x[ix], axis=0)
            solved.add(row[unsolved[0]][0])
    return x


def max_conf_llrs(bits):
    return np.where(np.asarray(bits) == 1, 31, -31).astype(np.int8)


class OnDecoderPath:
    """Runs a class's tests on the path ``path`` of every stage the kernel offloads.

    "native" is the compiled kernel, which encodes and decodes: its tests
    skip only on a host with no C compiler at all, and fail where a
    compiler fails the build. A subclass with ``path = "numpy"`` runs the
    same tests on the NumPy bodies, as a host without the kernel does.
    """

    path = "native"

    @pytest.fixture(autouse=True)
    def _on_path(self, monkeypatch):
        if self.path == "numpy":
            monkeypatch.setattr(_native, "library", lambda: None)
        elif shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is None:
            pytest.skip("no C compiler on this host")
        else:
            assert _native.library() is not None, "the layer kernel did not build"


class TestBaseGraphSelection:
    def test_benchmark_block_uses_bg1(self):
        assert choose_base_graph(8448, 2 / 3) is BaseGraphId.BG1

    def test_short_block_uses_bg2(self):
        assert choose_base_graph(100, 1 / 2) is BaseGraphId.BG2

    def test_midsize_boundary(self):
        assert choose_base_graph(3824, 0.67) is BaseGraphId.BG2
        assert choose_base_graph(3825, 0.67) is BaseGraphId.BG1

    def test_low_rate_prefers_bg2(self):
        assert choose_base_graph(8000, 0.25) is BaseGraphId.BG2

    def test_rejects_empty_payload(self):
        with pytest.raises(ConfigError):
            choose_base_graph(0, 0.5)


class TestSelectLifting:
    def test_largest_bg1_block(self):
        Zc, _, K, F = select_lifting(BaseGraphId.BG1, 8448)
        assert (Zc, K, F) == (384, 8448, 0)

    def test_minimum_lifting(self):
        Zc, _, K, F = select_lifting(BaseGraphId.BG2, 10)
        assert (Zc, K, F) == (2, 20, 10)

    def test_exact_fit(self):
        Zc, _, K, F = select_lifting(BaseGraphId.BG2, 100)
        assert (Zc, K, F) == (10, 100, 0)

    def test_smallest_valid_zc_scan(self):
        # Oracle: scan the whole lifting table directly.
        for k_prime in (24, 100, 263, 1000, 3840):
            Zc, _, K, _ = select_lifting(BaseGraphId.BG2, k_prime)
            candidates = [z for zs in LIFTING_SETS for z in zs if 10 * z >= k_prime]
            assert Zc == min(candidates)
            assert K == 10 * Zc

    def test_oversized_block_rejected(self):
        with pytest.raises(ConfigError):
            select_lifting(BaseGraphId.BG1, 8449)
        with pytest.raises(ConfigError):
            select_lifting(BaseGraphId.BG2, 3841)

    @pytest.mark.parametrize("k_prime", [1, 2, 3])
    def test_fillers_in_punctured_head_rejected(self, k_prime):
        # K=20 and 2Zc=4 at Zc=2: K' < 4 leaves filler bits in the punctured head
        with pytest.raises(ConfigError):
            select_lifting(BaseGraphId.BG2, k_prime)


class TestBuildCode:
    def test_bg1_benchmark_dimensions(self):
        code = build_code(BaseGraphId.BG1, 384)
        assert (code.K, code.N_cb, code.N_full) == (8448, 25344, 26112)

    def test_bg2_smallest_instance(self):
        code = build_code(BaseGraphId.BG2, 2)
        assert (code.K, code.N_cb, code.N_full) == (20, 100, 104)

    def test_all_shifts_below_zc(self):
        for bg in BaseGraphId:
            for Zc in (2, 13, 15, 208, 384):
                try:
                    code = build_code(bg, Zc)
                except ConfigError:
                    continue
                assert all(0 <= s < Zc for row in code.rows for _, s in row)

    def test_dimension_relation_across_sets(self):
        for bg, kb, nb in ((BaseGraphId.BG1, 22, 66), (BaseGraphId.BG2, 10, 50)):
            for zs in LIFTING_SETS:
                code = build_code(bg, zs[0])
                assert code.K == kb * zs[0]
                assert code.N_cb == nb * zs[0]
                assert code.N_full == code.N_cb + 2 * zs[0]

    def test_invalid_zc_rejected(self):
        with pytest.raises(ConfigError):
            build_code(BaseGraphId.BG1, 17)


class TestDataDirOverride:
    def test_env_var_redirects_table_loading(self, tmp_path, monkeypatch):
        import shutil

        import nrphy.ldpc as ldpc_mod

        packaged = build_code(BaseGraphId.BG2, 8)
        src = ldpc_mod.resources.files("nrphy") / "data"
        for name in ("bg1.txt", "bg2.txt"):
            shutil.copy(str(src / name), tmp_path / name)

        ldpc_mod._base_table.cache_clear()
        build_code.cache_clear()
        monkeypatch.setenv(ldpc_mod.DATA_DIR_ENV, str(tmp_path))
        try:
            redirected = build_code(BaseGraphId.BG2, 8)
            assert redirected.rows == packaged.rows

            (tmp_path / "bg2.txt").write_text("0 0 1 1 1 1\n")
            ldpc_mod._base_table.cache_clear()
            build_code.cache_clear()
            with pytest.raises(ConfigError):
                build_code(BaseGraphId.BG2, 8)
        finally:
            monkeypatch.delenv(ldpc_mod.DATA_DIR_ENV)
            ldpc_mod._base_table.cache_clear()
            build_code.cache_clear()


class TestEncoder(OnDecoderPath):
    def test_zero_maps_to_zero(self):
        code = build_code(BaseGraphId.BG2, 10)
        cw = ldpc_encode(code, InfoBlock(np.zeros(code.K, np.uint8), 0))
        assert not cw.bits.any()

    def test_random_words_satisfy_parity(self):
        rng = np.random.default_rng(3)
        for bg, Zc in ((BaseGraphId.BG1, 8), (BaseGraphId.BG2, 36), (BaseGraphId.BG1, 384)):
            code = build_code(bg, Zc)
            for _ in range(5):
                info, cw = random_codeword(code, rng)
                assert parity_check(code, cw.bits)
                assert np.array_equal(cw.bits[: code.K], info.bits)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        code = build_code(BaseGraphId.BG2, 20)
        _, cw1 = random_codeword(code, rng)
        _, cw2 = random_codeword(code, rng)
        both = cw1.bits ^ cw2.bits
        assert parity_check(code, both)

    def test_every_lifting_set_encodable(self):
        rng = np.random.default_rng(5)
        # A word that passes every check and starts with the info bits is
        # the unique systematic codeword, so this pins the encoder's output.
        for bg in BaseGraphId:
            for zs in LIFTING_SETS:
                for Zc in zs:
                    code = build_code(bg, Zc)
                    info, cw = random_codeword(code, rng)
                    assert parity_check(code, cw.bits), f"{bg} Zc={Zc}"
                    assert np.array_equal(cw.bits[: code.K], info.bits), f"{bg} Zc={Zc}"

    def test_wrong_length_rejected(self):
        code = build_code(BaseGraphId.BG2, 2)
        with pytest.raises(ValueError):
            ldpc_encode(code, InfoBlock(np.zeros(code.K + 1, np.uint8), 0))

    @pytest.mark.parametrize("fillers", [161, 180, 200])
    def test_more_fillers_than_fit_before_the_punctured_head_rejected(self, fillers):
        # BG2 Zc=20: an InfoBlock of K = 200 bits takes up to 200 fillers,
        # but only K - 2Zc = 160 fit, as rate matching would say a stage later
        code = build_code(BaseGraphId.BG2, 20)
        with pytest.raises(ValueError, match=r"filler count must be in \[0, 161\)"):
            ldpc_encode(code, InfoBlock(np.zeros(code.K, np.uint8), fillers))
        assert ldpc_encode(code, InfoBlock(np.zeros(code.K, np.uint8), 160)).filler_count == 160

    def test_matches_per_row_reference_every_lifting_size(self):
        rng = np.random.default_rng(13)
        for bg in BaseGraphId:
            for zs in LIFTING_SETS:
                for Zc in zs:
                    code = build_code(bg, Zc)
                    info, cw = random_codeword(code, rng)
                    assert np.array_equal(cw.bits, reference_encode(code, info.bits)), \
                        f"{bg} Zc={Zc}"

    def test_unsupported_parity_structure_rejected(self, bad_parity_tables):
        with pytest.raises(ConfigError):
            build_code(BaseGraphId.BG2, 8)

    @pytest.mark.parametrize("bad", [2, -1, 256, 0.5])
    def test_non_binary_info_bits_rejected(self, bad):
        bits = np.zeros(20, dtype=np.asarray(bad).dtype)
        bits[3] = bad
        with pytest.raises(ValueError):
            InfoBlock(bits, 0)


class TestEncoderNumpy(TestEncoder):
    path = "numpy"


class TestInfoBlock:
    @pytest.mark.parametrize("count", [0, 5, 20, np.int64(3)], ids=repr)
    def test_filler_count_in_range_accepted(self, count):
        block = InfoBlock(np.zeros(20, np.uint8), count)
        assert block.filler_count == count and type(block.filler_count) is int

    @pytest.mark.parametrize("count", [-1, 21, 25, True, 2.0], ids=repr)
    def test_filler_count_outside_range_or_not_integer_rejected(self, count):
        with pytest.raises(ValueError, match="filler_count"):
            InfoBlock(np.zeros(20, np.uint8), count)


class TestInputShape:
    @pytest.mark.parametrize("convert", [as_bits, as_softllr], ids=["bits", "softllrs"])
    @pytest.mark.parametrize("values", [np.zeros((4, 1), np.int8), np.int8(0)],
                             ids=["column", "scalar"])
    def test_non_1d_rejected(self, convert, values):
        with pytest.raises(ValueError, match="1-D"):
            convert(values)

    def test_2d_info_block_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            InfoBlock(np.zeros((2, 10), np.uint8), 0)


class TestAsInt:
    @pytest.mark.parametrize("value", [0, 15, np.int64(3), np.uint8(15)])
    def test_integers_in_range_pass_as_int(self, value):
        out = as_int(value, "x", 0, 16)
        assert type(out) is int and out == value

    @pytest.mark.parametrize("value", [True, np.bool_(False), 2.0, 2.5, "2", None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="x must be an integer"):
            as_int(value, "x", 0, 16)

    @pytest.mark.parametrize("value, lo, hi", [(-1, 0, 16), (16, 0, 16), (0, 1, None)])
    def test_out_of_range_rejected(self, value, lo, hi):
        with pytest.raises(ValueError, match="x must be"):
            as_int(value, "x", lo, hi)


class TestParityCheck:
    def test_all_zero_passes(self):
        code = build_code(BaseGraphId.BG2, 4)
        assert parity_check(code, np.zeros(code.N_full, np.uint8))

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(6)
        code = build_code(BaseGraphId.BG2, 3)
        _, cw = random_codeword(code, rng)
        for i in range(code.N_full):
            mutated = cw.bits.copy()
            mutated[i] ^= 1
            assert not parity_check(code, mutated), f"flip at {i} undetected"

    @pytest.mark.parametrize("fill", [
        0.7,  # a cast would read it as 0
        256,  # a cast would wrap it to 0
        np.uint8(2),
        -1,
    ], ids=["float-0.7", "int-256", "uint8-2", "int-minus-1"])
    def test_non_binary_bits_rejected(self, fill):
        code = build_code(BaseGraphId.BG2, 2)
        with pytest.raises(ValueError):
            parity_check(code, np.full(code.N_full, fill))


def brute_force_check_node(raws, offset_raw=2):
    """Definition-level re-implementation used as the oracle."""
    raws = list(int(v) for v in raws)
    out = []
    for i in range(len(raws)):
        others = raws[:i] + raws[i + 1:]
        mag = max(0, min(abs(v) for v in others) - offset_raw)
        sign = 1
        for v in others:
            if v < 0:
                sign = -sign
        out.append(sign * mag)
    return np.array(out, dtype=np.int8)


class TestCheckNodeUpdate:
    def test_worked_example(self):
        # magnitudes 2.0, 0.75, 3.0 (raw 8, 3, 12), all positive
        out = check_node_update(np.array([8, 3, 12], np.int8))
        assert list(out) == [1, 6, 1]  # +0.25, +1.5, +0.25

    def test_zero_input_clamps_others(self):
        out = check_node_update(np.array([0, 20, -17], np.int8))
        assert out[1] == 0 and out[2] == 0

    def test_sign_products(self):
        out = check_node_update(np.array([8, -8, 8], np.int8))
        assert np.sign(out).tolist() == [-1, 1, -1]

    def test_against_brute_force_1000(self):
        # +/-31 is the channel range, +/-127 the decoder's message range,
        # +/-2 makes tied minimum magnitudes common, and -128..127 is all of
        # int8, whose |-128| is the largest magnitude the kernel must order
        rng = np.random.default_rng(7)
        for low, high in ((-31, 31), (-127, 127), (-2, 2), (-128, 127)):
            for _ in range(1000):
                deg = int(rng.integers(2, 20))
                raws = rng.integers(low, high + 1, deg).astype(np.int8)
                assert np.array_equal(check_node_update(raws), brute_force_check_node(raws))

    @pytest.mark.parametrize("deg", [1, 33])
    def test_degree_outside_kernel_range_rejected(self, deg):
        with pytest.raises(ValueError):
            check_node_update(np.ones(deg, np.int8))

    @pytest.mark.parametrize("llrs", [
        np.array([0.7, 8.9, 12.2]),  # a cast would read the 0.7 as 0
        np.array([40000, 10, -6], np.int32),  # a cast would wrap 40000
        np.array([128, 10, -6], np.int16),
        np.array([-129, 10, -6], np.int64),
        np.array([True, False, True]),
    ], ids=["float", "int32-40000", "int16-128", "int64-minus-129", "bool"])
    def test_non_int8_input_rejected(self, llrs):
        with pytest.raises(ValueError):
            check_node_update(llrs)


class TestLayers:
    @pytest.mark.parametrize("bg, merged", [(BaseGraphId.BG1, 32), (BaseGraphId.BG2, 28)])
    def test_layers_are_ordered_column_disjoint_row_groups(self, bg, merged):
        # Updating rows side by side equals updating them in turn only when
        # they are consecutive and share no column.
        for Zc in (2, 15, 20, 208, 384):
            code = build_code(bg, Zc)
            layers = _layers(bg, Zc)
            assert layers.edges.dtype == layers.shape.dtype == np.int32
            assert not layers.edges.flags.writeable and not layers.shape.flags.writeable
            assert len(layers.shape) == merged
            row = edge = 0
            for degree, lanes in layers.shape:
                assert lanes % Zc == 0
                rows = code.rows[row:row + lanes // Zc]
                cols = [{c for c, _ in r} for r in rows]
                assert sum(map(len, cols)) == len(set().union(*cols)), (Zc, row)
                assert degree == max(map(len, rows))
                n = degree * len(rows)
                table = layers.edges[edge:edge + n].reshape(degree, len(rows), 2)
                for j, r in enumerate(rows):
                    real = [(c * Zc, s) for c, s in r]
                    padding = [(-1, -1)] * (degree - len(r))
                    assert list(map(tuple, table[:, j].tolist())) == real + padding
                row += len(rows)
                edge += n
            assert (row, edge) == (len(code.rows), len(layers.edges))

    @pytest.mark.parametrize("bg, Zc", [(BaseGraphId.BG1, 384), (BaseGraphId.BG2, 20)])
    def test_element_indices_expand_the_edge_table(self, bg, Zc):
        code = build_code(bg, Zc)
        t = np.arange(Zc)
        indices = _element_indices(code)
        assert [idx.shape for idx in indices] == list(map(tuple, _layers(bg, Zc).shape))
        row = 0
        for idx in indices:
            for j in range(idx.shape[1] // Zc):
                block = idx[:, j * Zc:(j + 1) * Zc]
                deg = len(code.rows[row])
                for e, (c, s) in enumerate(code.rows[row]):
                    assert np.array_equal(block[e], c * Zc + (t + s) % Zc)
                assert (block[deg:] == code.N_full).all()  # padding reads the sentinel
                row += 1
        assert row == len(code.rows)


class TestDecoder:
    def test_noiseless_early_termination(self):
        rng = np.random.default_rng(8)
        code = build_code(BaseGraphId.BG2, 16)
        info, cw = random_codeword(code, rng)
        res = ldpc_decode(code, max_conf_llrs(cw.bits))
        assert res.parity_ok
        assert res.iterations_used <= 2
        assert res.termination_reason is TerminationReason.PARITY_SATISFIED
        assert np.array_equal(res.hard_bits, info.bits)

    def test_all_zero_llrs_degenerate(self):
        code = build_code(BaseGraphId.BG2, 4)
        res = ldpc_decode(code, np.zeros(code.N_full, np.int8))
        assert res.termination_reason in (
            TerminationReason.DECISIONS_STABLE, TerminationReason.MAX_ITERATIONS)
        assert not res.parity_ok

    def test_corrects_flipped_sign(self):
        rng = np.random.default_rng(9)
        code = build_code(BaseGraphId.BG2, 32)  # rate 10/52 < 1/2 over N_full
        info, cw = random_codeword(code, rng)
        llr = max_conf_llrs(cw.bits)
        llr[code.Zc * 2 + 5] *= -1
        res = ldpc_decode(code, llr)
        assert res.parity_ok
        assert np.array_equal(res.hard_bits, info.bits)

    def test_never_exceeds_max_iterations(self):
        rng = np.random.default_rng(10)
        code = build_code(BaseGraphId.BG2, 6)
        noise = rng.integers(-5, 6, code.N_full).astype(np.int8)
        res = ldpc_decode(code, noise)
        assert 1 <= res.iterations_used <= 8

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        code = build_code(BaseGraphId.BG2, 8)
        llr = rng.integers(-31, 32, code.N_full).astype(np.int8)
        a = ldpc_decode(code, llr)
        b = ldpc_decode(code, llr)
        assert np.array_equal(a.hard_bits, b.hard_bits)
        assert (a.iterations_used, a.parity_ok, a.termination_reason) == \
               (b.iterations_used, b.parity_ok, b.termination_reason)

    @pytest.mark.parametrize("llrs", [
        np.full(104, 0.7),  # a float would truncate to zero LLRs
        np.full(104, 40000, np.int32),  # would wrap in int16
        np.full(104, 90, np.int16),
        np.full(104, -32, np.int8),
        np.ones(104, bool),
    ], ids=["float", "int32-wraps", "int16-90", "int8-minus-32", "bool"])
    def test_non_softllr_input_rejected(self, llrs):
        with pytest.raises(ValueError):
            ldpc_decode(build_code(BaseGraphId.BG2, 2), llrs)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint8])
    def test_any_integer_dtype_in_range_decodes_as_int8(self, dtype):
        rng = np.random.default_rng(14)
        code = build_code(BaseGraphId.BG2, 8)
        llr = rng.integers(0 if dtype == np.uint8 else -31, 32, code.N_full).astype(np.int8)
        a, b = ldpc_decode(code, llr), ldpc_decode(code, llr.astype(dtype))
        assert np.array_equal(a.hard_bits, b.hard_bits)
        assert (a.iterations_used, a.termination_reason) == (b.iterations_used, b.termination_reason)

    def test_encode_decode_identity_all_sets(self):
        rng = np.random.default_rng(12)
        trials = 0
        for bg in BaseGraphId:
            for zs in LIFTING_SETS:
                for Zc in (zs[0], zs[-1]):
                    code = build_code(bg, Zc)
                    for _ in range(4):
                        info, cw = random_codeword(code, rng)
                        res = ldpc_decode(code, max_conf_llrs(cw.bits))
                        assert res.parity_ok
                        assert np.array_equal(res.hard_bits, info.bits)
                        trials += 1
        assert trials >= 100


def reference_min_sum(q, real, offset_raw=2):
    """Offset min-sum messages of a (degree, lanes) block, from the definition.

    The first minimum edge of a lane gets its second-smallest |q|, every
    other edge the smallest, less the offset; an edge's sign is the parity
    of the other edges' negative signs; padding edges (``real`` 0) get 0.
    """
    mag = np.abs(q)
    min1, min2 = np.sort(mag, axis=0)[:2]
    out = np.repeat(min1[None], len(q), axis=0)
    out[np.argmin(mag, axis=0), np.arange(q.shape[1])] = min2
    negative = q < 0
    flip = (negative.sum(axis=0) - negative) % 2
    return np.where(flip, -1, 1) * np.maximum(out - offset_raw, 0) * real


def reference_decode(code, llr):
    """The in-order layered loop: every layer is updated in every iteration.

    Returns (hard bits, iterations, termination reason). The syndrome is
    taken from the layers' own element indices, not from ``parity_check``.
    """
    indices = _element_indices(code)
    post = np.empty(code.N_full + 1, dtype=np.int16)
    post[:-1] = -np.asarray(llr, dtype=np.int16)
    post[-1] = 127
    msgs = [np.zeros(idx.shape, dtype=np.int16) for idx in indices]
    hard_prev = None
    for it in range(1, MAX_ITERATIONS + 1):
        for i, idx in enumerate(indices):
            q = np.clip(post[idx] - msgs[i], -127, 127)
            msgs[i] = reference_min_sum(q, idx != code.N_full)
            post[idx] = np.clip(q + msgs[i], -127, 127)
        hard = (post <= 0).astype(np.uint8)
        hard[-1] = 0  # the sentinel reads as a zero bit
        if not any(np.bitwise_xor.reduce(hard[idx], axis=0).any() for idx in indices):
            return hard[:code.K], it, TerminationReason.PARITY_SATISFIED
        if hard_prev is not None and np.array_equal(hard, hard_prev):
            return hard[:code.K], it, TerminationReason.DECISIONS_STABLE
        hard_prev = hard
    return hard[:code.K], MAX_ITERATIONS, TerminationReason.MAX_ITERATIONS


def assert_decodes_like_reference(code, llr, label):
    res = ldpc_decode(code, llr)
    bits, iterations, reason = reference_decode(code, llr)
    assert np.array_equal(res.hard_bits, bits), label
    assert (res.iterations_used, res.termination_reason) == (iterations, reason), label


def zero_extension_blocks(code, llr, rows):
    """Zero the own block kb + r of each extension row r, as if never sent."""
    Zc, kb = code.Zc, code.systematic_cols
    for r in rows:
        llr[(kb + r) * Zc:(kb + r + 1) * Zc] = 0


class TestDeadExtensionRows(OnDecoderPath):
    """``ldpc_decode`` on rows whose own block has zero LLRs; the
    in-order layered loop (``reference_decode``) is the oracle."""

    @pytest.mark.parametrize("bg", list(BaseGraphId), ids=lambda bg: bg.name)
    def test_zeroed_extension_blocks_every_lifting_set(self, bg):
        rng = np.random.default_rng(30 + bg.value)
        n_rows = len(build_code(bg, 2).rows)
        ext = np.arange(4, n_rows)
        for zs in LIFTING_SETS:
            for Zc in sorted({zs[0], zs[len(zs) // 2], zs[-1]}):
                code = build_code(bg, Zc)
                cut = int(rng.integers(5, n_rows))
                patterns = {
                    "tail": range(cut, n_rows),  # rv 0 at a high rate: one run
                    "odd": ext[1::2],  # every merged layer mixes a live and a dead row
                    "random": ext[rng.random(ext.size) < 0.5],  # interleaved runs
                    "all": ext,
                }
                for name, rows in patterns.items():
                    _, cw = random_codeword(code, rng)
                    amp, sigma = GOLDEN_DECODE_POINTS[int(rng.integers(1, 6))]
                    noisy = amp * (2.0 * cw.bits - 1.0) + sigma * rng.standard_normal(code.N_full)
                    llr = np.clip(np.rint(noisy), -31, 31).astype(np.int8)
                    if rng.random() < 0.5:
                        llr[:2 * Zc] = 0  # punctured head
                    zero_extension_blocks(code, llr, rows)
                    assert_decodes_like_reference(code, llr, f"{bg.name} Zc={Zc} {name}")

    @pytest.mark.parametrize("bg", list(BaseGraphId), ids=lambda bg: bg.name)
    def test_ties_rails_and_all_zero_input(self, bg):
        rng = np.random.default_rng(40 + bg.value)
        n_rows = len(build_code(bg, 2).rows)
        for Zc in (2, 15, 52, 384):
            code = build_code(bg, Zc)
            assert_decodes_like_reference(code, np.zeros(code.N_full, np.int8),
                                          f"{bg.name} Zc={Zc} all-zero")
            for values in ((-31, 31), (-1, 0, 1), (-31, -2, -1, 0, 1, 2, 31)):
                llr = rng.choice(np.array(values, np.int8), code.N_full)
                rows = np.arange(4, n_rows)[rng.random(n_rows - 4) < 0.5]
                zero_extension_blocks(code, llr, rows)
                assert_decodes_like_reference(code, llr, f"{bg.name} Zc={Zc} {values}")

    @pytest.mark.parametrize("bg", list(BaseGraphId), ids=lambda bg: bg.name)
    def test_own_block_zero_but_one_lane_runs_live(self, bg):
        """A row whose own block arrived only in part is live, whether its
        layer holds it alone or with a dead row: every extension row at small
        Zc, three at Zc=384."""
        rng = np.random.default_rng(50 + bg.value)
        n_rows = len(build_code(bg, 2).rows)
        ext = np.arange(4, n_rows)
        for Zc in (3, 20, 384):
            code = build_code(bg, Zc)
            kb = code.systematic_cols
            for r in ext if Zc < 384 else rng.choice(ext, 3, replace=False):
                _, cw = random_codeword(code, rng)
                noisy = 6 * (2.0 * cw.bits - 1.0) + 8 * rng.standard_normal(code.N_full)
                llr = np.clip(np.rint(noisy), -31, 31).astype(np.int8)
                zero_extension_blocks(code, llr, ext)
                lane = (kb + r) * Zc + int(rng.integers(1, Zc))
                llr[lane] = 31 if cw.bits[lane] else -31
                assert_decodes_like_reference(code, llr, f"{bg.name} Zc={Zc} row {r}")

    @pytest.mark.parametrize("k_prime, rate, e_r", [
        (8448, 2 / 3, 12672),  # the benchmark point, BG1 Zc=384
        (192, 0.75, 256),  # the HARQ study point, BG2 Zc=20
        (1000, 0.5, 2000),  # BG2 Zc=104 with filler bits
    ])
    def test_rate_matched_rv0_to_rv3_and_combined(self, k_prime, rate, e_r):
        rng = np.random.default_rng(k_prime)
        bg = choose_base_graph(k_prime, rate)
        Zc, _, _, filler = select_lifting(bg, k_prime)
        code = build_code(bg, Zc)
        _, cw = random_codeword(code, rng, filler)
        pool = HarqBufferPool()
        for n, rv in enumerate((0, 2, 3, 1)):
            cfg = RateMatchConfig(E_r=e_r, rv=rv, Q_m=2)
            sent = rate_match(cw, cfg)
            noisy = 4.0 * (2.0 * sent - 1.0) + 8.0 * rng.standard_normal(sent.size)
            llrs = np.clip(np.rint(noisy), -31, 31).astype(np.int8)
            alone = pool.acquire(1, True, code, filler)
            rate_unmatch_combine(alone, llrs, cfg)
            assert_decodes_like_reference(code, materialize_decoder_input(alone), f"rv {rv}")
            combined = pool.acquire(0, n == 0, code, filler)
            rate_unmatch_combine(combined, llrs, cfg)
            assert_decodes_like_reference(code, materialize_decoder_input(combined),
                                          f"rounds up to rv {rv}")


class TestDeadExtensionRowsNumpy(TestDeadExtensionRows):
    path = "numpy"


class TestEveryRowIsChecked(OnDecoderPath):
    """A decode stops on parity only when every lifted row holds.

    Every LLR is -1 (a weak bit 0) but one zero, which decides bit 1, in
    the own block of extension row r. Every row has at least two edges, so
    every min-sum message is 0 and the posteriors stay at the input: only
    row r fails, in every iteration, and the decisions are stable at the
    second.
    """

    @pytest.mark.parametrize("bg", list(BaseGraphId), ids=lambda bg: bg.name)
    def test_one_failing_extension_row_stops_the_decode_as_stable(self, bg):
        code = build_code(bg, 3)
        kb = code.systematic_cols
        weak = np.full(code.N_full, -1, np.int8)
        res = ldpc_decode(code, weak)
        assert (res.iterations_used, res.termination_reason) == \
               (1, TerminationReason.PARITY_SATISFIED)
        for r in range(4, len(code.rows)):
            llr = weak.copy()
            llr[(kb + r) * code.Zc + 1] = 0
            res = ldpc_decode(code, llr)
            assert (res.iterations_used, res.termination_reason) == \
                   (2, TerminationReason.DECISIONS_STABLE), f"row {r}"
            assert not res.hard_bits.any()


class TestEveryRowIsCheckedNumpy(TestEveryRowIsChecked):
    path = "numpy"


def golden_decode_lines():
    """One line per seeded noisy decode: bg, Zc, iterations, reason, hard-bit hash.

    Covers the smallest, middle and largest Zc of every lifting set of both
    base graphs; the punctured head gets zero LLRs, as in the chain.
    """
    rng = np.random.default_rng(20261018)
    for bg in BaseGraphId:
        for zs in LIFTING_SETS:
            for Zc in (zs[0], zs[len(zs) // 2], zs[-1]):
                code = build_code(bg, Zc)
                for amp, sigma in GOLDEN_DECODE_POINTS:
                    _, cw = random_codeword(code, rng)
                    noisy = amp * (2.0 * cw.bits - 1.0) + sigma * rng.standard_normal(code.N_full)
                    llr = np.clip(np.rint(noisy), -31, 31).astype(np.int8)
                    llr[: 2 * Zc] = 0
                    res = ldpc_decode(code, llr)
                    digest = hashlib.blake2b(res.hard_bits.tobytes(), digest_size=8).hexdigest()
                    yield (f"{bg.name} {Zc} {res.iterations_used} "
                           f"{res.termination_reason.value} {digest}\n")


class TestGoldenDecodes(OnDecoderPath):
    def test_recorded_decodes_reproduce(self):
        with open(GOLDEN_DECODES_PATH) as fh:
            recorded = fh.readlines()
        reasons = Counter(line.split()[3] for line in recorded)
        assert all(reasons[r.value] >= 5 for r in TerminationReason), reasons
        assert list(golden_decode_lines()) == recorded


class TestGoldenDecodesNumpy(TestGoldenDecodes):
    path = "numpy"


if __name__ == "__main__":
    # Records the decoder's current behaviour; rerun only for an intended change.
    with open(GOLDEN_DECODES_PATH, "w") as fh:
        fh.writelines(golden_decode_lines())
