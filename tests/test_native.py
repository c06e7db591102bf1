"""The compiled kernel: each stage equal to its NumPy body, and its build.

The build tests run a fresh interpreter each, with its own empty cache
directory, because the kernel is built and loaded once per process.
"""

import itertools
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nrphy import _native, ldpc
from nrphy.ldpc import (LIFTING_SETS, BaseGraphId, InfoBlock, TerminationReason, build_code,
                        ldpc_decode, ldpc_encode)
from nrphy.llr import (MODULATION_ORDERS, DemapperParams, EqualizedSymbols, llr_estimate,
                       modulate)
from nrphy.rate_adapt import HarqBufferPool, RateMatchConfig, receive_block
from test_ldpc import (OnDecoderPath, max_conf_llrs, random_codeword, reference_encode,
                       zero_extension_blocks)
from test_llr import all_labels

SRC = Path(__file__).resolve().parent.parent / "src"


def equality_inputs():
    """(label, code, LLRs) of 576 decodes: 12 per code, 48 codes.

    Both base graphs at the smallest, middle and largest Zc of every
    lifting set; a codeword at amplitude 8 under noise sigma 0, 4, 8 and 14,
    each with and without a zeroed extension tail; then all-zero input,
    +/-31 rails, values in +/-2 (ties) and uniform values.
    """
    rng = np.random.default_rng(20261101)
    for bg in BaseGraphId:
        n_rows = len(build_code(bg, 2).rows)
        for zs in LIFTING_SETS:
            for Zc in (zs[0], zs[len(zs) // 2], zs[-1]):
                code = build_code(bg, Zc)
                for sigma in (0, 4, 8, 14):
                    for tail in (False, True):
                        _, cw = random_codeword(code, rng)
                        noise = sigma * rng.standard_normal(code.N_full)
                        llr = np.clip(np.rint(8 * (2.0 * cw.bits - 1.0) + noise), -31, 31)
                        llr = llr.astype(np.int8)
                        if tail:
                            cut = int(rng.integers(5, n_rows))
                            zero_extension_blocks(code, llr, range(cut, n_rows))
                        yield f"{bg.name} Zc={Zc} sigma={sigma} tail={tail}", code, llr
                yield f"{bg.name} Zc={Zc} all-zero", code, np.zeros(code.N_full, np.int8)
                for name, values in (("rails", (-31, 31)), ("ties", (-2, -1, 0, 1, 2)),
                                     ("uniform", np.arange(-31, 32))):
                    llr = rng.choice(np.array(values, np.int8), code.N_full)
                    yield f"{bg.name} Zc={Zc} {name}", code, llr


class TestNativeEqualsNumpy(OnDecoderPath):
    def test_576_decodes_bit_exact(self, monkeypatch):
        kernel = _native.library
        reasons = Counter()
        for label, code, llr in equality_inputs():
            monkeypatch.setattr(_native, "library", kernel)
            native = ldpc_decode(code, llr)
            monkeypatch.setattr(_native, "library", lambda: None)
            numpy = ldpc_decode(code, llr)
            assert np.array_equal(native.hard_bits, numpy.hard_bits), label
            assert (native.iterations_used, native.termination_reason) == \
                   (numpy.iterations_used, numpy.termination_reason), label
            reasons[native.termination_reason] += 1
        assert sum(reasons.values()) == 576
        assert all(reasons[r] >= 20 for r in TerminationReason), reasons

    def test_every_lifting_size_bit_exact(self, monkeypatch):
        # The kernel copies each edge as a rotated block of Zc lanes, so every
        # Zc and shift splits its copies differently.
        kernel = _native.library
        rng = np.random.default_rng(20261019)
        for bg in BaseGraphId:
            n_rows = len(build_code(bg, 2).rows)
            for Zc in sorted(z for zs in LIFTING_SETS for z in zs):
                code = build_code(bg, Zc)
                _, cw = random_codeword(code, rng)
                noise = 8 * rng.standard_normal(code.N_full)
                llr = np.clip(np.rint(8 * (2.0 * cw.bits - 1.0) + noise), -31, 31)
                llr = llr.astype(np.int8)
                zero_extension_blocks(code, llr, range(int(rng.integers(5, n_rows)), n_rows))
                monkeypatch.setattr(_native, "library", kernel)
                native = ldpc_decode(code, llr)
                monkeypatch.setattr(_native, "library", lambda: None)
                numpy = ldpc_decode(code, llr)
                label = f"{bg.name} Zc={Zc}"
                assert np.array_equal(native.hard_bits, numpy.hard_bits), label
                assert (native.iterations_used, native.termination_reason) == \
                       (numpy.iterations_used, numpy.termination_reason), label

    @pytest.mark.parametrize("bg, Zc", [(BaseGraphId.BG1, 384), (BaseGraphId.BG2, 20)])
    def test_kernel_decodes_without_element_indices(self, monkeypatch, bg, Zc):
        # the kernel reads only the edge table; the NumPy path expands it
        def expand(code):
            raise AssertionError("the kernel path expanded element indices")

        monkeypatch.setattr(ldpc, "_element_indices", expand)
        code = build_code(bg, Zc)
        info, cw = random_codeword(code, np.random.default_rng(Zc))
        res = ldpc_decode(code, max_conf_llrs(cw.bits))
        assert res.parity_ok and np.array_equal(res.hard_bits, info.bits)

    def test_consecutive_decodes_return_independent_hard_bits(self):
        # a later decode must not write into an earlier result's hard bits
        code = build_code(BaseGraphId.BG2, 20)
        rng = np.random.default_rng(7)
        first_llr, second_llr = (rng.integers(-31, 32, code.N_full).astype(np.int8)
                                 for _ in range(2))
        first = ldpc_decode(code, first_llr)
        kept = first.hard_bits.copy()
        second = ldpc_decode(code, second_llr)
        assert not np.array_equal(second.hard_bits, kept)
        assert np.array_equal(first.hard_bits, kept)


def on_both_paths(monkeypatch, stage):
    """``stage()`` run on the kernel, then on the NumPy body."""
    kernel = _native.library
    native = stage()
    monkeypatch.setattr(_native, "library", lambda: None)
    numpy = stage()
    monkeypatch.setattr(_native, "library", kernel)
    return native, numpy


def noisy_llrs(code, rng, sigma=10.0):
    """A random codeword at amplitude 8 under noise ``sigma``, as SoftLlrs."""
    _, cw = random_codeword(code, rng)
    noisy = 8 * (2.0 * cw.bits - 1.0) + sigma * rng.standard_normal(code.N_full)
    return np.clip(np.rint(noisy), -31, 31).astype(np.int8)


def assert_same_decode(got, expected, label=""):
    assert np.array_equal(got.hard_bits, expected.hard_bits), label
    assert (got.iterations_used, got.termination_reason) == \
           (expected.iterations_used, expected.termination_reason), label


class TestDecodeBoundary(OnDecoderPath):
    """What ``ldpc_decode`` hands the kernel: the checked LLRs, contiguous, and nothing else."""

    @pytest.mark.parametrize("bg, Zc", [(BaseGraphId.BG1, 384), (BaseGraphId.BG2, 20)])
    def test_strided_view_decodes_like_its_contiguous_copy(self, monkeypatch, bg, Zc):
        # as_softllr passes an int8 view through; between its values sit their negations
        code = build_code(bg, Zc)
        llr = noisy_llrs(code, np.random.default_rng(Zc))
        llr2 = np.repeat(llr, 2)
        llr2[1::2] *= -1
        view = llr2[::2]
        assert not view.flags.c_contiguous
        strided = on_both_paths(monkeypatch, lambda: ldpc_decode(code, view))
        copied = on_both_paths(monkeypatch, lambda: ldpc_decode(code, llr))
        for path, got, expected in zip(("native", "numpy"), strided, copied):
            assert_same_decode(got, expected, path)
        assert_same_decode(*copied)

    def test_threads_decoding_at_once_get_the_sequential_results(self):
        # ctypes releases the GIL for each call, so the threads run the kernel together
        code = build_code(BaseGraphId.BG1, 384)
        rng = np.random.default_rng(23)
        words = [noisy_llrs(code, rng) for _ in range(4)]  # more threads than cores
        expected = [ldpc_decode(code, llr) for llr in words]
        assert len({r.hard_bits.tobytes() for r in expected}) == len(words)
        results = [[] for _ in words]
        start = threading.Barrier(len(words))

        def decode_often(i):
            start.wait(timeout=60)
            results[i] += [ldpc_decode(code, words[i]) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode_often, args=(i,))
                       for i in range(len(words))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, (got, want) in enumerate(zip(results, expected)):
            assert len(got) == 10, i
            for result in got:
                assert_same_decode(result, want, f"word {i}")

    def test_failed_allocation_raises_memory_error(self, monkeypatch):
        # the kernel's -1 must not index the reasons, whose [-1] reads MAX_ITERATIONS
        class NoMemory:
            def decode(self, *args):
                return -1

        monkeypatch.setattr(_native, "library", NoMemory)
        code = build_code(BaseGraphId.BG2, 20)
        with pytest.raises(MemoryError):
            ldpc_decode(code, np.zeros(code.N_full, np.int8))


def demap_inputs(q_m, rng):
    """Noisy constellation points, the int16 rails and uniform values, as strided views."""
    clean = modulate(rng.integers(0, 2, 600 * q_m, dtype=np.uint8), q_m)
    noisy = np.stack([clean.re, clean.im]) + rng.integers(-3000, 3001, (2, 600))
    rails = rng.choice(np.array([-32768, -32767, -1, 0, 1, 32766, 32767]), (2, 200))
    uniform = rng.integers(-32768, 32768, (2, 800))
    comps = np.concatenate([np.clip(noisy, -32768, 32767), rails, uniform], axis=1)
    # columns of an (n, 3) array: views with a stride of three int16
    layout = np.zeros((comps.shape[1], 3), np.int16)
    layout[:, :2] = comps.T
    return EqualizedSymbols(layout[:, 0], layout[:, 1])


class TestStagesEqualNumpy(OnDecoderPath):
    def test_encode_every_lifting_size_bit_exact(self, monkeypatch):
        # each Zc and shift splits the kernel's rotated XORs differently; the
        # fillers are the zero tail of the information bits, at most K - 2Zc
        rng = np.random.default_rng(20261019)
        for bg in BaseGraphId:
            for Zc in sorted(z for zs in LIFTING_SETS for z in zs):
                code = build_code(bg, Zc)
                for fillers in (0, int(rng.integers(1, code.K - 2 * Zc + 1))):
                    bits = np.zeros(code.K, np.uint8)
                    bits[:code.K - fillers] = rng.integers(0, 2, code.K - fillers)
                    info = InfoBlock(bits, fillers)
                    native, numpy = on_both_paths(monkeypatch, lambda: ldpc_encode(code, info))
                    label = f"{bg.name} Zc={Zc} fillers={fillers}"
                    assert native.bits.dtype == numpy.bits.dtype == np.uint8, label
                    assert np.array_equal(native.bits, numpy.bits), label
                    assert np.array_equal(native.bits, reference_encode(code, bits)), label

    def test_consecutive_encodes_return_independent_words(self):
        code = build_code(BaseGraphId.BG2, 20)
        rng = np.random.default_rng(8)
        first = ldpc_encode(code, InfoBlock(rng.integers(0, 2, code.K).astype(np.uint8), 0))
        kept = first.bits.copy()
        ldpc_encode(code, InfoBlock(rng.integers(0, 2, code.K).astype(np.uint8), 0))
        assert np.array_equal(first.bits, kept)

    @pytest.mark.parametrize("q_m", MODULATION_ORDERS)
    def test_demap_bit_exact(self, monkeypatch, q_m):
        rng = np.random.default_rng(300 + q_m)
        # sigma2 0 and 1e-4 saturate both multiplies. Then the largest
        # products, and zero offsets, under which a later stage at the -32768
        # rail saturates to 32767, which A=1 and this inv_noise round apart.
        for params in [*(DemapperParams.for_noise(q_m, sigma2) for sigma2 in (0, 1e-4, 0.1, 4)),
                       DemapperParams(q_m, 32767, 0, 0, 0, 0xFFFF),
                       DemapperParams(q_m, 1, 0, 0, 0, 0xC000)]:
            sym = demap_inputs(q_m, rng)
            native, numpy = on_both_paths(monkeypatch, lambda: llr_estimate(sym, params))
            assert native.dtype == numpy.dtype == np.int8
            assert np.array_equal(native, numpy), params
            if params.inv_noise == 0xFFFF:
                assert {-31, 0, 31} <= set(native.tolist())

    @pytest.mark.parametrize("q_m", MODULATION_ORDERS)
    def test_modulate_bit_exact(self, monkeypatch, q_m):
        rng = np.random.default_rng(400 + q_m)
        bits = rng.integers(0, 2, 600 * q_m, dtype=np.uint8)
        # a view with a stride of two bytes, whose neighbours are its complements
        spread = np.stack([bits, 1 - bits], axis=1).reshape(-1)
        view = spread[::2]
        assert not view.flags.c_contiguous
        read_only = bits.copy()
        read_only.flags.writeable = False
        for label, stream in (("random", bits), ("strided", view), ("read-only", read_only),
                              ("zeros", np.zeros(600 * q_m, np.uint8)),
                              ("every label", all_labels(q_m).reshape(-1)),
                              ("no symbols", np.zeros(0, np.uint8))):
            native, numpy = on_both_paths(monkeypatch, lambda: modulate(stream, q_m))
            assert native.re.dtype == numpy.re.dtype == np.int16, label
            assert np.array_equal(native.re, numpy.re), label
            assert np.array_equal(native.im, numpy.im), label
            if label == "strided":
                assert np.array_equal(native.values(), modulate(bits, q_m).values())
            if label == "every label":
                assert len(set(native.values())) == 2 ** q_m

    def test_modulate_holds_its_contiguous_copy_through_the_call(self, monkeypatch):
        # the kernel reads a strided view's copy by address, so the copy must
        # outlive the call; freed memory often still holds the right bits
        kernel, contiguous, copies = _native.library(), np.ascontiguousarray, []

        def tracked(array, *args, **kwargs):
            copy = contiguous(array, *args, **kwargs)
            copies.append(weakref.ref(copy))
            return copy

        class Held:
            def modulate(self, *args):
                assert copies[-1]() is not None  # the bits' copy, made just before
                kernel.modulate(*args)

        monkeypatch.setattr(np, "ascontiguousarray", tracked)
        monkeypatch.setattr(_native, "library", Held)
        bits = np.arange(32, dtype=np.uint8)[::2] & 1
        view = np.stack([bits, bits], axis=1).reshape(-1)[::2]
        assert np.array_equal(modulate(view, 2).values(), modulate(bits, 2).values())

    def test_demap_of_no_symbols(self, monkeypatch):
        sym = EqualizedSymbols(np.zeros(0, np.int16), np.zeros(0, np.int16))
        native, numpy = on_both_paths(
            monkeypatch, lambda: llr_estimate(sym, DemapperParams.for_noise(4, 1.0)))
        assert native.shape == numpy.shape == (0,)

    @pytest.mark.parametrize("bg,Zc,fillers", [(BaseGraphId.BG1, 384, 0),
                                               (BaseGraphId.BG1, 13, 40),
                                               (BaseGraphId.BG2, 20, 0),
                                               (BaseGraphId.BG2, 208, 96)])
    def test_combine_bit_exact(self, monkeypatch, bg, Zc, fillers):
        # rv 0-3 into one buffer held across the full int8 range, at E_r
        # below a cycle, and above N_cb, where positions wrap and repeat
        code = build_code(bg, Zc)
        rng = np.random.default_rng(Zc)
        held = rng.integers(-128, 128, code.N_cb).astype(np.int8)
        for e_r in (2 * (code.N_cb // 5), 2 * code.N_cb + 6):
            buffers = []
            for _ in range(2):
                buf = HarqBufferPool().acquire(0, True, code, fillers)
                buf.llrs[:] = held
                buffers.append(buf)
            for rv in (0, 1, 2, 3):
                llrs = rng.integers(-31, 32, e_r).astype(np.int8)
                cfg = RateMatchConfig(E_r=e_r, rv=rv, Q_m=2)
                stages = iter(buffers)
                native, numpy = on_both_paths(
                    monkeypatch, lambda: receive_block(next(stages), llrs, cfg))
                assert np.array_equal(native, numpy), (e_r, rv)
                assert np.array_equal(buffers[0].llrs, buffers[1].llrs), (e_r, rv)
            assert {-31, 31} <= set(buffers[0].llrs.tolist())

    def test_receive_block_bit_exact(self, monkeypatch):
        # both base graphs at their smallest, a middle and their largest Zc;
        # every order and rv, no and the most fillers, E_r below N_cb and
        # above it; fresh buffers and buffers held at +/-31; the LLRs as a
        # view with a stride of two, whose neighbours are their negations
        rng = np.random.default_rng(2026)
        cases = 0
        for bg in BaseGraphId:
            for Zc in (2, 64, 384):
                code = build_code(bg, Zc)
                for fillers, q_m, rv, e_r, held in itertools.product(
                        (0, code.K - 2 * Zc), MODULATION_ORDERS, range(4),
                        (code.N_cb // 3, 2 * code.N_cb + 4), (False, True)):
                    e_r -= e_r % q_m
                    llrs = rng.integers(-31, 32, e_r).astype(np.int8)
                    spread = np.stack([llrs, -llrs], axis=1).reshape(-1)
                    rails = rng.choice(np.array([-31, 31], np.int8), code.N_cb)
                    buffers = [HarqBufferPool().acquire(0, True, code, fillers)
                               for _ in range(2)]
                    for buf in buffers:
                        buf.llrs[:] = rails if held else 0
                    cfg = RateMatchConfig(E_r=e_r, rv=rv, Q_m=q_m)
                    stages = iter(buffers)
                    native, numpy = on_both_paths(
                        monkeypatch, lambda: receive_block(next(stages), spread[::2], cfg))
                    label = f"{bg.name} Zc={Zc} F={fillers} Q_m={q_m} rv={rv} E_r={e_r} {held=}"
                    assert native.dtype == numpy.dtype == np.int8, label
                    assert np.array_equal(native, numpy), label
                    assert np.array_equal(buffers[0].llrs, buffers[1].llrs), label
                    cases += 1
        assert cases == 2 * 3 * 2 * 4 * 4 * 2 * 2


# Defines run_stages(): every kernel stage on fixed inputs, the decode and the encode
# twice, the modulation at every order.
STAGES = """
import numpy as np
from nrphy.ldpc import BaseGraphId, InfoBlock, build_code, ldpc_decode, ldpc_encode
from nrphy.llr import DemapperParams, EqualizedSymbols, llr_estimate, modulate
from nrphy.rate_adapt import HarqBufferPool, RateMatchConfig, receive_block
code = build_code(BaseGraphId.BG2, 20)
rng = np.random.default_rng(5)
llr = rng.integers(-31, 32, code.N_full).astype(np.int8)
symbols = EqualizedSymbols(*rng.integers(-32768, 32768, (2, 300)).astype(np.int16))
tx_bits = rng.integers(0, 2, 300 * 8, dtype=np.uint8)
received = rng.integers(-31, 32, 2 * code.N_cb).astype(np.int8)
infos = [np.zeros(code.K, np.uint8) for _ in range(2)]
infos[0][:code.K - 24] = rng.integers(0, 2, code.K - 24)
infos[1][:] = rng.integers(0, 2, code.K)

def run_stages():
    results = [ldpc_decode(code, llr) for _ in range(2)]
    buf = HarqBufferPool().acquire(0, True, code, 24)
    decoder_input = receive_block(buf, received, RateMatchConfig(E_r=received.size, rv=2, Q_m=4))
    return {
        "results": [[r.hard_bits.tolist(), r.iterations_used, r.termination_reason.value]
                    for r in results],
        "modulated": [[s.re.tolist(), s.im.tolist()]
                      for s in (modulate(tx_bits, q_m) for q_m in (2, 4, 6, 8))],
        "demapped": llr_estimate(symbols, DemapperParams.for_noise(8, 0.01)).tolist(),
        "combined": buf.llrs.tolist(),
        "decoder_input": decoder_input.tolist(),
        "encoded": [ldpc_encode(code, InfoBlock(bits, fillers)).bits.tolist()
                    for bits, fillers in zip(infos, (24, 0))],
    }
"""

# Runs the stages and prints their outputs and every warning.
DECODE_SCRIPT = STAGES + """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    outputs = run_stages()
print(json.dumps({"warnings": [str(w.message) for w in caught], **outputs}))
"""


def decode_env(cache_dir, src=SRC, **overrides):
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env.update(PYTHONPATH=str(src), **{_native.CACHE_DIR_ENV: str(cache_dir)}, **overrides)
    return env


def run_decode(env, preamble=""):
    done = subprocess.run([sys.executable, "-c", preamble + DECODE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def decoded(stdout):
    out = json.loads(stdout)
    return out.pop("warnings"), out


def assert_native(env, preamble=""):
    """Run the stages script in ``env`` and check that it ran the kernel, without warning."""
    code, stdout, stderr = run_decode(env, preamble)
    assert code == 0, stderr
    assert decoded(stdout)[0] == []


def assert_numpy_fallback(env, reference_results, preamble=""):
    """Run the stages script in ``env``: one warning, then the kernel's outputs."""
    code, stdout, stderr = run_decode(env, preamble)
    assert code == 0, stderr
    warned, results = decoded(stdout)
    assert len(warned) == 1 and "encoding, modulating" in warned[0] \
        and "decoding with NumPy" in warned[0], warned
    assert results == reference_results
    return warned[0]


@pytest.fixture
def reference_results():
    """The stages script's outputs on the compiled kernel, in this process."""
    namespace = {}
    exec(STAGES, namespace)
    return namespace["run_stages"]()


# Makes the home directory unknowable: no HOME, and no passwd entry for the uid.
NO_HOME = """
import pwd
def no_entry(uid):
    raise KeyError(uid)
pwd.getpwuid = no_entry
"""


TESTS = Path(__file__).resolve().parent
NO_AVX512 = "-mno-avx512f"
X86_64 = pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                            reason="-mno-avx512f is an x86-64 flag")

# Decodes every sixth of equality_inputs() on the kernel and in NumPy, then
# receives a code block at every order and rv on both; prints whether the
# kernel built, the counts, and the labels of the decodes and receives that differ.
WITHOUT_AVX512 = """
import itertools, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from nrphy import _native
from nrphy.ldpc import BaseGraphId, build_code, ldpc_decode
from nrphy.rate_adapt import HarqBufferPool, RateMatchConfig, receive_block
from test_native import equality_inputs
kernel = _native.library
built, differ, decodes, receives = kernel() is not None, [], 0, 0
for label, code, llr in itertools.islice(equality_inputs(), 0, None, 6):
    _native.library = kernel
    native = ldpc_decode(code, llr)
    _native.library = lambda: None
    numpy = ldpc_decode(code, llr)
    decodes += 1
    if (native.hard_bits.tobytes(), native.iterations_used, native.termination_reason) != \\
       (numpy.hard_bits.tobytes(), numpy.iterations_used, numpy.termination_reason):
        differ.append(label)
code = build_code(BaseGraphId.BG1, 384)
rng = np.random.default_rng(26)
for q_m, rv in itertools.product((2, 4, 6, 8), range(4)):
    llrs = rng.integers(-31, 32, 2 * code.N_cb // 24 * 24).astype(np.int8)
    cfg = RateMatchConfig(E_r=llrs.size, rv=rv, Q_m=q_m)
    held = rng.choice(np.array([-31, 31], np.int8), code.N_cb) if rv else 0
    outputs = []
    for library in (kernel, lambda: None):
        _native.library = library
        buf = HarqBufferPool().acquire(0, True, code, 100)
        buf.llrs[:] = held
        outputs.append((receive_block(buf, llrs, cfg).tobytes(), buf.llrs.tobytes()))
    receives += 1
    if outputs[0] != outputs[1]:
        differ.append(f"receive Q_m={q_m} rv={rv}")
print(json.dumps({"built": built, "decodes": decodes, "receives": receives, "differ": differ}))
"""


def assert_compiles_without_warnings(tmp_path, *flags):
    # the build captures the compiler's output, so a warning would go unseen there
    cc = shlex.split(os.environ.get("CC") or "cc")
    done = subprocess.run([*cc, *flags, *_native.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "_layer.so"), str(_native.SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestBuild(OnDecoderPath):
    @pytest.mark.parametrize("no_compiler", ["CC", "PATH"])
    def test_no_compiler_warns_once_and_decodes_the_same(self, tmp_path, no_compiler,
                                                         reference_results):
        cache = tmp_path / "cache"
        if no_compiler == "CC":
            env = decode_env(cache, CC=str(tmp_path / "no-such-cc"))
        else:
            (tmp_path / "empty").mkdir()
            env = decode_env(cache, PATH=str(tmp_path / "empty"))
        assert_numpy_fallback(env, reference_results)
        assert not cache.exists() or not any(cache.iterdir())

    def test_failing_build_warns_once_and_leaves_no_file(self, tmp_path, reference_results):
        cc = tmp_path / "broken-cc"
        cc.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo broken-cc 1.0; exit 0; }\n'
                      'echo "broken-cc: cannot compile" >&2; exit 1\n')
        cc.chmod(0o755)
        cache = tmp_path / "cache"
        warned = assert_numpy_fallback(decode_env(cache, CC=str(cc)), reference_results)
        assert "broken-cc: cannot compile" in warned
        assert not any(cache.iterdir())  # the temporary output is removed

    def test_unknown_home_warns_once_and_decodes_the_same(self, tmp_path, reference_results):
        env = decode_env(tmp_path)
        del env[_native.CACHE_DIR_ENV], env["HOME"]
        warned = assert_numpy_fallback(env, reference_results, preamble=NO_HOME)
        assert "home directory" in warned

    def test_two_processes_share_one_cold_cache(self, tmp_path, reference_results):
        cache = tmp_path / "cache"
        procs = [subprocess.Popen([sys.executable, "-c", DECODE_SCRIPT], env=decode_env(cache),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert decoded(stdout) == ([], reference_results)
        assert [p.name for p in cache.iterdir()] == [next(cache.glob("_layer-*.so")).name]

    def test_edited_source_gets_a_new_cache_file(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(SRC / "nrphy", src / "nrphy",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache = tmp_path / "cache"
        env = decode_env(cache, src=src)
        assert_native(env)
        first = {p.name for p in cache.iterdir()}
        with open(src / "nrphy" / "_layer.c", "a") as fh:
            fh.write("/* edited */\n")
        assert_native(env)
        files = {p.name for p in cache.iterdir()}
        assert len(first) == 1 and len(files) == 2 and first < files

    def test_kernel_compiles_without_warnings(self, tmp_path):
        assert_compiles_without_warnings(tmp_path)

    @X86_64
    def test_kernel_compiles_without_warnings_without_avx512(self, tmp_path):
        assert_compiles_without_warnings(tmp_path, NO_AVX512)

    @X86_64
    def test_kernel_without_avx512_decodes_bit_exact(self, tmp_path):
        # CHUNK is one 512-bit register of int16; without AVX-512 it spans two
        cc = os.environ.get("CC") or "cc"
        env = decode_env(tmp_path, CC=f"{cc} {NO_AVX512}")
        done = subprocess.run([sys.executable, "-c", WITHOUT_AVX512, str(TESTS)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        assert out["built"] and out["decodes"] == 96 and out["receives"] == 16
        assert out["differ"] == []
        assert len(list(tmp_path.glob("_layer-*.so"))) == 1

    def test_other_compiler_flags_get_their_own_cache_file(self, tmp_path):
        cc = os.environ.get("CC") or "cc"
        assert_native(decode_env(tmp_path, CC=cc))
        assert_native(decode_env(tmp_path, CC=f"{cc} -DNRPHY_UNUSED_MACRO"))
        assert len(list(tmp_path.glob("_layer-*.so"))) == 2

    def test_default_cache_is_under_home(self, tmp_path):
        env = decode_env(tmp_path, HOME=str(tmp_path))
        del env[_native.CACHE_DIR_ENV]
        assert_native(env)
        assert len(list((tmp_path / ".cache" / "nrphy").glob("_layer-*.so"))) == 1
