"""Circular-buffer rate matching and the HARQ soft-buffer pool.

The encode path reads E_r bits circularly from the N_cb-bit buffer
(codeword bits 2Zc..N_full-1), starting at the redundancy version's
offset and skipping filler positions, which are never transmitted. The
decode path scatters received LLRs back to their buffer positions with
saturating addition, so retransmissions with different redundancy
versions combine into a lower-rate observation. The pool holds at most
sixteen buffers, one per bound process, each sized for its code.
Encoder and combiner read the same positions: one pass over the buffer is
at most three contiguous runs, derived from (N_cb, k0, fillers), and a
transmission reads them in turn until it has E_r values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _native
from .errors import PoolExhaustedError, UnknownProcessError
from .ldpc import LLR_RAW_MAX, BaseGraphId, Codeword, LiftedLdpcCode, as_int, as_softllr
from .llr import as_q_m

POOL_SLOTS = 16

FILLER_LLR_RAW = -LLR_RAW_MAX  # known-zero bits get the minimum LLR

# Circular-buffer start position numerators per redundancy version; the
# denominator is the base graph's buffer width in columns.
_K0_NUM = {BaseGraphId.BG1: (0, 17, 33, 56), BaseGraphId.BG2: (0, 13, 25, 43)}
_K0_DEN = {BaseGraphId.BG1: 66, BaseGraphId.BG2: 50}


@dataclass(frozen=True)
class RateMatchConfig:
    E_r: int
    rv: int
    Q_m: int

    def __post_init__(self):
        as_int(self.E_r, "E_r", 1)
        as_int(self.rv, "rv", 0, 4)
        as_q_m(self.Q_m)
        if self.E_r % self.Q_m:
            raise ValueError("E_r must be a multiple of Q_m")


def k0_start(code: LiftedLdpcCode, rv: int) -> int:
    """Circular-buffer read start for a redundancy version."""
    num = _K0_NUM[code.bg][as_int(rv, "rv", 0, 4)]
    return (num * code.N_cb // (_K0_DEN[code.bg] * code.Zc)) * code.Zc


def buffer_filler_range(code: LiftedLdpcCode, filler_count: int) -> range:
    """Filler positions in buffer coordinates (systematic tail, minus 2Zc).

    ValueError unless 0 <= filler_count <= K - 2Zc, the range ``select_lifting``
    gives: more fillers would reach into the punctured head.
    """
    end = code.K - 2 * code.Zc
    if not 0 <= filler_count <= end:
        raise ValueError(f"filler count {filler_count} is outside [0, K - 2Zc = {end}]")
    return range(end - filler_count, end)


def _fillers(code: LiftedLdpcCode, filler_range: range) -> range:
    """``buffer_filler_range(code, n)`` for the n positions ``filler_range`` holds.

    ValueError unless ``filler_range`` is that range or empty: a code's
    fillers end its systematic columns, and any other range would let the
    runs or the kernel's writes leave the buffer.
    """
    if isinstance(filler_range, range):
        fillers = buffer_filler_range(code, len(filler_range))
        if not filler_range or filler_range == fillers:
            return fillers
    raise ValueError(f"filler range {filler_range!r} is neither empty nor the last "
                     f"positions of the K - 2Zc = {code.K - 2 * code.Zc} systematic ones")


def _cycle_runs(n_cb: int, k0: int, filler_range: range) -> list[tuple[int, int]]:
    """One pass over the buffer from k0, fillers skipped, as (start, stop) runs in order.

    Each half of the pass, [k0, N_cb) and then [0, k0), less the filler
    range, which splits at most one of them: at most three runs.
    """
    fs, fe = (filler_range.start, filler_range.stop) if filler_range else (n_cb, n_cb)
    return [(a, b) for lo, hi in ((k0, n_cb), (0, k0))
            for a, b in ((lo, min(hi, fs)), (max(lo, fe), hi)) if a < b]


@lru_cache(maxsize=None)
def _selection(n_cb: int, k0: int, filler_range: range,
               count: int) -> tuple[tuple[int, int], ...]:
    """The buffer runs that ``count`` values read or write, in order.

    The pass's runs repeat until ``count`` values are placed; the last is
    cut short. A few integers per transmission layout, built once.
    """
    runs, pieces = _cycle_runs(n_cb, k0, filler_range), []
    while count:
        for a, b in runs:
            n = min(b - a, count)
            pieces.append((a, a + n))
            count -= n
            if not count:
                break
    return tuple(pieces)


def rate_match(codeword: Codeword, filler_range: range, cfg: RateMatchConfig) -> np.ndarray:
    """Select E_r bits from the circular buffer for one transmission.

    ValueError as :func:`_fillers` says for ``filler_range``.
    """
    code = codeword.code
    fillers = _fillers(code, filler_range)
    buf = np.asarray(codeword.bits, dtype=np.uint8)[2 * code.Zc:]
    pieces = _selection(code.N_cb, k0_start(code, cfg.rv), fillers, cfg.E_r)
    return np.concatenate([buf[a:b] for a, b in pieces])


def interleave(e: np.ndarray, q_m: int) -> np.ndarray:
    """Spread bits so each group of Q_m output bits samples the whole block.

    Slice i of the input, of E_r / Q_m bits, goes to every Q_m-th output bit
    from bit i, one strided copy per slice: a transposed copy of uint8 is
    several times slower.
    """
    e = np.asarray(e)
    q_m = as_q_m(q_m)
    if len(e) % q_m:
        raise ValueError("Q_m must divide E_r")
    out = np.empty(len(e), e.dtype)
    k = len(e) // q_m
    for i in range(q_m):
        out[i::q_m] = e[i * k:(i + 1) * k]
    return out


def deinterleave(llrs: np.ndarray, q_m: int) -> np.ndarray:
    """Exact inverse permutation of :func:`interleave`."""
    llrs = np.asarray(llrs)
    q_m = as_q_m(q_m)
    if len(llrs) % q_m:
        raise ValueError("Q_m must divide E_r")
    return llrs.reshape(-1, q_m).T.reshape(-1)


@dataclass
class SoftBuffer:
    """One process's N_cb soft values, the code they belong to and its fillers."""

    code: LiftedLdpcCode
    llrs: np.ndarray
    filler_range: range


class HarqBufferPool:
    """At most ``num_slots`` soft buffers, keyed by HARQ process id.

    All methods must be called from a single owner; distinct pools are
    independent. A new packet gets a zeroed buffer; a retransmission gets
    back exactly what its earlier rounds combined into.
    """

    def __init__(self, num_slots: int = POOL_SLOTS):
        self.num_slots = as_int(num_slots, "num_slots", 1, POOL_SLOTS + 1)
        self.bindings: dict[int, SoftBuffer] = {}

    def acquire(self, process_id: int, is_new_packet: bool,
                code: LiftedLdpcCode = None, filler_count: int = 0) -> SoftBuffer:
        """Bind (new packet) or look up (retransmission) a soft buffer.

        A full pool refuses a new packet on any unbound id; otherwise an id
        that is not an integer in [0, POOL_SLOTS) raises ValueError, as does
        a retransmission given a code where it or the filler count differs
        from the bound buffer's.
        """
        if is_new_packet:
            if code is None:
                raise ValueError("new packet requires the code dimensions")
            if process_id not in self.bindings and len(self.bindings) == self.num_slots:
                raise PoolExhaustedError(f"all {self.num_slots} soft buffers are bound")
            process_id = as_int(process_id, "process id", 0, POOL_SLOTS)
            buf = SoftBuffer(code, np.zeros(code.N_cb, dtype=np.int8),
                             buffer_filler_range(code, filler_count))
            self.bindings[process_id] = buf
            return buf
        process_id = as_int(process_id, "process id", 0, POOL_SLOTS)
        if process_id not in self.bindings:
            raise UnknownProcessError(f"no buffer bound to process {process_id}")
        buf = self.bindings[process_id]
        if code is not None:
            if (buf.code.bg, buf.code.Zc) != (code.bg, code.Zc):
                raise ValueError("bound buffer dimensions do not match the code")
            if buf.filler_range != buffer_filler_range(code, filler_count):
                raise ValueError(f"bound buffer has {len(buf.filler_range)} fillers, "
                                 f"not {filler_count}")
        return buf

    def release(self, process_id: int) -> None:
        if self.bindings.pop(process_id, None) is None:
            raise UnknownProcessError(f"no buffer bound to process {process_id}")


def _checked(buffer: SoftBuffer, llrs: np.ndarray,
             cfg: RateMatchConfig) -> tuple[np.ndarray, range]:
    """``llrs`` as SoftLlrs and the buffer's fillers, once both are checked.

    ValueError unless ``llrs`` are E_r SoftLlrs, the buffer's ``llrs`` is a
    writable, C-contiguous int8 array of N_cb values, which a combine writes
    in place, and its ``filler_range`` passes :func:`_fillers`.
    """
    fillers = _fillers(buffer.code, buffer.filler_range)
    raw = as_softllr(llrs)
    if raw.shape != (cfg.E_r,):
        raise ValueError("LLR count must equal E_r")
    buf, n_cb = buffer.llrs, buffer.code.N_cb
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.int8 and buf.shape == (n_cb,)
            and buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError(f"soft buffer must be a writable, contiguous int8 array of "
                         f"N_cb = {n_cb} LLRs")
    return raw, fillers


def rate_unmatch_combine(buffer: SoftBuffer, llrs: np.ndarray, cfg: RateMatchConfig) -> None:
    """Add received LLRs into their buffer positions (saturating), run by run.

    Positions hit more than once by one transmission (wrap-around
    repetition) accumulate every copy, in arrival order. The sum is int16,
    so any int8 the public buffer holds saturates too. ValueError as
    :func:`_checked` says.
    """
    raw, fillers = _checked(buffer, llrs, cfg)
    buf, at, code = buffer.llrs, 0, buffer.code
    for a, b in _selection(code.N_cb, k0_start(code, cfg.rv), fillers, cfg.E_r):
        acc = np.add(buf[a:b], raw[at:at + b - a], dtype=np.int16)
        buf[a:b] = np.clip(acc, -LLR_RAW_MAX, LLR_RAW_MAX, out=acc)
        at += b - a


def materialize_decoder_input(buffer: SoftBuffer) -> np.ndarray:
    """Full N_full LLR vector: zero punctured head, minimum-LLR fillers.

    ValueError as :func:`_fillers` says for the buffer's ``filler_range``.
    """
    code = buffer.code
    fillers = _fillers(code, buffer.filler_range)
    out = np.zeros(code.N_full, dtype=np.int8)
    out[2 * code.Zc:] = buffer.llrs
    out[2 * code.Zc + fillers.start:2 * code.Zc + fillers.stop] = FILLER_LLR_RAW
    return out


def receive_block(buffer: SoftBuffer, llrs: np.ndarray, cfg: RateMatchConfig) -> np.ndarray:
    """Combine one code block's received LLRs into its soft buffer; return the decoder input.

    ``llrs`` are the block's E_r descrambled LLRs in interleaved order. This is
    :func:`deinterleave`, then :func:`rate_unmatch_combine`, then
    :func:`materialize_decoder_input`, which define it; the compiled kernel
    does all three in one call where it can be built, reading the block at
    stride Q_m. ValueError as :func:`_checked` says, before anything is written.
    """
    raw, fillers = _checked(buffer, llrs, cfg)
    lib = _native.library()
    if lib is None:
        rate_unmatch_combine(buffer, deinterleave(raw, cfg.Q_m), cfg)
        return materialize_decoder_input(buffer)
    code = buffer.code
    raw = np.ascontiguousarray(raw)
    out = np.empty(code.N_full, dtype=np.int8)
    lib.receive(out.ctypes.data, buffer.llrs.ctypes.data, raw.ctypes.data, cfg.E_r, cfg.Q_m,
                code.N_cb, k0_start(code, cfg.rv), fillers.start, fillers.stop, 2 * code.Zc)
    return out
