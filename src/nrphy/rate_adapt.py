"""Circular-buffer rate matching and the HARQ soft-buffer pool.

The encode path reads E_r bits circularly from the N_cb-bit buffer
(codeword bits 2Zc..N_full-1), starting at the redundancy version's
offset and skipping filler positions, which are never transmitted. The
decode path scatters received LLRs back to their buffer positions with
saturating addition, so retransmissions with different redundancy
versions combine into a lower-rate observation. The pool holds at most
sixteen buffers, one per bound process, each sized for its code.
Encoder, combiner and kernel read the same pieces of the buffer, which
``_selection`` derives once per (code, rv, filler count, E_r): one pass
is at most three contiguous runs, read in turn until E_r values are placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _native
from .errors import PoolExhaustedError, UnknownProcessError
from .ldpc import (LLR_RAW_MAX, BaseGraphId, Codeword, LiftedLdpcCode, as_bits,
                   as_filler_count, as_int, as_softllr, build_code)
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

    def __post_init__(self):  # fields stored as ints: _selection's cache is typed
        object.__setattr__(self, "E_r", as_int(self.E_r, "E_r", 1))
        object.__setattr__(self, "rv", as_int(self.rv, "rv", 0, 4))
        object.__setattr__(self, "Q_m", as_q_m(self.Q_m))
        if self.E_r % self.Q_m:
            raise ValueError("E_r must be a multiple of Q_m")


def k0_start(code: LiftedLdpcCode, rv: int) -> int:
    """Circular-buffer read start for a redundancy version."""
    num = _K0_NUM[code.bg][as_int(rv, "rv", 0, 4)]
    return (num * code.N_cb // (_K0_DEN[code.bg] * code.Zc)) * code.Zc


def buffer_filler_range(code: LiftedLdpcCode, filler_count: int) -> range:
    """Filler positions in buffer coordinates (systematic tail, minus 2Zc).

    ValueError unless ``filler_count`` passes :func:`ldpc.as_filler_count`.
    """
    end = code.K - 2 * code.Zc
    return range(end - as_filler_count(code, filler_count), end)


@dataclass(frozen=True)
class _Selection:
    """One transmission layout's buffer pieces, built by ``_selection``, and the kernel's view."""

    pieces: tuple[tuple[int, int], ...]  # (start, stop) in the order they are read
    table: np.ndarray  # the same pairs, int32, read-only
    address: int  # the table's


@lru_cache(maxsize=None, typed=True)
def _selection(bg: BaseGraphId, Zc: int, rv: int, filler_count: int, count: int) -> _Selection:
    """The buffer pieces that ``count`` values read or write, in order.

    One pass from k0 is each half, [k0, N_cb) and then [0, k0), less the
    fillers, which split at most one of them: at most three runs, repeated
    until ``count`` values are placed, the last cut short. Keyed on
    integers, as a code's hash reads all its rows; typed, so that True and
    2.0 miss the entries of 1 and 2 and reach :func:`buffer_filler_range`.
    """
    code = build_code(bg, Zc)
    n_cb, k0 = code.N_cb, k0_start(code, rv)
    fillers = buffer_filler_range(code, filler_count)
    fs, fe = (fillers.start, fillers.stop) if fillers else (n_cb, n_cb)
    runs = [(a, b) for lo, hi in ((k0, n_cb), (0, k0))
            for a, b in ((lo, min(hi, fs)), (max(lo, fe), hi)) if a < b]
    pieces = []
    while count:
        for a, b in runs:
            n = min(b - a, count)
            pieces.append((a, a + n))
            count -= n
            if not count:
                break
    table = np.array(pieces, dtype=np.int32)
    table.flags.writeable = False
    return _Selection(tuple(pieces), table, table.ctypes.data)


def rate_match(codeword: Codeword, cfg: RateMatchConfig) -> np.ndarray:
    """Select E_r bits from the circular buffer for one transmission.

    ValueError unless the codeword is N_full bits of 0 or 1, or as
    :func:`buffer_filler_range` says for its filler count.
    """
    code = codeword.code
    bits = as_bits(codeword.bits)
    if bits.size != code.N_full:
        raise ValueError(f"codeword must be N_full = {code.N_full} bits, not {bits.size}")
    buf = bits[2 * code.Zc:]
    pieces = _selection(code.bg, code.Zc, cfg.rv, codeword.filler_count, cfg.E_r).pieces
    return np.concatenate([buf[a:b] for a, b in pieces])


def _as_slices(values, q_m: int) -> tuple[np.ndarray, int]:
    """``values`` as a 1-D array and ``q_m`` as a modulation order that divides its length."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"input must be 1-D, not {values.ndim}-D")
    q_m = as_q_m(q_m)
    if len(values) % q_m:
        raise ValueError("Q_m must divide E_r")
    return values, q_m


def interleave(e: np.ndarray, q_m: int) -> np.ndarray:
    """Spread bits so each group of Q_m output bits samples the whole block.

    Slice i of the input, of E_r / Q_m bits, goes to every Q_m-th output bit
    from bit i, one strided copy per slice: a transposed copy of uint8 is
    several times slower.
    """
    e, q_m = _as_slices(e, q_m)
    out = np.empty(len(e), e.dtype)
    k = len(e) // q_m
    for i in range(q_m):
        out[i::q_m] = e[i * k:(i + 1) * k]
    return out


def deinterleave(llrs: np.ndarray, q_m: int) -> np.ndarray:
    """Exact inverse permutation of :func:`interleave`."""
    llrs, q_m = _as_slices(llrs, q_m)
    return llrs.reshape(-1, q_m).T.reshape(-1)


@dataclass
class SoftBuffer:
    """One process's N_cb soft values, the code they belong to and its filler count."""

    code: LiftedLdpcCode
    llrs: np.ndarray
    filler_count: int


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
                code: LiftedLdpcCode, filler_count: int) -> SoftBuffer:
        """Bind (new packet) or look up (retransmission) a soft buffer.

        An id that is not an integer in [0, POOL_SLOTS) raises ValueError
        before anything else. A full pool refuses a new packet on any unbound
        id; a retransmission raises ValueError where the code or the filler
        count, checked by :func:`ldpc.as_filler_count`, differs from the
        bound buffer's.
        """
        process_id = as_int(process_id, "process id", 0, POOL_SLOTS)
        if is_new_packet:
            fillers = as_filler_count(code, filler_count)
            if process_id not in self.bindings and len(self.bindings) == self.num_slots:
                raise PoolExhaustedError(f"all {self.num_slots} soft buffers are bound")
            buf = SoftBuffer(code, np.zeros(code.N_cb, dtype=np.int8), fillers)
            self.bindings[process_id] = buf
            return buf
        if process_id not in self.bindings:
            raise UnknownProcessError(f"no buffer bound to process {process_id}")
        buf = self.bindings[process_id]
        if (buf.code.bg, buf.code.Zc) != (code.bg, code.Zc):
            raise ValueError("bound buffer dimensions do not match the code")
        if buf.filler_count != as_filler_count(code, filler_count):
            raise ValueError(f"bound buffer has {buf.filler_count} fillers, not {filler_count}")
        return buf

    def release(self, process_id: int) -> None:
        """Unbind a process's buffer; ValueError for an id ``acquire`` would refuse."""
        process_id = as_int(process_id, "process id", 0, POOL_SLOTS)
        if self.bindings.pop(process_id, None) is None:
            raise UnknownProcessError(f"no buffer bound to process {process_id}")


def _checked(buffer: SoftBuffer, llrs: np.ndarray,
             cfg: RateMatchConfig) -> tuple[np.ndarray, _Selection]:
    """``llrs`` as SoftLlrs and the pieces they combine into, once both are checked.

    ValueError as :func:`buffer_filler_range` says for the buffer's filler
    count, and unless ``llrs`` are E_r SoftLlrs.
    """
    code = buffer.code
    selection = _selection(code.bg, code.Zc, cfg.rv, buffer.filler_count, cfg.E_r)
    raw = as_softllr(llrs)
    if raw.shape != (cfg.E_r,):
        raise ValueError("LLR count must equal E_r")
    return raw, selection


def _writable_llrs(buffer: SoftBuffer) -> np.ndarray:
    """The buffer's ``llrs``, which a combine writes in place.

    ValueError unless they are a writable, C-contiguous int8 array of N_cb values.
    """
    buf, n_cb = buffer.llrs, buffer.code.N_cb
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.int8 and buf.shape == (n_cb,)
            and buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError(f"soft buffer must be a writable, contiguous int8 array of "
                         f"N_cb = {n_cb} LLRs")
    return buf


def rate_unmatch_combine(buffer: SoftBuffer, llrs: np.ndarray, cfg: RateMatchConfig) -> None:
    """Add received LLRs into their buffer positions (saturating), piece by piece.

    Positions hit more than once by one transmission (wrap-around
    repetition) accumulate every copy, in arrival order. The sum is int16,
    so any int8 the public buffer holds saturates too. ValueError as
    :func:`_checked` and :func:`_writable_llrs` say.
    """
    raw, selection = _checked(buffer, llrs, cfg)
    buf, at = _writable_llrs(buffer), 0
    for a, b in selection.pieces:
        acc = np.add(buf[a:b], raw[at:at + b - a], dtype=np.int16)
        buf[a:b] = np.clip(acc, -LLR_RAW_MAX, LLR_RAW_MAX, out=acc)
        at += b - a


def materialize_decoder_input(buffer: SoftBuffer) -> np.ndarray:
    """Full N_full LLR vector: zero punctured head, minimum-LLR fillers.

    ValueError as :func:`buffer_filler_range` says for the buffer's filler count.
    """
    code = buffer.code
    fillers = buffer_filler_range(code, buffer.filler_count)
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
    stride Q_m and walking the same pieces from ``_selection``'s table.
    ValueError as :func:`_checked` and :func:`_writable_llrs` say, before
    anything is written.
    """
    return _receive(buffer, *_checked(buffer, llrs, cfg), cfg)


def _receive(buffer: SoftBuffer, raw: np.ndarray, selection: _Selection,
             cfg: RateMatchConfig) -> np.ndarray:
    """:func:`receive_block` from what :func:`_checked` returns for its arguments.

    The buffer, which the kernel writes through its pointer, is still checked here.
    """
    buf = _writable_llrs(buffer)
    lib = _native.library()
    if lib is None:
        rate_unmatch_combine(buffer, deinterleave(raw, cfg.Q_m), cfg)
        return materialize_decoder_input(buffer)
    code = buffer.code
    fillers = buffer_filler_range(code, buffer.filler_count)
    raw = np.ascontiguousarray(raw)
    out = np.empty(code.N_full, dtype=np.int8)
    lib.receive(out.ctypes.data, buf.ctypes.data, raw.ctypes.data, cfg.E_r, cfg.Q_m,
                selection.address, code.N_cb, fillers.start, fillers.stop, 2 * code.Zc)
    return out
