"""Circular-buffer rate matching and the HARQ soft-buffer pool.

The encode path reads E_r bits circularly from the N_cb-bit buffer
(codeword bits 2Zc..N_full-1), starting at the redundancy version's
offset and skipping filler positions, which are never transmitted. The
decode path scatters received LLRs back to their buffer positions with
saturating addition, so retransmissions with different redundancy
versions combine into a lower-rate observation. The pool holds at most
sixteen buffers, one per bound process, each sized for its code.
Encoder and combiner of every block read the same positions for a given
transmission layout, so each selection is built once and shared read-only.
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


@lru_cache(maxsize=None)
def _selection_indices(n_cb: int, k0: int, filler_range: range, count: int) -> np.ndarray:
    """Buffer positions read/written by ``count`` values, as a read-only array."""
    usable = np.ones(n_cb, dtype=bool)
    usable[filler_range.start:filler_range.stop] = False
    order = np.roll(np.arange(n_cb, dtype=np.int64), -k0)  # the kernel reads int64
    idx = np.resize(order[usable[order]], count)
    idx.flags.writeable = False
    return idx


def rate_match(codeword: Codeword, filler_range: range, cfg: RateMatchConfig) -> np.ndarray:
    """Select E_r bits from the circular buffer for one transmission."""
    code = codeword.code
    buf = np.asarray(codeword.bits, dtype=np.uint8)[2 * code.Zc:]
    idx = _selection_indices(code.N_cb, k0_start(code, cfg.rv), filler_range, cfg.E_r)
    return buf[idx]


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


def rate_unmatch_combine(buffer: SoftBuffer, llrs: np.ndarray, cfg: RateMatchConfig) -> None:
    """Scatter-add received LLRs into their buffer positions (saturating).

    Positions hit more than once by one transmission (wrap-around
    repetition) accumulate every copy, in arrival order. The buffer's
    ``llrs`` must be a writable, C-contiguous int8 array of N_cb values,
    else ValueError. The compiled kernel does the same in one call where
    it can be built.
    """
    raw = np.ascontiguousarray(as_softllr(llrs))
    if raw.shape != (cfg.E_r,):
        raise ValueError("LLR count must equal E_r")
    code = buffer.code
    buf = buffer.llrs
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.int8 and buf.shape == (code.N_cb,)
            and buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError(f"soft buffer must be a writable, contiguous int8 array of "
                         f"N_cb = {code.N_cb} LLRs")
    idx = _selection_indices(code.N_cb, k0_start(code, cfg.rv),
                             buffer.filler_range, cfg.E_r)
    cycle = code.N_cb - len(buffer.filler_range)
    lib = _native.library()
    if lib is not None:
        lib.combine(buf.ctypes.data, raw.ctypes.data, idx.ctypes.data, cfg.E_r, cycle)
        return
    # Within one pass over the buffer every position is unique, so each
    # chunk is an exact element-wise saturating add in arrival order. The
    # sum is int16, so any int8 the public buffer holds saturates too.
    for start in range(0, cfg.E_r, cycle):
        pos = idx[start:start + cycle]
        acc = np.add(buf[pos], raw[start:start + cycle], dtype=np.int16)
        buf[pos] = np.clip(acc, -LLR_RAW_MAX, LLR_RAW_MAX, out=acc)


def materialize_decoder_input(buffer: SoftBuffer) -> np.ndarray:
    """Full N_full LLR vector: zero punctured head, minimum-LLR fillers."""
    code = buffer.code
    out = np.zeros(code.N_full, dtype=np.int8)
    out[2 * code.Zc:] = buffer.llrs
    out[2 * code.Zc + buffer.filler_range.start:
        2 * code.Zc + buffer.filler_range.stop] = FILLER_LLR_RAW
    return out
