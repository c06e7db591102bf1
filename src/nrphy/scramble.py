"""Gold-sequence scrambling: bits on the encode path, LLR signs on decode.

The sequence is the XOR of two length-31 LFSRs (x1 taps 3,0; x2 taps
3,2,1,0) discarded for the first 1600 outputs. Its initialization packs
the transmission identity as c_init = rnti * 2^15 + q * 2^14 + cell_id.
Descrambling operates on LLRs by conditional negation: flipping the
underlying bit negates the log-ratio, and the symmetric SoftLlr range
makes negation exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ldpc import as_bits, as_softllr

WARMUP = 1600
_REG_BITS = 31


@dataclass(frozen=True)
class ScramblingIdentity:
    rnti: int
    q: int
    cell_id: int

    def __post_init__(self):
        if not 0 <= self.rnti < (1 << 16):
            raise ValueError("rnti out of 16-bit range")
        if self.q not in (0, 1):
            raise ValueError("codeword index must be 0 or 1")
        if not 0 <= self.cell_id <= 1007:
            raise ValueError("cell_id out of [0, 1007]")

    @property
    def c_init(self) -> int:
        return (self.rnti << 15) + (self.q << 14) + self.cell_id


_X1_TAPS = (0, 3)
_X2_TAPS = (0, 1, 2, 3)


def _lfsr_blocks(reg: int, n: int, taps: tuple[int, ...]) -> np.ndarray:
    """First n outputs of x[i+31] = XOR of x[i+t] for t in taps (t includes 0).

    Outputs 0..30 are the bits of ``reg``, LSB first.
    """
    out = np.zeros(max(n, _REG_BITS), dtype=np.uint8)
    out[:_REG_BITS] = (reg >> np.arange(_REG_BITS)) & 1
    # Squaring the feedback polynomial over GF(2) spreads its taps: the
    # sequence also obeys x[j] = XOR_t x[j - 31*2^k + t*2^k] for every
    # j >= 31*2^k. The newest input is then 28*2^k back, so each pass can
    # fill that many outputs and a run of n outputs takes O(log n) passes.
    j = _REG_BITS
    while j < n:
        step = 1 << ((j // _REG_BITS).bit_length() - 1)
        span = min((_REG_BITS - max(taps)) * step, n - j)
        base = j - _REG_BITS * step
        acc = out[base: base + span].copy()
        for t in taps[1:]:
            acc ^= out[base + t * step: base + t * step + span]
        out[j: j + span] = acc
        j += span
    return out[:n]


def sequence(identity: ScramblingIdentity, n: int) -> np.ndarray:
    """First n scrambling bits for this identity."""
    total = WARMUP + n
    x1 = _lfsr_blocks(1, total, _X1_TAPS)
    x2 = _lfsr_blocks(identity.c_init, total, _X2_TAPS)
    return x1[WARMUP:] ^ x2[WARMUP:]


def scramble_bits(bits: np.ndarray, identity: ScramblingIdentity) -> np.ndarray:
    """XOR the bit stream with the scrambling sequence (an involution)."""
    bits = as_bits(bits)
    return bits ^ sequence(identity, len(bits))


def descramble_llrs(llrs: np.ndarray, identity: ScramblingIdentity) -> np.ndarray:
    """Negate LLRs wherever the scrambling bit is 1."""
    raw = as_softllr(llrs)
    c = sequence(identity, len(raw))
    return raw * (1 - 2 * c.view(np.int8))
