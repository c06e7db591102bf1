"""Gold-sequence scrambling: bits on the encode path, LLR signs on decode.

The sequence is the XOR of two length-31 LFSRs (x1 taps 3,0; x2 taps
3,2,1,0) discarded for the first 1600 outputs. Its initialization packs
the transmission identity as c_init = rnti * 2^15 + q * 2^14 + cell_id.
No call runs that warm-up: it is folded into 32 register states computed
once per process, x1's and one x2 state per bit of c_init, from which a
call starts and generates only the n outputs it returns.
Descrambling operates on LLRs by conditional negation: flipping the
underlying bit negates the log-ratio, and the symmetric SoftLlr range
makes negation exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ldpc import as_bits, as_int, as_softllr

WARMUP = 1600
_REG_BITS = 31


@dataclass(frozen=True)
class ScramblingIdentity:
    rnti: int
    q: int
    cell_id: int

    def __post_init__(self):
        as_int(self.rnti, "rnti", 0, 1 << 16)
        as_int(self.q, "codeword index q", 0, 2)
        as_int(self.cell_id, "cell_id", 0, 1008)

    @property
    def c_init(self) -> int:
        return (self.rnti << 15) + (self.q << 14) + self.cell_id


_X1_TAPS = (0, 3)
_X2_TAPS = (0, 1, 2, 3)


def _warm_states(taps: tuple[int, ...], starts: list[int]) -> tuple[int, ...]:
    """Each start's state after WARMUP outputs of x[i+31] = XOR of x[i+t].

    A state holds 31 consecutive outputs, the oldest in bit 0. The run is
    the definition, one output at a time, for every start at once: bit s
    of ``x[i]`` is output i of the register started from ``starts[s]``.
    """
    x = [sum(((start >> i) & 1) << s for s, start in enumerate(starts))
         for i in range(_REG_BITS)]
    for i in range(WARMUP):
        out = 0
        for t in taps:
            out ^= x[i + t]
        x.append(out)
    return tuple(sum(((x[WARMUP + i] >> s) & 1) << i for i in range(_REG_BITS))
                 for s in range(len(starts)))


# x1 always starts from 1. x2's state is GF(2)-linear in c_init, so its
# state after the warm-up is the XOR of _X2_WARM[i] over c_init's set bits i.
(_X1_WARM,) = _warm_states(_X1_TAPS, [1])
_X2_WARM = _warm_states(_X2_TAPS, [1 << i for i in range(_REG_BITS)])


def _outputs(state: int, taps: tuple[int, ...], n: int) -> int:
    """First n outputs of the register in ``state``, output j in bit j."""
    out = state & ((1 << min(n, _REG_BITS)) - 1)
    # Squaring the feedback polynomial over GF(2) spreads its taps: the
    # sequence also obeys x[j] = XOR_t x[j - 31*2^k + t*2^k] for every
    # j >= 31*2^k. The newest input is then 28*2^k back, so each pass can
    # fill that many outputs and a run of n outputs takes O(log n) passes.
    j = _REG_BITS
    while j < n:
        step = 1 << ((j // _REG_BITS).bit_length() - 1)
        span = min((_REG_BITS - max(taps)) * step, n - j)
        base = j - _REG_BITS * step
        acc = 0
        for t in taps:
            acc ^= out >> (base + t * step)
        out |= (acc & ((1 << span) - 1)) << j
        j += span
    return out


def sequence(identity: ScramblingIdentity, n: int) -> np.ndarray:
    """First n scrambling bits for this identity."""
    n = as_int(n, "sequence length", 0)
    c_init = identity.c_init
    x2 = 0
    for i, state in enumerate(_X2_WARM):
        if c_init >> i & 1:
            x2 ^= state
    bits = _outputs(_X1_WARM, _X1_TAPS, n) ^ _outputs(x2, _X2_TAPS, n)
    return np.unpackbits(np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8),
                         count=n, bitorder="little")


def scramble_bits(bits: np.ndarray, identity: ScramblingIdentity) -> np.ndarray:
    """XOR the bit stream with the scrambling sequence (an involution)."""
    bits = as_bits(bits)
    return bits ^ sequence(identity, len(bits))


def descramble_llrs(llrs: np.ndarray, identity: ScramblingIdentity) -> np.ndarray:
    """Negate LLRs wherever the scrambling bit is 1."""
    raw = as_softllr(llrs)
    c = sequence(identity, len(raw))
    return raw * (1 - 2 * c.view(np.int8))
