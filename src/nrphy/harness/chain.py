"""Encode and decode pipeline assembly.

Encode: LDPC encode -> rate match -> interleave -> scramble -> modulate.
Decode: LLR estimate -> descramble -> deinterleave -> rate unmatch with
HARQ combining -> LDPC decode. Scrambling runs over the concatenated
rate-matched stream of all blocks, mirroring a single-codeword transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import llr as llr_mod
from ..errors import ConfigError, PoolExhaustedError, UnknownProcessError
from ..ldpc import DecodeResult, InfoBlock, ldpc_decode, ldpc_encode
from ..llr import EqualizedSymbols, PackedWordStream, pack_bit_words
from ..rate_adapt import (
    POOL_SLOTS,
    HarqBufferPool,
    RateMatchConfig,
    buffer_filler_range,
    deinterleave,
    interleave,
    materialize_decoder_input,
    rate_match,
    rate_unmatch_combine,
)
from ..scramble import descramble_llrs, scramble_bits
from .config import ChainConfig


@dataclass(frozen=True)
class EncodeOutput:
    symbols: EqualizedSymbols
    scrambled_words: PackedWordStream


@dataclass(frozen=True)
class DecodeOutput:
    results: list[DecodeResult]
    payload: np.ndarray

    @property
    def block_ok(self) -> list[bool]:
        return [res.parity_ok for res in self.results]

    def block_delivered(self, payload: np.ndarray) -> list[bool]:
        """Per block: parity holds and its K' bits equal the payload's."""
        k = len(self.payload) // len(self.results)  # K'
        return [res.parity_ok and np.array_equal(self.payload[b * k:(b + 1) * k],
                                                 payload[b * k:(b + 1) * k])
                for b, res in enumerate(self.results)]


def _block_process_id(cfg: ChainConfig, block: int) -> int:
    return (cfg.harq_process + block) % POOL_SLOTS


def encode_chain(cfg: ChainConfig, payload: np.ndarray, rv_round: int = 0) -> EncodeOutput:
    """Run the encode pipeline over ``blocks`` identical-parameter blocks."""
    payload = np.asarray(payload)  # InfoBlock rejects any bit but 0 and 1
    if payload.shape != (cfg.k_prime * cfg.blocks,):
        raise ValueError(
            f"payload must be K' x C = {cfg.k_prime * cfg.blocks} bits")
    code, filler = cfg.code()
    rv = cfg.rv_schedule[rv_round % len(cfg.rv_schedule)]
    rm_cfg = RateMatchConfig(E_r=cfg.e_r, rv=rv, Q_m=cfg.q_m)
    fill_range = buffer_filler_range(code, filler)

    stream = np.empty(cfg.G, dtype=np.uint8)
    for b in range(cfg.blocks):
        bits = np.zeros(code.K, dtype=payload.dtype)
        bits[: cfg.k_prime] = payload[b * cfg.k_prime:(b + 1) * cfg.k_prime]
        cw = ldpc_encode(code, InfoBlock(bits, filler))
        e = rate_match(cw, fill_range, rm_cfg)
        stream[b * cfg.e_r:(b + 1) * cfg.e_r] = interleave(e, cfg.q_m)

    scrambled = scramble_bits(stream, cfg.identity)
    return EncodeOutput(
        symbols=llr_mod.modulate(scrambled, cfg.q_m),
        scrambled_words=pack_bit_words(scrambled),
    )


def decode_chain_from_llrs(
    cfg: ChainConfig,
    llrs: np.ndarray,
    pool: HarqBufferPool,
    rv_round: int = 0,
    new_packet: bool = True,
    release: bool = True,
) -> DecodeOutput:
    """Decode from raw received LLRs (post-demap, pre-descramble).

    With ``release`` false, every block's soft buffer stays bound for a
    later retransmission to combine into.
    """
    if np.shape(llrs) != (cfg.G,):
        raise ValueError(f"expected G = {cfg.G} LLRs")
    if cfg.blocks > POOL_SLOTS and not (release and new_packet):
        # process ids wrap, so a later block would rebind an earlier block's buffer
        raise ConfigError(f"{cfg.blocks} blocks cannot keep combined state in "
                          f"{POOL_SLOTS} soft buffers")
    code, filler = cfg.code()
    rv = cfg.rv_schedule[rv_round % len(cfg.rv_schedule)]
    rm_cfg = RateMatchConfig(E_r=cfg.e_r, rv=rv, Q_m=cfg.q_m)

    descrambled = descramble_llrs(llrs, cfg.identity)
    results: list[DecodeResult] = []
    payload = np.empty(cfg.k_prime * cfg.blocks, dtype=np.uint8)
    for b in range(cfg.blocks):
        block = descrambled[b * cfg.e_r:(b + 1) * cfg.e_r]
        soft = deinterleave(block, cfg.q_m)
        pid = _block_process_id(cfg, b)
        try:
            buf = pool.acquire(pid, new_packet, code, filler)
        except (PoolExhaustedError, UnknownProcessError) as exc:
            raise type(exc)(f"block {b}: {exc}") from None
        rate_unmatch_combine(buf, soft, rm_cfg)
        res = ldpc_decode(code, materialize_decoder_input(buf))
        results.append(res)
        payload[b * cfg.k_prime:(b + 1) * cfg.k_prime] = res.hard_bits[: cfg.k_prime]
        if release:
            pool.release(pid)
    return DecodeOutput(results=results, payload=payload)


def decode_chain(
    cfg: ChainConfig,
    symbols: EqualizedSymbols,
    pool: HarqBufferPool,
    rv_round: int = 0,
    new_packet: bool = True,
    release: bool = True,
) -> DecodeOutput:
    """Full decode pipeline from equalized symbols."""
    params = llr_mod.DemapperParams.for_noise(cfg.q_m, cfg.sigma2)
    raw = llr_mod.llr_estimate(symbols, params)
    return decode_chain_from_llrs(cfg, raw, pool, rv_round, new_packet, release)
