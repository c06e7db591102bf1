"""Encode and decode pipeline assembly.

Encode: LDPC encode -> rate match -> interleave -> scramble -> modulate.
Decode: LLR estimate -> descramble -> deinterleave -> rate unmatch with
HARQ combining -> LDPC decode, where each block's deinterleaving,
combining and decoder input are one ``receive_block`` call unless one of
those stages' names here has been rebound. Scrambling runs over the
concatenated rate-matched stream of all blocks, mirroring a single-codeword
transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import llr as llr_mod
from ..errors import ConfigError, PoolExhaustedError, UnknownProcessError
from ..ldpc import DecodeResult, InfoBlock, as_bits, ldpc_decode, ldpc_encode
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
    receive_block,
)
from ..scramble import descramble_llrs, scramble_bits
from .config import ChainConfig

# The stages receive_block composes, as imported. perfbench's traced run
# times each stage by rebinding its name here; while one is rebound, the
# chain calls the three through these names, so every block is timed.
_RECEIVE_STAGES = (deinterleave, rate_unmatch_combine, materialize_decoder_input)


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
    payload = as_bits(payload)
    if payload.shape != (cfg.k_prime * cfg.blocks,):
        raise ValueError(
            f"payload must be K' x C = {cfg.k_prime * cfg.blocks} bits")
    code, filler = cfg.code()
    rv = cfg.rv_schedule[rv_round % len(cfg.rv_schedule)]
    rm_cfg = RateMatchConfig(E_r=cfg.e_r, rv=rv, Q_m=cfg.q_m)
    fill_range = buffer_filler_range(code, filler)

    info = np.zeros((cfg.blocks, code.K), dtype=np.uint8)  # each row's filler tail stays 0
    info[:, :cfg.k_prime] = payload.reshape(cfg.blocks, cfg.k_prime)
    stream = np.empty(cfg.G, dtype=np.uint8)
    for b in range(cfg.blocks):
        cw = ldpc_encode(code, InfoBlock(info[b], filler))
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
    staged = (deinterleave, rate_unmatch_combine, materialize_decoder_input) != _RECEIVE_STAGES
    results: list[DecodeResult] = []
    payload = np.empty(cfg.k_prime * cfg.blocks, dtype=np.uint8)
    for b in range(cfg.blocks):
        pid = _block_process_id(cfg, b)
        try:
            buf = pool.acquire(pid, new_packet, code, filler)
        except (PoolExhaustedError, UnknownProcessError) as exc:
            raise type(exc)(f"block {b}: {exc}") from None
        block = descrambled[b * cfg.e_r:(b + 1) * cfg.e_r]
        if staged:
            rate_unmatch_combine(buf, deinterleave(block, cfg.q_m), rm_cfg)
            decoder_input = materialize_decoder_input(buf)
        else:
            decoder_input = receive_block(buf, block, rm_cfg)
        res = ldpc_decode(code, decoder_input)
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
