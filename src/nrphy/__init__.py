"""Bit-exact software model of an FPGA-offloaded 5G NR coding chain.

Modules: :mod:`nrphy.ldpc` (base graphs, encoding, offset min-sum
decoding), :mod:`nrphy.rate_adapt` (circular-buffer rate matching,
interleaving, HARQ soft buffers), :mod:`nrphy.scramble` (Gold-sequence
scrambling), :mod:`nrphy.llr` (modulation, AWGN, fixed-point soft
demapping, 32-bit word packing) and :mod:`nrphy.harness` (chain
assembly, simulators, benchmark, CLI).
"""

from .errors import ConfigError, FormatError, PoolExhaustedError, UnknownProcessError
from .ldpc import (
    BaseGraphId,
    Codeword,
    DecodeResult,
    InfoBlock,
    LiftedLdpcCode,
    TerminationReason,
    build_code,
    check_node_update,
    choose_base_graph,
    ldpc_decode,
    ldpc_encode,
    parity_check,
    select_lifting,
)
from .llr import (
    DemapperParams,
    EqualizedSymbols,
    PackedWordStream,
    awgn,
    llr_estimate,
    modulate,
    pack_bit_words,
    pack_llr_words,
    quantize,
    unpack_bit_words,
    unpack_llr_words,
)
from .rate_adapt import (
    HarqBufferPool,
    RateMatchConfig,
    SoftBuffer,
    deinterleave,
    interleave,
    k0_start,
    materialize_decoder_input,
    rate_match,
    rate_unmatch_combine,
)
from .scramble import ScramblingIdentity, descramble_llrs, scramble_bits

__version__ = "0.1.0"
