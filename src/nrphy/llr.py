"""Fixed-point soft demapping and the accelerator word formats.

LLRs use a 6-bit symmetric saturating format with 2 fractional bits,
carried in 8-bit containers: raw integers in [-31, +31], semantic value
raw / 4, range [-7.75, +7.75]. Positive values favor bit 1. Equalized
symbols are Q3.12 (16-bit signed, 12 fractional bits) per component.

Modulation reads each symbol from a table of the 2^Q_m Q3.12 points,
built once per order by the Gray arithmetic: in one call into the
compiled kernel of ``_native`` where it can be built, else in NumPy,
which defines it. The demapper evaluates the
per-bit piecewise-linear max-log approximation (nested absolute
differences against the constellation's A/B/C/D offsets) in int32 with
every intermediate saturated to 16 bits, then quantizes to SoftLlr: in
one call into the compiled kernel of ``_native`` where it can be built,
else in NumPy, which defines it.

``PackedWordStream.to_bytes``/``from_bytes`` alone define the 32-bit word
layout; the packers only fill bytes, so words and dump files cannot disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _native
from .errors import FormatError
from .ldpc import LLR_RAW_MAX, as_bits, as_int, as_softllr

LLR_SCALE = 4  # raw units per unit LLR (2 fractional bits)

SYMBOL_FRAC_BITS = 12
SYMBOL_SCALE = 1 << SYMBOL_FRAC_BITS
_I16_MIN, _I16_MAX = -32768, 32767

INV_NOISE_FRAC_BITS = 8
_INV_NOISE_MAX = 0xFFFF

MODULATION_ORDERS = (2, 4, 6, 8)

# Unit-energy normalization per modulation order (QPSK..256QAM).
_NORM = {2: math.sqrt(2.0), 4: math.sqrt(10.0), 6: math.sqrt(42.0), 8: math.sqrt(170.0)}
# Decision-boundary offsets (B, C, D) in multiples of A.
_OFFSETS = {2: (), 4: (1,), 6: (2, 1), 8: (4, 2, 1)}


def as_q_m(value) -> int:
    """``value`` as an int; ValueError unless it is an integer in ``MODULATION_ORDERS``."""
    if as_int(value, "Q_m", 2) not in MODULATION_ORDERS:
        raise ValueError(f"Q_m must be one of {MODULATION_ORDERS}, not {value!r}")
    return int(value)


def quantize(values) -> np.ndarray:
    """Round to the nearest quarter, ties away from zero, clamp to +/-7.75."""
    v = np.asarray(values, dtype=np.float64)
    raw = np.sign(v) * np.floor(np.abs(v) * LLR_SCALE + 0.5)
    return np.clip(raw, -LLR_RAW_MAX, LLR_RAW_MAX).astype(np.int8)


@dataclass(frozen=True)
class EqualizedSymbols:
    """Batch of equalized constellation symbols, Q3.12 per component.

    ``re`` and ``im`` are 1-D int16 arrays of one length, else ValueError;
    a strided view is copied to a contiguous array, never cast.
    """

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        for name in ("re", "im"):
            comp = getattr(self, name)
            if not (isinstance(comp, np.ndarray) and comp.dtype == np.int16
                    and comp.ndim == 1):
                raise ValueError(f"symbol component {name} must be a 1-D int16 array")
            object.__setattr__(self, name, np.ascontiguousarray(comp))
        if len(self.re) != len(self.im):
            raise ValueError("symbol components differ in length")

    def __len__(self) -> int:
        return len(self.re)

    def values(self) -> np.ndarray:
        """Complex floating-point view."""
        return (self.re + 1j * self.im) / SYMBOL_SCALE


def _sat16(x: np.ndarray) -> np.ndarray:
    return np.clip(x, _I16_MIN, _I16_MAX)


def _to_q312(values: np.ndarray) -> np.ndarray:
    """Round real values to Q3.12, saturating to int16; ``values`` is overwritten."""
    np.multiply(values, SYMBOL_SCALE, out=values)
    np.rint(values, out=values)
    np.clip(values, _I16_MIN, _I16_MAX, out=values)
    return values.astype(np.int16)


@dataclass(frozen=True)
class DemapperParams:
    """Per-modulation demapper constants plus the noise scale.

    A..D are the Q3.12 fixed-point images of the Table-of-offsets
    constants (each quantized from its exact real value); ``inv_noise``
    is 1/sigma^2 in unsigned Q8.8, applied as one multiplier per block.
    """

    Q_m: int
    A: int
    B: int
    C: int
    D: int
    inv_noise: int

    def __post_init__(self):
        as_q_m(self.Q_m)
        # these bounds keep every demapper product below 2^31
        for name, low, high in (("A", 1, _I16_MAX), ("B", 0, _I16_MAX), ("C", 0, _I16_MAX),
                                ("D", 0, _I16_MAX), ("inv_noise", 0, _INV_NOISE_MAX)):
            as_int(getattr(self, name), name, low, high + 1)

    @classmethod
    def for_noise(cls, q_m: int, sigma2: float) -> "DemapperParams":
        q_m = as_q_m(q_m)
        if not (math.isfinite(sigma2) and sigma2 >= 0):
            raise ValueError("sigma2 must be finite and >= 0")
        a_real = 2.0 / _NORM[q_m]
        mults = _OFFSETS[q_m]
        offs = [int(round(m * a_real * SYMBOL_SCALE)) for m in mults]
        offs += [0] * (3 - len(offs))
        inv = _INV_NOISE_MAX
        if sigma2 > 0:
            inv = min(_INV_NOISE_MAX, int(round((1 << INV_NOISE_FRAC_BITS) / sigma2)))
        return cls(
            Q_m=q_m,
            A=int(round(a_real * SYMBOL_SCALE)),
            B=offs[0],
            C=offs[1],
            D=offs[2],
            inv_noise=inv,
        )


@dataclass(frozen=True)
class _Constellation:
    """One order's points, built by ``_constellation``, and the kernel's view of them."""

    re: np.ndarray  # int16, read-only, indexed by label
    im: np.ndarray
    tables: tuple[int, int]  # their addresses


@lru_cache(maxsize=None)
def _constellation(q_m: int) -> _Constellation:
    """Q3.12 (re, im) of every q_m-bit label, bit 0 of a group as its MSB."""
    g = (np.arange(1 << q_m)[:, None] >> np.arange(q_m - 1, -1, -1)) & 1
    half = q_m // 2

    def axis(cols: np.ndarray) -> np.ndarray:
        # Nested Gray amplitude: 2 - (1-2c), 4 - (1-2c)(2 - ...), ...
        mag = np.ones(len(cols), dtype=np.int64)
        for lvl in range(1, half):
            mag = (1 << lvl) - (1 - 2 * cols[:, half - lvl]) * mag
        return (1 - 2 * cols[:, 0]) * mag

    points = (axis(g[:, 0::2]) + 1j * axis(g[:, 1::2])) / _NORM[q_m]
    re, im = _to_q312(points.real.copy()), _to_q312(points.imag.copy())
    for arr in (re, im):
        arr.flags.writeable = False
    return _Constellation(re, im, (re.ctypes.data, im.ctypes.data))


def modulate(bits: np.ndarray, q_m: int) -> EqualizedSymbols:
    """Gray-map groups of q_m bits onto the unit-energy constellation.

    Where the compiled kernel can be built, one call into it reads every
    symbol's point from the same tables.
    """
    q_m = as_q_m(q_m)
    bits = as_bits(bits)
    if bits.size % q_m:
        raise ValueError("bit count not a multiple of Q_m")
    points = _constellation(q_m)
    lib = _native.library()
    if lib is not None:
        bits = np.ascontiguousarray(bits)  # held: the kernel reads it through its address
        n = bits.size // q_m
        out = np.empty((2, n), dtype=np.int16)  # re, then im
        at = out.ctypes.data
        lib.modulate(at, at + out.strides[0], bits.ctypes.data, n, q_m, *points.tables)
        return EqualizedSymbols(out[0], out[1])
    groups = bits.reshape(-1, q_m)
    labels = groups[:, 0].copy()
    for k in range(1, q_m):
        labels <<= 1
        labels |= groups[:, k]
    return EqualizedSymbols(points.re.take(labels), points.im.take(labels))


def awgn(symbols: EqualizedSymbols, sigma2: float, seed) -> EqualizedSymbols:
    """Add complex Gaussian noise of total variance sigma2, re-saturating.

    The in-phase draws come first, then the quadrature ones; each
    component is its value plus one draw, rounded back to Q3.12.
    """
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError("sigma2 must be finite and >= 0")
    if sigma2 == 0:
        return symbols
    rng = np.random.default_rng(seed)
    std = math.sqrt(sigma2 / 2.0)
    noisy = []
    for comp in (symbols.re, symbols.im):
        values = rng.normal(0.0, std, len(symbols))
        values += comp / SYMBOL_SCALE
        noisy.append(_to_q312(values))
    return EqualizedSymbols(*noisy)


def llr_estimate(symbols: EqualizedSymbols, params: DemapperParams) -> np.ndarray:
    """Per-bit piecewise-linear LLRs, quantized to raw SoftLlr integers.

    Bit k of each symbol comes from the k//2-th nested absolute-difference
    stage of the in-phase (even k) or quadrature (odd k) component; stage
    values and both multiplies saturate to 16 bits. Every product is below
    32768 * 65535 < 2^31 in magnitude, so int32 holds it exactly. The
    compiled kernel computes the same in one pass where it can be built.
    """
    q_m = params.Q_m
    n = len(symbols)
    lib = _native.library()
    if lib is not None:
        out = np.empty(n * q_m, dtype=np.int8)
        lib.demap(out.ctypes.data, symbols.re.ctypes.data, symbols.im.ctypes.data, n, q_m,
                  params.A, params.B, params.C, params.D, params.inv_noise)
        return out
    out = np.empty((n, q_m), dtype=np.int8)
    offsets = (params.B, params.C, params.D)
    for comp, base in ((symbols.re, 0), (symbols.im, 1)):
        t = comp.astype(np.int32)
        stage = -t  # sign convention: positive LLR favors bit 1
        for k in range(q_m // 2):
            scaled = _sat16((stage * params.A) >> SYMBOL_FRAC_BITS)
            scaled = _sat16((scaled * params.inv_noise) >> INV_NOISE_FRAC_BITS)
            raw = np.sign(scaled) * ((np.abs(scaled) + (SYMBOL_SCALE // LLR_SCALE // 2))
                                     // (SYMBOL_SCALE // LLR_SCALE))
            out[:, 2 * k + base] = np.clip(raw, -LLR_RAW_MAX, LLR_RAW_MAX)
            if k < q_m // 2 - 1:
                t = _sat16(np.abs(t) - offsets[k])
                stage = t
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# 32-bit word packing (accelerator data interface)
# ---------------------------------------------------------------------------

KIND_RAW_BITS = "raw_bits"
KIND_LLRS = "llrs"


@dataclass(frozen=True)
class PackedWordStream:
    """Sequence of 32-bit words: raw bits LSB-first or 4 LLR bytes per word."""

    words: np.ndarray
    kind: str

    def to_bytes(self) -> bytes:
        """Little-endian on-disk/wire layout."""
        return self.words.astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, kind: str) -> "PackedWordStream":
        if len(data) % 4:
            raise FormatError("word stream length not a multiple of 4 bytes")
        return cls(np.frombuffer(data, dtype="<u4").astype(np.uint32), kind)

    def dump_hex(self) -> str:
        """Debug dump: one word per line, hexadecimal."""
        return "".join(f"{w:08x}\n" for w in self.words)

    @classmethod
    def from_hex(cls, text: str, kind: str) -> "PackedWordStream":
        words = [int(line, 16) for line in text.split()]
        return cls(np.asarray(words, dtype=np.uint32), kind)


def pack_llr_words(llrs: np.ndarray) -> PackedWordStream:
    """4 LLRs per word, lowest byte first, each sign-extended to 8 bits."""
    raw = as_softllr(llrs).tobytes()
    return PackedWordStream.from_bytes(raw + bytes(-len(raw) % 4), KIND_LLRS)


def unpack_llr_words(stream: PackedWordStream, count: int | None = None) -> np.ndarray:
    if stream.kind != KIND_LLRS:
        raise FormatError(f"expected llr words, got {stream.kind}")
    # a bytearray keeps the returned LLRs writable, as a fresh array would be
    raw = np.frombuffer(bytearray(stream.to_bytes()), dtype=np.int8)
    if count is not None:
        if count < 0:
            raise FormatError("negative count")
        if count > raw.size:
            raise FormatError("count exceeds stream capacity")
        if raw[count:].any():
            raise FormatError("padding after the last LLR is not zero")
        raw = raw[:count]
    if raw.size and int(np.abs(raw.astype(np.int16)).max()) > LLR_RAW_MAX:
        raise FormatError("byte is not a sign-extended 6-bit LLR")
    return raw


def pack_bit_words(bits: np.ndarray) -> PackedWordStream:
    """Bit i lands in bit (i mod 32) of word (i div 32), LSB-first."""
    packed = np.packbits(as_bits(bits), bitorder="little").tobytes()
    return PackedWordStream.from_bytes(packed + bytes(-len(packed) % 4), KIND_RAW_BITS)


def unpack_bit_words(stream: PackedWordStream, count: int) -> np.ndarray:
    if stream.kind != KIND_RAW_BITS:
        raise FormatError(f"expected raw bit words, got {stream.kind}")
    if count < 0:
        raise FormatError("negative count")
    if count > 32 * len(stream.words):
        raise FormatError("count exceeds stream capacity")
    return np.unpackbits(np.frombuffer(stream.to_bytes(), dtype=np.uint8),
                         count=count, bitorder="little")
