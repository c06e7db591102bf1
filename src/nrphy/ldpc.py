"""Quasi-cyclic LDPC codes for the 5G NR shared channel.

Base graphs BG1/BG2 are stored as data files of (row, column, shift-per-set)
records and expanded ("lifted") by a lifting size Zc into the working
parity-check structure. Encoder, parity check and decoder read that
structure through one table of lifted row indices. The encoder solves the
first core parity block from the sum of the four core rows, then every
other parity block from the one row in which it is the last unknown. The
decoder is a row-layered offset min-sum with saturating 8-bit fixed-point
messages (2 fractional bits, so the 0.5 offset is exactly two LSBs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigError

# Table of valid lifting sizes, one tuple per lifting set index.
LIFTING_SETS = (
    (2, 4, 8, 16, 32, 64, 128, 256),
    (3, 6, 12, 24, 48, 96, 192, 384),
    (5, 10, 20, 40, 80, 160, 320),
    (7, 14, 28, 56, 112, 224),
    (9, 18, 36, 72, 144, 288),
    (11, 22, 44, 88, 176, 352),
    (13, 26, 52, 104, 208),
    (15, 30, 60, 120, 240),
)

DATA_DIR_ENV = "NRPHY_DATA_DIR"

MAX_ITERATIONS = 8
OFFSET_RAW = 2  # the 0.5 min-sum offset in quarter-LLR units

# Internal decoder precision: 8-bit signed, 2 fractional bits, symmetric.
DECODER_LLR_MAX = 127


class BaseGraphId(Enum):
    BG1 = 1
    BG2 = 2


# (systematic columns, total rows, total columns) per base graph.
_BG_SHAPE = {BaseGraphId.BG1: (22, 46, 68), BaseGraphId.BG2: (10, 42, 52)}
_BG_MAX_K = {BaseGraphId.BG1: 8448, BaseGraphId.BG2: 3840}
_BG_FILE = {BaseGraphId.BG1: "bg1.txt", BaseGraphId.BG2: "bg2.txt"}


class TerminationReason(Enum):
    PARITY_SATISFIED = "parity_satisfied"
    DECISIONS_STABLE = "decisions_stable"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LiftedLdpcCode:
    """A base graph lifted by Zc, plus the derived bit counts.

    ``rows`` holds one tuple per base-graph row; each entry is a
    (base_column, shift) pair with the shift already reduced mod Zc. The
    lifted row t of base row r checks bit ``col*Zc + (t + shift) % Zc`` for
    every entry.
    """

    bg: BaseGraphId
    Zc: int
    K: int
    N_cb: int
    N_full: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def systematic_cols(self) -> int:
        return self.K // self.Zc


@dataclass(frozen=True)
class InfoBlock:
    """K information bits whose trailing ``filler_count`` bits are zero pad."""

    bits: np.ndarray
    filler_count: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if self.filler_count < 0:
            raise ConfigError("negative filler count")
        if self.filler_count and bits[-self.filler_count:].any():
            raise ValueError("filler bits must be zero")


@dataclass(frozen=True)
class Codeword:
    bits: np.ndarray
    code: LiftedLdpcCode


@dataclass(frozen=True)
class DecodeResult:
    hard_bits: np.ndarray
    iterations_used: int
    termination_reason: TerminationReason

    @property
    def parity_ok(self) -> bool:
        return self.termination_reason is TerminationReason.PARITY_SATISFIED


def choose_base_graph(payload_length: int, target_rate: float) -> BaseGraphId:
    """Pick BG2 for short blocks / low rates, BG1 otherwise."""
    if payload_length < 1:
        raise ConfigError("payload_length must be >= 1")
    if payload_length <= 292:
        return BaseGraphId.BG2
    if payload_length <= 3824 and target_rate <= 0.67:
        return BaseGraphId.BG2
    if target_rate <= 0.25:
        return BaseGraphId.BG2
    return BaseGraphId.BG1


def lifting_set_index(Zc: int) -> int:
    for i, zs in enumerate(LIFTING_SETS):
        if Zc in zs:
            return i
    raise ConfigError(f"invalid lifting size {Zc}")


def select_lifting(bg: BaseGraphId, k_prime: int) -> tuple[int, int, int, int]:
    """Smallest valid Zc with K >= K'; returns (Zc, set_index, K, F)."""
    if k_prime < 1:
        raise ConfigError("K' must be >= 1")
    if k_prime > _BG_MAX_K[bg]:
        raise ConfigError(f"K'={k_prime} exceeds {bg.name} maximum {_BG_MAX_K[bg]}")
    kb = _BG_SHAPE[bg][0]
    best = None
    for i, zs in enumerate(LIFTING_SETS):
        for z in zs:
            if kb * z >= k_prime and (best is None or z < best[0]):
                best = (z, i)
    Zc, set_index = best
    if k_prime < 2 * Zc:
        raise ConfigError(f"K'={k_prime} would put filler bits in the punctured "
                          f"first 2Zc={2 * Zc} bits")
    K = kb * Zc
    return Zc, set_index, K, K - k_prime


@lru_cache(maxsize=None)
def _base_table(bg: BaseGraphId) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Parse the (row, col, shifts-per-set) records for a base graph."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        text = open(os.path.join(override, _BG_FILE[bg])).read()
    else:
        text = (resources.files("nrphy") / "data" / _BG_FILE[bg]).read_text()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(p) for p in line.split()]
        if len(parts) != 2 + len(LIFTING_SETS):
            raise ConfigError(f"malformed base-graph record: {line!r}")
        records.append((parts[0], parts[1], tuple(parts[2:])))
    return tuple(records)


@lru_cache(maxsize=None)
def build_code(bg: BaseGraphId, Zc: int) -> LiftedLdpcCode:
    """Expand a base graph into the concrete code for lifting size Zc."""
    set_index = lifting_set_index(Zc)
    kb, n_rows, n_cols = _BG_SHAPE[bg]
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for r, c, shifts in _base_table(bg):
        rows[r].append((c, shifts[set_index] % Zc))
    return LiftedLdpcCode(
        bg=bg,
        Zc=Zc,
        K=kb * Zc,
        N_cb=(n_cols - 2) * Zc,
        N_full=n_cols * Zc,
        rows=tuple(tuple(sorted(row)) for row in rows),
    )


@lru_cache(maxsize=None)
def _row_gather(bg: BaseGraphId, Zc: int) -> tuple[np.ndarray, ...]:
    """Per base row: read-only (degree, Zc) matrix of lifted bit indices.

    Entry e of lifted row t is ``c*Zc + (t + s) % Zc`` for the row's e-th
    (column, shift) pair, so ``bits[idx]`` lines up every bit that one
    lifted check reads and an XOR over axis 0 is that row's syndrome.
    """
    code = build_code(bg, Zc)
    t = np.arange(Zc)
    out = []
    for row in code.rows:
        idx = np.array([c * Zc + (t + s) % Zc for c, s in row], dtype=np.int64)
        idx.flags.writeable = False
        out.append(idx)
    return tuple(out)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _vec_to_poly(v: np.ndarray) -> int:
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


def _poly_to_vec(p: int, n: int) -> np.ndarray:
    raw = np.frombuffer(p.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=n)


def _poly_mod_mul(a: int, b: int, n: int) -> int:
    """Carry-less multiply of GF(2) polynomials, reduced mod x^n + 1."""
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    # fold degrees >= n back down (x^n == 1)
    while acc >> n:
        acc = (acc & ((1 << n) - 1)) ^ (acc >> n)
    return acc


def _poly_inv(a: int, n: int) -> int:
    """Inverse of a mod x^n + 1 over GF(2) via extended Euclid."""
    mod = (1 << n) | 1
    r0, r1 = mod, a
    t0, t1 = 0, 1
    while r1:
        d = r0.bit_length() - r1.bit_length()
        if d < 0:
            r0, r1, t0, t1 = r1, r0, t1, t0
            continue
        r0 ^= r1 << d
        t0 ^= t1 << d
    if r0 != 1:
        raise ConfigError("parity core is not invertible for this lifting size")
    while t0 >> n:
        t0 = (t0 & ((1 << n) - 1)) ^ (t0 >> n)
    return t0


def _solve_rotation_sum(shifts: list[int], rhs: np.ndarray, Zc: int) -> np.ndarray:
    """Solve sum_k rot(p, shifts[k]) = rhs for p, where rot(v, s)[t] = v[(t+s) % Zc]."""
    # XOR-cancel repeated shifts; a single survivor is a plain rotation.
    counts: dict[int, int] = {}
    for s in shifts:
        counts[s] = counts.get(s, 0) + 1
    odd = [s for s, c in counts.items() if c % 2]
    if len(odd) == 1:
        return np.roll(rhs, odd[0])
    # General case: multiply by the inverse circulant polynomial.
    m = 0
    for s in odd:
        m ^= 1 << ((Zc - s) % Zc)
    inv = _poly_inv(m, Zc)
    return _poly_to_vec(_poly_mod_mul(inv, _vec_to_poly(rhs), Zc), Zc).astype(np.uint8)


def ldpc_encode(code: LiftedLdpcCode, info: InfoBlock) -> Codeword:
    """Systematic encode; parity solved from the double-diagonal core."""
    bits = np.asarray(info.bits, dtype=np.uint8)
    if bits.shape != (code.K,):
        raise ValueError(f"info length {bits.shape} != K={code.K}")
    Zc = code.Zc
    kb = code.systematic_cols
    gather = _row_gather(code.bg, Zc)
    x = np.zeros(code.N_full, dtype=np.uint8)
    x[: code.K] = bits

    # Unsolved parity bits are still zero, so a row's XOR is its
    # information-part syndrome. Summing the four core rows cancels every
    # parity column except the first one, leaving a pure rotation (or, for
    # some lifting sizes, a small circulant) in p0.
    p0_shifts = [s for row in code.rows[:4] for c, s in row if c == kb]
    core_syndrome = np.bitwise_xor.reduce(x[np.concatenate(gather[:4])], axis=0)
    x[kb * Zc:(kb + 1) * Zc] = _solve_rotation_sum(p0_shifts, core_syndrome, Zc)

    # In base-graph order each row meets at most one unsolved column (the
    # rest of the core, then one extension column per row), and that
    # column's bits are the XOR of the row's other bits.
    solved = set(range(kb + 1))
    for row, idx in zip(code.rows, gather):
        unsolved = [e for e, (c, _) in enumerate(row) if c not in solved]
        if len(unsolved) > 1:
            raise ConfigError("unsupported parity core structure")
        if unsolved:
            x[idx[unsolved[0]]] = np.bitwise_xor.reduce(x[idx], axis=0)
            solved.add(row[unsolved[0]][0])

    return Codeword(bits=x, code=code)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def parity_check(code: LiftedLdpcCode, bits: np.ndarray) -> bool:
    """True iff every lifted parity row XORs to zero."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (code.N_full,):
        raise ValueError(f"expected {code.N_full} bits")
    for idx in _row_gather(code.bg, code.Zc):
        if (np.bitwise_xor.reduce(bits[idx], axis=0)).any():
            return False
    return True


def _min_sum_messages(q: np.ndarray) -> np.ndarray:
    """Offset min-sum check update on a (degree, n) int16 block of messages."""
    mag = np.abs(q)
    min1, min2 = np.sort(mag, axis=0)[:2]
    # Every edge but the minimum one sees min1; when the minimum is tied,
    # min2 == min1, so comparing values is exact.
    out_mag = np.maximum(np.where(mag == min1, min2, min1) - OFFSET_RAW, 0)
    neg = q < 0
    sign_flip = np.logical_xor.reduce(neg, axis=0) ^ neg
    return np.where(sign_flip, -out_mag, out_mag)


def check_node_update(llrs: np.ndarray) -> np.ndarray:
    """Extrinsic min-sum messages for one check node.

    Edge i gets magnitude max(0, min_{j != i} |llr_j| - 0.5) and the
    product of the other edges' signs. Inputs and outputs are raw SoftLlr
    integers (quarter-LLR units).
    """
    raw = np.asarray(llrs, dtype=np.int16)
    if raw.size < 2:
        raise ValueError("check node needs at least 2 edges")
    return _min_sum_messages(raw[:, None])[:, 0].astype(np.int8)


def ldpc_decode(code: LiftedLdpcCode, channel_llrs: np.ndarray) -> DecodeResult:
    """Row-layered offset min-sum decode of one codeword, at most MAX_ITERATIONS.

    ``channel_llrs`` are raw SoftLlr values (positive favors bit 1). The
    working messages are kept in the opposite orientation so the classic
    sign-product rule applies; they saturate at +/-127 (8-bit signed, 2
    fractional bits). A zero posterior is decided as bit 1, so an all-zero
    input does not pass off as the all-zero codeword.
    """
    llr = np.asarray(channel_llrs)
    if llr.shape != (code.N_full,):
        raise ValueError(f"expected {code.N_full} LLRs")
    gather = _row_gather(code.bg, code.Zc)

    post = -llr.astype(np.int16)  # internal orientation: positive favors bit 0
    msgs = [np.zeros(idx.shape, dtype=np.int16) for idx in gather]
    hard_prev = None
    for it in range(1, MAX_ITERATIONS + 1):
        for i, idx in enumerate(gather):
            q = np.clip(post[idx] - msgs[i], -DECODER_LLR_MAX, DECODER_LLR_MAX)
            msgs[i] = _min_sum_messages(q)
            post[idx] = np.clip(q + msgs[i], -DECODER_LLR_MAX, DECODER_LLR_MAX)
        hard = (post <= 0).astype(np.uint8)
        if parity_check(code, hard):
            reason = TerminationReason.PARITY_SATISFIED
            break
        if hard_prev is not None and np.array_equal(hard, hard_prev):
            reason = TerminationReason.DECISIONS_STABLE
            break
        hard_prev = hard
    else:
        reason = TerminationReason.MAX_ITERATIONS

    return DecodeResult(hard_bits=hard[: code.K], iterations_used=it,
                        termination_reason=reason)
