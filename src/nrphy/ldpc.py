"""Quasi-cyclic LDPC codes for the 5G NR shared channel.

Base graphs BG1/BG2 are stored as data files of (row, column, shift-per-set)
records and expanded ("lifted") by a lifting size Zc into the working
parity-check structure. Every XOR over the code's edges in NumPy reads
one table of window offsets (``_check_windows``) into a buffer that holds
each column block twice over (``_doubled``), so an edge is its column
block rotated by its shift, as on a circulant-shift datapath. The parity
check is one such XOR. The encoder solves the first core parity block
from the sum of the four core rows through the inverse circulant's
shifts (``_p0_shifts``), the next three from core rows 0-2, then every
extension parity block. Where the compiled kernel of ``_native`` can be
built, that is one call into it, which reads the decoder's edge table
(``_layers``, below) and XORs each edge's rotated column block into the
block its row solves. Otherwise the encoder fills the buffer once,
reading the core rows at their full degree and the extension rows only
up to theirs, and solves every extension block at once; that path is
also the kernel's oracle in the tests. The decoder is a
row-layered offset min-sum with saturating 8-bit fixed-point messages (2
fractional bits, so the 0.5 offset is exactly two LSBs) that updates
consecutive rows sharing no column as one block. The decoder keeps one
table per code (``_layers``): each edge's (column-block start, shift)
pair, layer by layer. Where the compiled kernel of ``_native`` can be
built, a code block's whole decode is one call into it, which reads that
table: every iteration's layers read and write each edge's rotated column
block as its two contiguous runs, in 16-bit saturating lanes, a layer of
never-sent extension rows runs a read-only step that writes only their
own parity blocks, and the parity check XORs the same rotated blocks of
the hard decisions, as the kernel encoder XORs those of the codeword:
the check ``parity_check`` makes. Otherwise the decode expands the table
into element indices (``_element_indices``), each layer gathers through
them and runs the min-sum as defined (``_min_sum``), and ``parity_check``
ends the decode; that path is also the kernel's oracle in the tests.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from . import _native
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

# Channel SoftLlr range: raw integers in quarter-LLR units.
LLR_RAW_MAX = 31
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

    @cached_property
    def extension_degree(self) -> int:
        """Largest degree of the extension rows (4 on), below the core rows' degree."""
        return max(map(len, self.rows[4:]))


def as_bits(values) -> np.ndarray:
    """``values`` as a 1-D uint8 array; ValueError if any value is not 0 or 1."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"bits must be 1-D, not {values.ndim}-D")
    bits = values.astype(np.uint8, copy=False)
    cast_exactly = bits is values or np.array_equal(bits, values)
    if not cast_exactly or (bits.size and bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    return bits


def as_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is an int or NumPy integer,
    not a bool, in [lo, hi), or >= lo where ``hi`` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < lo or (hi is not None and value >= hi):
        raise ValueError(f"{name} must be >= {lo}" if hi is None else
                         f"{name} must be in [{lo}, {hi})")
    return int(value)


def as_softllr(values) -> np.ndarray:
    """``values`` as a 1-D int8 array; ValueError unless they are integers in [-31, 31]."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"SoftLlrs must be 1-D, not {values.ndim}-D")
    if values.dtype.kind not in "iu" or (values.size and not (
            -LLR_RAW_MAX <= values.min() and values.max() <= LLR_RAW_MAX)):
        raise ValueError(f"SoftLlrs must be integers in [-{LLR_RAW_MAX}, {LLR_RAW_MAX}]")
    return values.astype(np.int8, copy=False)


def as_filler_count(code: LiftedLdpcCode, count) -> int:
    """``count`` as a filler count of ``code``: the one filler check.

    ValueError unless it is an integer in [0, K - 2Zc], the range
    ``select_lifting`` gives: more fillers would reach into the punctured head.
    """
    return as_int(count, "filler count", 0, code.K - 2 * code.Zc + 1)


@dataclass(frozen=True)
class InfoBlock:
    """K information bits whose trailing ``filler_count`` bits are zero pad."""

    bits: np.ndarray
    filler_count: int

    def __post_init__(self):
        bits = as_bits(self.bits)
        object.__setattr__(self, "bits", bits)
        count = as_int(self.filler_count, "filler_count", 0, bits.size + 1)
        object.__setattr__(self, "filler_count", count)
        if count and bits[-count:].any():
            raise ValueError("filler bits must be zero")


@dataclass(frozen=True)
class Codeword:
    """N_full code bits and the filler count of the InfoBlock they encode."""

    bits: np.ndarray
    code: LiftedLdpcCode
    filler_count: int


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
    """Expand a base graph into the concrete code for lifting size Zc.

    Checks the parity structure ``ldpc_encode`` solves (3GPP TS 38.212
    5.3.2): core rows 0-2 each end in the next core parity block at shift
    0, row 3 reads no block past the core, and extension row r reads
    exactly one block past the core, its own block kb+r, at shift 0.
    """
    set_index = lifting_set_index(Zc)
    kb, n_rows, n_cols = _BG_SHAPE[bg]
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for r, c, shifts in _base_table(bg):
        rows[r].append((c, shifts[set_index] % Zc))
    for r, row in enumerate(rows):
        row.sort()
        # blocks not solved before row r: past p0..p_r in the core, past the core after it
        unsolved = [e for e in row if e[0] > kb + min(r, 3)]
        if unsolved != ([] if r == 3 else [(kb + r + (r < 3), 0)]):
            raise ConfigError(f"{bg.name} row {r} does not have the parity structure "
                              "of TS 38.212")
    return LiftedLdpcCode(
        bg=bg,
        Zc=Zc,
        K=kb * Zc,
        N_cb=(n_cols - 2) * Zc,
        N_full=n_cols * Zc,
        rows=tuple(map(tuple, rows)),
    )


def _doubled(code: LiftedLdpcCode, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The code's column blocks, each laid out twice, then a padding block.

    ``values`` fills the first blocks and the rest hold zeros. Returns
    that (blocks + 1, 2, Zc) buffer, of the dtype of ``values``, and its
    stride-1 view of every Zc-value window. The window at offset
    2*Zc*c + s is block c rotated left by s, which is what lifted row t of
    an edge (c, s) reads at position t, and the window at 2*Zc*blocks
    reads the padding.
    """
    Zc = code.Zc
    doubled = np.empty((code.N_full // Zc + 1, 2, Zc), dtype=values.dtype)
    doubled[:values.size // Zc] = values.reshape(-1, 1, Zc)
    doubled[values.size // Zc:] = 0
    step = doubled.itemsize
    windows = np.ndarray((doubled.size - Zc + 1, Zc), doubled.dtype, doubled,
                         strides=(step, step))
    return doubled, windows


@lru_cache(maxsize=None)
def _check_windows(bg: BaseGraphId, Zc: int) -> np.ndarray:
    """(max degree, rows) ``_doubled`` window offsets of every edge, row by row.

    Rows shorter than the longest are padded with the padding block's offset.
    """
    code = build_code(bg, Zc)
    # the padding block sits after N_full / Zc doubled blocks, at 2 * N_full
    starts = np.full((max(map(len, code.rows)), len(code.rows)), 2 * code.N_full,
                     dtype=np.intp)
    for r, row in enumerate(code.rows):
        for e, (c, s) in enumerate(row):
            starts[e, r] = 2 * Zc * c + s
    starts.flags.writeable = False
    return starts


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class _P0Shifts:
    """The inverse circulant's shifts, built by ``_p0_shifts``, and the kernel's view of them."""

    shifts: np.ndarray  # int32, read-only
    table: tuple[int, int]  # their address and count


@lru_cache(maxsize=None)
def _p0_shifts(bg: BaseGraphId, Zc: int) -> _P0Shifts:
    """The shifts of p0's syndrome whose rotations XOR to p0.

    The four core rows sum to sum_k rot(p0, s_k) = S, where S is their
    information-part syndrome and rot(v, s)[t] = v[(t + s) % Zc]. As a
    polynomial (bit t is the coefficient of x^t), rot(v, s) is x^(Zc-s) v
    mod x^Zc + 1, so p0 = inv * S with inv the inverse of sum_k x^(Zc-s_k),
    and each term x^a of inv is S rotated by (Zc - a) % Zc. The NumPy
    encoder reads these as ``_doubled`` windows of p0's block, at
    2*Zc*kb + shift.
    """
    code = build_code(bg, Zc)
    kb = code.systematic_cols
    m = 0
    for row in code.rows[:4]:
        for c, s in row:
            if c == kb:
                m ^= 1 << ((Zc - s) % Zc)
    inv = _poly_inv(m, Zc)
    shifts = np.array([(Zc - a) % Zc for a in range(Zc) if inv >> a & 1], dtype=np.int32)
    shifts.flags.writeable = False
    return _P0Shifts(shifts=shifts, table=(shifts.ctypes.data, shifts.size))


def ldpc_encode(code: LiftedLdpcCode, info: InfoBlock) -> Codeword:
    """Systematic encode; parity solved from the double-diagonal core.

    ValueError unless ``info`` holds K bits and at most K - 2Zc fillers
    (``as_filler_count``).

    Where the compiled kernel of ``_native`` can be built, the whole
    codeword is one call into it, which solves the same blocks in the same
    order from the decoder's edge table (``_layers``) and ``_p0_shifts``.
    """
    bits = info.bits
    if bits.shape != (code.K,):
        raise ValueError(f"info length {bits.shape} != K={code.K}")
    as_filler_count(code, info.filler_count)
    Zc = code.Zc
    kb = code.systematic_cols
    lib = _native.library()
    if lib is not None:
        cw = np.empty(code.N_full, dtype=np.uint8)
        cw[:code.K] = bits
        lib.encode(cw.ctypes.data, *_layers(code.bg, Zc).tables, *_p0_shifts(code.bg, Zc).table)
        return Codeword(cw, code, info.filler_count)

    checks = _check_windows(code.bg, Zc)
    doubled, windows = _doubled(code, bits)

    # Unsolved parity blocks are still zero, so a row's XOR is its syndrome
    # over the solved blocks. Each solved block goes into both copies of
    # its slot, so every later window reads it. Summing the four core rows
    # cancels every parity block but p0, which is solved from that sum in
    # its own slot.
    doubled[kb] = np.bitwise_xor.reduce(windows[checks[:, :4]], axis=(0, 1))
    p0 = 2 * Zc * kb + _p0_shifts(code.bg, Zc).shifts
    doubled[kb] = np.bitwise_xor.reduce(windows[p0], axis=0)
    # Core rows 0-2 each end in the next core parity block, unrotated.
    for r in range(3):
        doubled[kb + r + 1] = np.bitwise_xor.reduce(windows[checks[:, r]], axis=0)
    # Each extension row reads the core and its own, still zero, block.
    ext = checks[:code.extension_degree, 4:]
    doubled[kb + 4:-1] = np.bitwise_xor.reduce(windows[ext], axis=0)[:, None]
    return Codeword(doubled[:-1, 0].reshape(-1), code, info.filler_count)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def parity_check(code: LiftedLdpcCode, bits: np.ndarray) -> bool:
    """True iff every lifted parity row XORs to zero; ValueError unless bits are 0 or 1."""
    bits = as_bits(bits)
    if bits.shape != (code.N_full,):
        raise ValueError(f"expected {code.N_full} bits")
    _, windows = _doubled(code, bits)
    checks = _check_windows(code.bg, code.Zc)
    # the extension rows need not read the core rows' longer padding
    return not (np.bitwise_xor.reduce(windows[checks[:, :4]], axis=0).any()
                or np.bitwise_xor.reduce(windows[checks[:code.extension_degree, 4:]],
                                         axis=0).any())


@dataclass(frozen=True)
class _Layers:
    """The decoder's one table, built by ``_layers``: every layer's edges in layer order.

    ``shape[i]`` is layer i's (degree, lanes): its rows are the next
    lanes // Zc base rows, and lane ``j * Zc + t`` is lifted row t of its
    j-th row. ``edges`` holds each layer's (degree, rows, 2) table in turn:
    entry [e, j] is the (c * Zc, shift) pair of the j-th row's e-th edge,
    whose lane t reads bit c * Zc + (t + shift) % Zc. A row shorter than
    its layer is padded after its real edges with (-1, -1), which reads
    +127 in every iteration: the NumPy path keeps its messages at 0, so its
    shared sentinel stays +127, and the kernel loads +127 for each padding
    block and never reads its messages. No real |q| exceeds 127 and every row
    has at least two real edges, so padding can tie the two smallest |q|
    of a lane but never lower them, and being positive it never flips a
    sign. The kernel reads each edge's rotated column block as two runs,
    with messages sized from ``shape``, each layer's lanes rounded up to
    whole check-node chunks; the NumPy path expands the table into element
    indices (``_element_indices``).
    """

    edges: np.ndarray  # (edges, 2) int32
    shape: np.ndarray  # (layers, 2) int32
    tables: tuple[int, ...]  # the kernel's code arguments: edges, shape, layers, N_full, kb, Zc


@lru_cache(maxsize=None)
def _layers(bg: BaseGraphId, Zc: int) -> _Layers:
    """The decoder's layers: base rows grouped in order, each group column-disjoint.

    Rows that share no column read and write disjoint posteriors, so
    updating them side by side gives exactly what updating them one after
    the other gives (Hocevar, SiPS 2004). Only consecutive rows are merged:
    moving a row past one it shares a column with would change the result.
    """
    code = build_code(bg, Zc)
    groups: list[list[int]] = []
    seen: set[int] = set()
    for r, row in enumerate(code.rows):
        cols = {c for c, _ in row}
        if not groups or cols & seen:
            groups.append([])
            seen = set()
        groups[-1].append(r)
        seen |= cols

    per_layer, shape = [], []
    for rows in groups:
        degree = max(len(code.rows[r]) for r in rows)
        table = np.full((degree, len(rows), 2), -1, dtype=np.int32)
        for j, r in enumerate(rows):
            table[:len(code.rows[r]), j] = [(c * Zc, s) for c, s in code.rows[r]]
        per_layer.append(table.reshape(-1, 2))
        shape.append((degree, len(rows) * Zc))
    edges = np.concatenate(per_layer)
    shape = np.array(shape, dtype=np.int32)
    edges.flags.writeable = shape.flags.writeable = False
    return _Layers(edges=edges, shape=shape,
                   tables=(edges.ctypes.data, shape.ctypes.data, len(shape), code.N_full,
                           code.systematic_cols, Zc))


def _element_indices(code: LiftedLdpcCode) -> list[np.ndarray]:
    """Each layer's (degree, lanes) element indices, expanded from ``_layers``.

    Padding reads the +127 sentinel at index N_full.
    """
    layers = _layers(code.bg, code.Zc)
    start, shift = layers.edges.T[:, :, None]
    idx = np.where(start < 0, code.N_full, start + (np.arange(code.Zc) + shift) % code.Zc)
    ends = np.cumsum(layers.shape.prod(axis=1) // code.Zc)[:-1]
    return [block.reshape(degree, -1)
            for block, degree in zip(np.split(idx, ends), layers.shape[:, 0])]


_REASONS = tuple(TerminationReason)  # the reason of each non-negative kernel return code


def _min_sum(q: np.ndarray) -> np.ndarray:
    """Offset min-sum messages of a (degree, lanes) int16 block, from the definition.

    Each lane is one check node. An edge whose |q| is the lane's smallest
    gets the second smallest, every other edge the smallest; both are less
    the offset and floored at 0. Under a tie the two are equal, so every
    tied edge gets the same message. The sign bit of q ^ (XOR of the lane)
    is the parity of the other edges' signs.
    """
    mag = np.abs(q)
    min1, min2 = np.sort(mag, axis=0)[:2]
    out = np.maximum(np.where(mag == min1, min2, min1) - OFFSET_RAW, 0)
    return np.where((q ^ np.bitwise_xor.reduce(q, axis=0)) < 0, -out, out)


def check_node_update(llrs: np.ndarray) -> np.ndarray:
    """Extrinsic min-sum messages for one check node.

    Edge i gets magnitude max(0, min_{j != i} |llr_j| - 0.5) and the
    product of the other edges' signs. Inputs and outputs are raw integers
    in quarter-LLR units; inputs may span the decoder's int8 messages. A
    check node has 2 to 32 edges (base-graph rows have at most 19), and
    another count, a non-integer or a value outside int8 raises ValueError.
    """
    raw = np.asarray(llrs)
    if not 2 <= raw.size <= 32:
        raise ValueError("check node needs 2 to 32 edges")
    if raw.dtype.kind not in "iu" or not (-128 <= raw.min() and raw.max() <= 127):
        raise ValueError("check node LLRs must be integers in [-128, 127]")
    return _min_sum(raw.astype(np.int16)[:, None])[:, 0].astype(np.int8)


def ldpc_decode(code: LiftedLdpcCode, channel_llrs: np.ndarray) -> DecodeResult:
    """Row-layered offset min-sum decode of one codeword, at most MAX_ITERATIONS.

    ``channel_llrs`` are raw SoftLlr values: integers in [-31, 31], positive
    favoring bit 1; anything else raises ValueError. The working messages
    are kept in the opposite orientation so the classic sign-product rule
    applies; they saturate at +/-127 (8-bit signed, 2 fractional bits). A
    zero posterior is decided as bit 1, so an all-zero input does not pass
    off as the all-zero codeword. Base rows are updated in order,
    column-disjoint neighbours together (``_layers``), every layer in every
    iteration. The decode is one call into the compiled kernel
    (``_native``) where it can be built, which allocates its own working
    memory (MemoryError where it cannot) and leaves its messages unzeroed:
    in the first iteration, while every message is 0, q = post - 0 is the
    posterior itself, so it copies the posteriors and reads no message.
    Otherwise the decode runs the definition-level min-sum in NumPy
    (``_min_sum``) and ``parity_check``.

    The kernel gives the same result with less work on layers that are
    dead: each of their rows is an extension row r >= 4 whose own block
    kb + r, its last edge, at shift 0 and read by no other row
    (``build_code``), has all-zero LLRs, as rate matching leaves a block
    it never sent. That block's q is 0 in every lane and iteration, so
    the row sends 0 to its other edges, which keep their posteriors, and
    the block's posterior is its message alone: max(min |q| - 2, 0) over
    the other edges, with the XOR of their signs. A dead layer computes
    just that, at its place in layer order, and keeps no messages. It
    finds where the extension blocks start, (kb + 4) * Zc, and decides once
    per decode, from its input, which layers are dead; a layer with a
    live row, or a row whose block arrived in part, runs the full update.
    """
    llr = as_softllr(channel_llrs)
    if llr.shape != (code.N_full,):
        raise ValueError(f"expected {code.N_full} LLRs")

    lib = _native.library()
    if lib is not None:
        # the whole decode, termination included, is one call; as_softllr passes views through
        llr = np.ascontiguousarray(llr)
        hard = np.empty(code.N_full, dtype=np.uint8)
        iterations = ctypes.c_int()
        reason = lib.decode(llr.ctypes.data, hard.ctypes.data, *_layers(code.bg, code.Zc).tables,
                            MAX_ITERATIONS, ctypes.byref(iterations))
        if reason < 0:
            raise MemoryError("the decode kernel could not allocate its working memory")
        return DecodeResult(hard_bits=hard[: code.K], iterations_used=iterations.value,
                            termination_reason=_REASONS[reason])

    # internal orientation: positive favors bit 0; the last entry is the sentinel
    post = np.append(np.negative(llr, dtype=np.int16), np.int16(DECODER_LLR_MAX))
    indices = _element_indices(code)
    padding = [idx == code.N_full for idx in indices]
    msgs = [np.zeros(idx.shape, dtype=np.int16) for idx in indices]
    hard_prev = None
    for it in range(1, MAX_ITERATIONS + 1):
        for idx, pad, m in zip(indices, padding, msgs):
            q = np.clip(post[idx] - m, -DECODER_LLR_MAX, DECODER_LLR_MAX)
            m[...] = _min_sum(q)
            m[pad] = 0  # padding keeps the sentinel at +127
            post[idx] = np.clip(q + m, -DECODER_LLR_MAX, DECODER_LLR_MAX)
        hard = (post[:-1] <= 0).astype(np.uint8)
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
