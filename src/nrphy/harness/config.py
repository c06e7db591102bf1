"""Chain configuration: one flat key=value file drives every subcommand."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError
from ..ldpc import LiftedLdpcCode, as_int, build_code, choose_base_graph, select_lifting
from ..llr import DemapperParams, as_q_m
from ..rate_adapt import POOL_SLOTS, RateMatchConfig, _Selection, _selection
from ..scramble import ScramblingIdentity

DEFAULT_CONFIG_NAME = "default"


@dataclass(frozen=True)
class TransmissionPlan:
    """What a configuration fixes for every chain call, derived and checked once."""

    code: LiftedLdpcCode
    filler_count: int
    layouts: tuple[tuple[RateMatchConfig, _Selection], ...]  # one per rv_schedule entry
    demapper: DemapperParams

    def layout(self, rv_round: int) -> tuple[RateMatchConfig, _Selection]:
        """Round ``rv_round``'s layout; ValueError unless it is an integer >= 0."""
        return self.layouts[as_int(rv_round, "rv_round", 0) % len(self.layouts)]


@dataclass(frozen=True)
class ChainConfig:
    """Per-run parameters for the encode/decode chain and simulators.

    The defaults are the benchmark operating point: one 8448-bit block,
    rate 2/3, QPSK, 12672 rate-matched bits, 10 dB Es/N0.
    """

    k_prime: int = 8448
    target_rate: float = 2 / 3
    e_r: int = 12672
    q_m: int = 2
    rv_schedule: tuple[int, ...] = (0, 2, 3, 1)
    rnti: int = 42
    q: int = 0
    cell_id: int = 1
    harq_process: int = 0
    blocks: int = 1
    snr_db: float = 10.0
    seed: int = 2025

    def __post_init__(self):
        if not self.rv_schedule:
            raise ConfigError("rv schedule must be nonempty")
        try:
            rv_schedule = tuple(as_int(rv, "every rv", 0, 4) for rv in self.rv_schedule)
            as_int(self.k_prime, "k_prime", 1)
            as_int(self.blocks, "blocks", 1)
            as_int(self.e_r, "E_r", 1)
            as_int(self.harq_process, "harq_process", 0, POOL_SLOTS)
            as_int(self.seed, "seed", 0)
            identity = ScramblingIdentity(rnti=self.rnti, q=self.q, cell_id=self.cell_id)
            as_q_m(self.q_m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.e_r % self.q_m:
            raise ConfigError("E_r must be a multiple of Q_m")
        if not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite")
        try:
            self.sigma2
        except OverflowError:  # below about -3082 dB
            raise ConfigError("snr_db is so low that its noise variance overflows") from None
        if not (math.isfinite(self.target_rate) and 0 < self.target_rate <= 1):
            raise ConfigError("target_rate must be in (0, 1]")
        bg = choose_base_graph(self.k_prime, self.target_rate)
        Zc, _, _, filler = select_lifting(bg, self.k_prime)  # ConfigError for a K' bg cannot carry
        code = build_code(bg, Zc)
        layouts = []
        for rv in rv_schedule:
            rm_cfg = RateMatchConfig(E_r=self.e_r, rv=rv, Q_m=self.q_m)
            layouts.append((rm_cfg, _selection(bg, Zc, rm_cfg.rv, filler, rm_cfg.E_r)))
        plan = TransmissionPlan(code, filler, tuple(layouts),
                                DemapperParams.for_noise(self.q_m, self.sigma2))
        # stored as a tuple of ints, so a list or NumPy entries compare and hash as one
        object.__setattr__(self, "rv_schedule", rv_schedule)
        # derived, not fields: equality, hash and echo() ignore them
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "plan", plan)

    @property
    def G(self) -> int:
        """Total rate-matched bits across all blocks."""
        return self.e_r * self.blocks

    @property
    def sigma2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    def code(self) -> tuple[LiftedLdpcCode, int]:
        """The lifted code and filler count this configuration selects."""
        return self.plan.code, self.plan.filler_count

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rv_schedule"] = ",".join(str(r) for r in self.rv_schedule)
        out["G"] = self.G
        return out


_PARSERS = {
    **dict.fromkeys(("k_prime", "e_r", "q_m", "rnti", "q", "cell_id",
                     "harq_process", "blocks", "seed"), int),
    "target_rate": float,
    "snr_db": float,
    "rv_schedule": lambda val: tuple(int(v) for v in val.split(",")),
}


def parse_config_text(text: str) -> ChainConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    try:
        return ChainConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ChainConfig:
    """Read a config file; the name ``default`` selects the defaults."""
    if path == DEFAULT_CONFIG_NAME:
        return ChainConfig()
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def with_overrides(cfg: ChainConfig, **overrides) -> ChainConfig:
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg
