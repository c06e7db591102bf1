"""Chain configuration: one flat key=value file drives every subcommand."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from ..errors import ConfigError
from ..ldpc import (LiftedLdpcCode, _p0_shifts, as_int, build_code, choose_base_graph,
                    select_lifting)
from ..llr import DemapperParams, as_q_m
from ..rate_adapt import POOL_SLOTS, RateMatchConfig, _Selection, _selection
from ..scramble import ScramblingIdentity

DEFAULT_CONFIG_NAME = "default"


def _as_real(value, name: str) -> float:
    """``value`` as a float; ConfigError unless it is a real number, not a bool.

    An integer beyond a float's range reads as an infinity.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        schedule = self.rv_schedule
        if isinstance(schedule, np.ndarray) and schedule.ndim == 1:
            schedule = tuple(schedule)
        if not isinstance(schedule, (list, tuple)):
            raise ConfigError("rv schedule must be a list, tuple or 1-D array of integers, "
                              f"not {schedule!r}")
        if not schedule:
            raise ConfigError("rv schedule must be nonempty")
        try:
            normal = {
                "rv_schedule": tuple(as_int(rv, "every rv", 0, 4) for rv in schedule),
                "k_prime": as_int(self.k_prime, "k_prime", 1),
                "blocks": as_int(self.blocks, "blocks", 1),
                "e_r": as_int(self.e_r, "E_r", 1),
                "harq_process": as_int(self.harq_process, "harq_process", 0, POOL_SLOTS),
                "seed": as_int(self.seed, "seed", 0),
            }
            identity = ScramblingIdentity(rnti=self.rnti, q=self.q, cell_id=self.cell_id)
            normal.update(rnti=identity.rnti, q=identity.q, cell_id=identity.cell_id,
                          q_m=as_q_m(self.q_m))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # every field is stored as checked, so a list, NumPy scalars or an array
        # compare and hash as the plain values do
        for name, value in normal.items():
            object.__setattr__(self, name, value)
        if self.e_r % self.q_m:
            raise ConfigError("E_r must be a multiple of Q_m")
        object.__setattr__(self, "snr_db", _as_real(self.snr_db, "snr_db"))
        if not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite")
        try:
            self.sigma2
        except OverflowError:  # below about -3082 dB
            raise ConfigError("snr_db is so low that its noise variance overflows") from None
        object.__setattr__(self, "target_rate", _as_real(self.target_rate, "target_rate"))
        if not (math.isfinite(self.target_rate) and 0 < self.target_rate <= 1):
            raise ConfigError("target_rate must be in (0, 1]")
        bg = choose_base_graph(self.k_prime, self.target_rate)
        Zc, _, _, filler = select_lifting(bg, self.k_prime)  # ConfigError for a K' bg cannot carry
        code = build_code(bg, Zc)
        _p0_shifts(bg, Zc)  # the encoder's inverse, once: ConfigError for a singular core
        layouts = []
        for rv in self.rv_schedule:
            rm_cfg = RateMatchConfig(E_r=self.e_r, rv=rv, Q_m=self.q_m)
            layouts.append((rm_cfg, _selection(bg, Zc, rm_cfg.rv, filler, rm_cfg.E_r)))
        plan = TransmissionPlan(code, filler, tuple(layouts),
                                DemapperParams.for_noise(self.q_m, self.sigma2))
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
