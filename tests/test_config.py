"""The configuration's transmission plan and its errors."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nrphy.errors import ConfigError
from nrphy.harness import ChainConfig
from nrphy.harness.config import load_config, parse_config_text
from nrphy.ldpc import build_code, choose_base_graph, select_lifting
from nrphy.llr import DemapperParams
from nrphy.rate_adapt import RateMatchConfig, _selection
from test_chain import HARQ_POINT

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402


def plan_configs():
    """Every committed config file, perfbench's workload configs and HARQ_POINT, by name."""
    cfgs = {path.name: load_config(str(path)) for path in sorted((ROOT / "configs").glob("*.cfg"))}
    cfgs.update((name, wl.cfg) for name, wl in WORKLOADS.items())
    cfgs["HARQ_POINT"] = ChainConfig(**HARQ_POINT)
    return cfgs


class TestTransmissionPlan:
    """The plan holds what the chain derived on every call, derived once."""

    @pytest.mark.parametrize("name", list(plan_configs()))
    def test_plan_equals_a_fresh_derivation(self, name):
        cfg = plan_configs()[name]
        bg = choose_base_graph(cfg.k_prime, cfg.target_rate)
        Zc, _, _, filler = select_lifting(bg, cfg.k_prime)
        assert cfg.code() == (build_code(bg, Zc), filler)
        assert (cfg.plan.code, cfg.plan.filler_count) == cfg.code()
        assert len(cfg.plan.layouts) == len(cfg.rv_schedule)
        for rv, (rm_cfg, selection) in zip(cfg.rv_schedule, cfg.plan.layouts):
            assert rm_cfg == RateMatchConfig(E_r=cfg.e_r, rv=rv, Q_m=cfg.q_m)
            fresh = _selection.__wrapped__(bg, Zc, rv, filler, cfg.e_r)  # past the cache
            assert selection.pieces == fresh.pieces
            assert np.array_equal(selection.table, fresh.table)
            assert selection.address == selection.table.ctypes.data
        assert cfg.plan.demapper == DemapperParams.for_noise(cfg.q_m, cfg.sigma2)

    def test_rounds_cycle_through_the_schedule(self):
        cfg = ChainConfig(**HARQ_POINT)
        for rv_round in range(2 * len(cfg.rv_schedule)):
            rm_cfg, _ = cfg.plan.layout(rv_round)
            assert rm_cfg.rv == cfg.rv_schedule[rv_round % len(cfg.rv_schedule)]

    def test_replace_rebuilds_the_demapper(self):
        cfg = ChainConfig(**HARQ_POINT)
        louder = replace(cfg, snr_db=10.0)
        assert louder.plan.demapper == DemapperParams.for_noise(cfg.q_m, louder.sigma2)
        assert louder.plan.demapper != cfg.plan.demapper
        assert cfg.plan.demapper == DemapperParams.for_noise(cfg.q_m, cfg.sigma2)

    def test_equality_hash_and_echo_ignore_the_plan(self):
        a, b = ChainConfig(**HARQ_POINT), ChainConfig(**HARQ_POINT)
        object.__setattr__(b, "plan", None)
        assert a == b and hash(a) == hash(b)
        assert a.echo() == b.echo()
        assert "plan" not in a.echo()


# Every ConfigError a configuration raised before it held a plan, with its message:
# one bad value each, then several, where the first check to fire names the error.
CONFIG_ERRORS = [
    ("q_m = 3", "Q_m must be one of (2, 4, 6, 8), not 3"),
    ("q_m = 0", "Q_m must be >= 2"),
    ("rv_schedule = 0,5", "every rv must be in [0, 4)"),
    ("rv_schedule = -1", "every rv must be in [0, 4)"),
    ("harq_process = 16", "harq_process must be in [0, 16)"),
    ("harq_process = -1", "harq_process must be in [0, 16)"),
    ("k_prime = 0", "k_prime must be >= 1"),
    ("k_prime = 3", "K'=3 would put filler bits in the punctured first 2Zc=4 bits"),
    ("k_prime = 8449", "K'=8449 exceeds BG1 maximum 8448"),
    ("k_prime = 8448\ntarget_rate = 0.2", "K'=8448 exceeds BG2 maximum 3840"),
    ("e_r = 0", "E_r must be >= 1"),
    ("e_r = -2", "E_r must be >= 1"),
    ("e_r = 7\nq_m = 2", "E_r must be a multiple of Q_m"),
    ("rnti = 65536", "rnti must be in [0, 65536)"),
    ("q = 2", "codeword index q must be in [0, 2)"),
    ("cell_id = 1008", "cell_id must be in [0, 1008)"),
    ("snr_db = nan", "snr_db must be finite"),
    ("snr_db = -inf", "snr_db must be finite"),
    ("snr_db = -4000", "snr_db is so low that its noise variance overflows"),
    ("target_rate = nan", "target_rate must be in (0, 1]"),
    ("target_rate = 5", "target_rate must be in (0, 1]"),
    ("target_rate = 0", "target_rate must be in (0, 1]"),
    ("target_rate = -1", "target_rate must be in (0, 1]"),
    ("seed = -1", "seed must be >= 0"),
    ("k_prime = 3\ntarget_rate = 0", "target_rate must be in (0, 1]"),
    ("k_prime = 8449\nsnr_db = nan", "snr_db must be finite"),
    ("k_prime = 3\nsnr_db = -4000", "snr_db is so low that its noise variance overflows"),
    ("k_prime = 8449\ne_r = 7\nq_m = 2", "E_r must be a multiple of Q_m"),
    ("k_prime = 8448\ntarget_rate = 0.2\ne_r = 7\nq_m = 2", "E_r must be a multiple of Q_m"),
    ("e_r = 7\nq_m = 3", "Q_m must be one of (2, 4, 6, 8), not 3"),
    ("k_prime = 3\nseed = -1", "seed must be >= 0"),
    ("rv_schedule = 5\nk_prime = 0", "every rv must be in [0, 4)"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("text, message", CONFIG_ERRORS, ids=[t for t, _ in CONFIG_ERRORS])
    def test_bad_value_raises_its_config_error(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert type(exc.value) is ConfigError and str(exc.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"q_m": 2.0}, "Q_m must be an integer, not 2.0"),
        ({"rv_schedule": (0, 2.0)}, "every rv must be an integer, not 2.0"),
        ({"rv_schedule": ()}, "rv schedule must be nonempty"),
    ], ids=repr)
    def test_non_integer_or_empty_field_raises_its_config_error(self, fields, message):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(**fields)
        assert type(exc.value) is ConfigError and str(exc.value) == message

    @pytest.mark.parametrize("schedule", [[0, 2], (np.int64(0), 2), [np.uint8(0), np.int32(2)]],
                             ids=repr)
    def test_rv_schedule_is_stored_as_a_tuple_of_ints(self, schedule):
        cfg, expect = ChainConfig(rv_schedule=schedule), ChainConfig(rv_schedule=(0, 2))
        assert type(cfg.rv_schedule) is tuple
        assert [type(rv) for rv in cfg.rv_schedule] == [int, int]
        assert cfg == expect and hash(cfg) == hash(expect) and cfg.echo() == expect.echo()

    def test_base_graph_without_parity_structure_raises_config_error(self, bad_parity_tables):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(**HARQ_POINT)  # BG2
        assert type(exc.value) is ConfigError and "parity structure" in str(exc.value)
        with pytest.raises(ConfigError, match="target_rate"):  # checked before the code
            ChainConfig(**{**HARQ_POINT, "target_rate": 0.0})
