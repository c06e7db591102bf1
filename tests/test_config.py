"""The configuration's transmission plan and its errors."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nrphy.errors import ConfigError
from nrphy.harness import ChainConfig, encode_chain
from nrphy.harness.config import load_config, parse_config_text
from nrphy.ldpc import _p0_shifts, build_code, choose_base_graph, select_lifting
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

    def test_the_encoders_inverse_is_derived_with_the_plan(self):
        _p0_shifts.cache_clear()
        cfg = ChainConfig(**HARQ_POINT)
        assert _p0_shifts.cache_info().misses == 1
        encode_chain(cfg, np.zeros(cfg.k_prime, dtype=np.uint8))
        assert _p0_shifts.cache_info().misses == 1

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

    @pytest.mark.parametrize("fields", [HARQ_POINT, dict(k_prime=192, target_rate=0.75, e_r=256),
                                        dict(k_prime=96, target_rate=0.5, e_r=256)], ids=repr)
    def test_base_graph_with_a_singular_core_raises_config_error(self, singular_core_tables,
                                                                fields):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(**fields)  # BG2
        assert type(exc.value) is ConfigError
        assert str(exc.value) == "parity core is not invertible for this lifting size"
        ChainConfig()  # BG1 is unchanged


NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


class TestNormalForm:
    """Every field is stored as a plain int, float or tuple of ints, or raises ConfigError."""

    def test_numpy_integer_fields_are_stored_as_ints(self):
        cfg = ChainConfig(e_r=np.int16(12672), blocks=np.int16(8))
        assert type(cfg.e_r) is int and type(cfg.blocks) is int
        assert type(cfg.G) is int and cfg.G == 12672 * 8  # int16 overflowed to -29696
        payload = np.zeros(cfg.k_prime * cfg.blocks, dtype=np.uint8)
        assert encode_chain(cfg, payload).scrambled_words.words.size == cfg.G // 32

    @pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
    def test_every_numpy_width_gives_the_plain_config(self, dtype):
        plain = dict(k_prime=96, target_rate=0.5, e_r=120, q_m=4, rv_schedule=(0, 3),
                     rnti=100, q=1, cell_id=99, harq_process=15, blocks=2, seed=7)
        cfg = ChainConfig(**{k: tuple(map(dtype, v)) if k == "rv_schedule" else
                             v if k == "target_rate" else dtype(v) for k, v in plain.items()})
        expect = ChainConfig(**plain)
        for name, value in plain.items():
            got = getattr(cfg, name)
            assert got == value and type(got) is type(value), name
        assert cfg == expect and hash(cfg) == hash(expect) and cfg.echo() == expect.echo()
        assert cfg.identity == expect.identity and type(cfg.identity.c_init) is int

    @pytest.mark.parametrize("schedule", [np.array([0, 2]), np.array([0, 2], dtype=np.uint8)],
                             ids=repr)
    def test_a_1d_integer_array_schedule_reads_as_its_tuple(self, schedule):
        cfg, expect = ChainConfig(rv_schedule=schedule), ChainConfig(rv_schedule=(0, 2))
        assert type(cfg.rv_schedule) is tuple
        assert [type(rv) for rv in cfg.rv_schedule] == [int, int]
        assert cfg == expect and hash(cfg) == hash(expect)

    @pytest.mark.parametrize("schedule, message", [
        (5, "rv schedule must be a list, tuple or 1-D array of integers, not 5"),
        ("02", "rv schedule must be a list, tuple or 1-D array of integers, not '02'"),
        (np.array(2), "rv schedule must be a list, tuple or 1-D array of integers, "
                      "not array(2)"),
        (np.array([[0, 2]]), "rv schedule must be a list, tuple or 1-D array of integers, "
                             "not array([[0, 2]])"),
        (np.array([], dtype=np.int64), "rv schedule must be nonempty"),
        (np.array([0.0, 2.0]), "every rv must be an integer, not np.float64(0.0)"),
        (np.array([True]), "every rv must be an integer, not np.True_"),
        (np.array([0, 5]), "every rv must be in [0, 4)"),
    ], ids=repr)
    def test_a_bad_schedule_raises_config_error(self, schedule, message):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(rv_schedule=schedule)
        assert type(exc.value) is ConfigError and str(exc.value) == message

    @pytest.mark.parametrize("name", ["snr_db", "target_rate"])
    @pytest.mark.parametrize("value", ["3", "0.5", True, False, np.True_, None, 1j, [0.5]],
                             ids=repr)
    def test_a_real_field_that_is_no_real_number_raises_config_error(self, name, value):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(**{name: value})
        assert str(exc.value) == f"{name} must be a real number, not {value!r}"

    @pytest.mark.parametrize("name, value", [
        ("snr_db", np.float32(3)), ("snr_db", 3), ("snr_db", np.int8(-5)),
        ("snr_db", np.float16(0.5)), ("target_rate", np.float64(0.75)), ("target_rate", 1),
        ("target_rate", np.float32(0.5)),
    ], ids=repr)
    def test_a_real_field_is_stored_as_a_float(self, name, value):
        cfg, expect = ChainConfig(**{name: value}), ChainConfig(**{name: float(value)})
        assert type(getattr(cfg, name)) is float
        assert cfg == expect and hash(cfg) == hash(expect) and cfg.echo() == expect.echo()

    @pytest.mark.parametrize("snr_db", [3050.0, 3082.0, 3200.0, 4000.0])
    def test_a_noiseless_snr_builds_the_clamped_demapper(self, snr_db):
        # sigma2 = 10^(-snr_db / 10) is subnormal or 0 here; both read as noiseless
        assert ChainConfig(snr_db=snr_db).plan.demapper.inv_noise == 0xFFFF

    @pytest.mark.parametrize("fields, message", [
        ({"snr_db": 10 ** 400}, "snr_db must be finite"),
        ({"snr_db": -10 ** 400}, "snr_db must be finite"),
        ({"target_rate": 10 ** 400}, "target_rate must be in (0, 1]"),
        ({"target_rate": np.float32("nan")}, "target_rate must be in (0, 1]"),
        ({"snr_db": np.float64("inf")}, "snr_db must be finite"),
    ], ids=["snr_db=10**400", "snr_db=-10**400", "target_rate=10**400",
            "target_rate=float32(nan)", "snr_db=float64(inf)"])
    def test_a_real_beyond_float_range_is_not_finite(self, fields, message):
        with pytest.raises(ConfigError) as exc:
            ChainConfig(**fields)
        assert type(exc.value) is ConfigError and str(exc.value) == message


def in_range_or_near(lo, hi):
    """An integer in [lo, hi], or at most two past either end."""
    return st.integers(lo, hi) | st.integers(lo - 2, hi + 2)


@st.composite
def integer_like(draw, values, wild=False):
    """A drawn integer as an int or a NumPy integer that holds it; ``wild``, as a
    float, a bool or a string."""
    value = draw(values)
    if wild:
        return draw(st.one_of(
            st.sampled_from([float, np.float64, np.float32]).map(lambda t: t(value)),
            st.sampled_from([True, False, np.True_, np.False_]),
            st.just(str(value))))
    widths = [t for t in NUMPY_INTEGERS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    return draw(st.sampled_from([int, *widths]).map(lambda t: t(value)))


def real_like(lo, hi, wild=False):
    """A real in [lo, hi] as a float, a NumPy float or an integer; ``wild``, any
    float (nan, +-inf), an integer beyond a float's range, a bool or a string."""
    if wild:
        return st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
            st.sampled_from([10 ** 400, -10 ** 400, True, False, np.True_, np.False_]),
            st.text(max_size=3))
    return st.one_of(
        st.floats(lo, hi),
        st.floats(lo, hi).map(np.float64),
        st.floats(lo, hi, width=32).map(np.float32),
        integer_like(st.integers(math.ceil(lo), math.floor(hi))))


RV = in_range_or_near(0, 3)

# A schedule as a list, a tuple or a 1-D integer array of any width; wild, empty, an
# array of floats or bools or of 0 or 2 dimensions, entries that are not integers, or
# a value that is no sequence
RV_SCHEDULES = st.one_of(
    st.lists(integer_like(RV), min_size=1, max_size=5),
    st.lists(integer_like(RV), min_size=1, max_size=5).map(tuple),
    st.tuples(st.sampled_from(NUMPY_INTEGERS), st.lists(st.integers(0, 3), min_size=1, max_size=5))
    .map(lambda a: np.array(a[1], dtype=a[0])),
    st.lists(RV, min_size=1, max_size=5).map(np.array),
)
WILD_RV_SCHEDULES = st.one_of(
    st.sampled_from([[], (), np.array([], dtype=np.int64)]),
    st.tuples(st.sampled_from([np.float64, np.float32, np.bool_]),
              st.lists(st.integers(0, 1), max_size=5)).map(lambda a: np.array(a[1], dtype=a[0])),
    st.lists(RV, min_size=1, max_size=4).map(lambda v: np.array([v])),
    integer_like(RV).map(np.array),
    st.lists(integer_like(RV, wild=True), min_size=1, max_size=3),
    integer_like(RV),
    st.text(max_size=3),
)


def integer_field(lo, hi):
    return integer_like(in_range_or_near(lo, hi)), integer_like(in_range_or_near(lo, hi), True)


# (value, wild value) per field; e_r is capped at 10^5, so each example builds in
# milliseconds, and drawn as often as not a multiple of 8, so of every Q_m
CONFIG_FIELDS = {
    "k_prime": integer_field(1, 8448),
    "target_rate": (real_like(0, 1), real_like(0, 1, True)),
    "e_r": (integer_like(st.integers(1, 12500).map(lambda n: 8 * n)
                         | in_range_or_near(1, 10 ** 5)),
            integer_like(in_range_or_near(1, 10 ** 5), True)),
    "q_m": (integer_like(st.sampled_from([2, 4, 6, 8]) | in_range_or_near(2, 8)),
            integer_like(in_range_or_near(2, 8), True)),
    "rv_schedule": (RV_SCHEDULES, WILD_RV_SCHEDULES),
    "rnti": integer_field(0, 65535),
    "q": integer_field(0, 1),
    "cell_id": integer_field(0, 1007),
    "harq_process": integer_field(0, 15),
    "blocks": integer_field(1, 32),
    # sigma2 overflows below about -3082 dB and is subnormal from about 3077 dB
    "snr_db": (real_like(-100, 100) | real_like(-3100, -3000) | real_like(3000, 3300),
               real_like(0, 0, True)),
    "seed": integer_field(0, 2 ** 64 - 1),
}

REAL_FIELDS = ("target_rate", "snr_db")


@st.composite
def config_fields(draw):
    """Keyword values for any subset of the fields, at most two of them wild."""
    names = draw(st.lists(st.sampled_from(list(CONFIG_FIELDS)), unique=True))
    wild = draw(st.sets(st.sampled_from(names), max_size=2)) if names else set()
    return {name: draw(CONFIG_FIELDS[name][name in wild]) for name in names}


def as_plain(value):
    """The value a caller would give with Python types: ints, floats and tuples."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(as_plain(v) for v in value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class TestConfigBoundaryProperty:
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(config_fields())
    def test_any_fields_raise_config_error_or_give_the_plain_config(self, fields):
        try:
            cfg = ChainConfig(**fields)
        except ConfigError as exc:
            assert type(exc) is ConfigError
            return
        for name in CONFIG_FIELDS:
            value = getattr(cfg, name)
            if name == "rv_schedule":
                assert type(value) is tuple and all(type(rv) is int for rv in value), value
            else:
                assert type(value) is (float if name in REAL_FIELDS else int), (name, value)
        plain = ChainConfig(**{name: as_plain(value) for name, value in fields.items()})
        assert cfg == plain and hash(cfg) == hash(plain) and cfg.echo() == plain.echo()
        assert cfg.identity == plain.identity and cfg.plan.demapper == plain.plan.demapper
