"""CLI contract tests: subcommands, exit codes, file formats."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nrphy.harness import sim
from nrphy.harness.cli import main
from nrphy.harness.config import load_config
from nrphy.harness.sim import run_harq_sim
from nrphy.llr import KIND_LLRS, PackedWordStream, unpack_llr_words

HARQ_IR_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "harq_ir.cfg")

SMALL_CONFIG = """
k_prime = 96
target_rate = 0.5
e_r = 256
q_m = 2
snr_db = 12
seed = 5
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


# G = 258 is not a multiple of 4, so the last LLR word carries two pad bytes
PADDED_CONFIG = SMALL_CONFIG.replace("e_r = 256", "e_r = 258")


@pytest.fixture(scope="module")
def default_llr_dump(tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "llrs.bin"
    assert main(["encode", "--config", "default", "--dump-llrs", str(path)]) == 0
    return path.read_bytes()


@pytest.fixture(scope="module")
def padded_llr_dump(tmp_path_factory):
    """(config path, dump) for a G that leaves padding in the last word."""
    tmp = tmp_path_factory.mktemp("padded")
    config, path = tmp / "padded.cfg", tmp / "llrs.bin"
    config.write_text(PADDED_CONFIG)
    assert main(["encode", "--config", str(config), "--dump-llrs", str(path)]) == 0
    return str(config), path.read_bytes()


class TestRoundtrip:
    def test_default_config_prints_ok(self, capsys):
        assert main(["roundtrip", "--config", "default"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_small_config(self, small_config, capsys):
        assert main(["roundtrip", "--config", small_config]) == 0
        assert "OK" in capsys.readouterr().out

    def test_one_transmit_per_roundtrip(self, small_config, monkeypatch, capsys):
        calls = []
        transmit = sim.transmit
        monkeypatch.setattr(sim, "transmit",
                            lambda *args, **kwargs: calls.append(args) or transmit(*args, **kwargs))
        assert main(["roundtrip", "--config", small_config]) == 0
        cfg = load_config(small_config)
        assert [(args[0], args[2]) for args in calls] == [(cfg, (cfg.seed, 1))]

    def test_missing_config_exits_2(self, capsys):
        assert main(["roundtrip", "--config", "/does/not/exist"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 12")
        assert main(["roundtrip", "--config", str(bad)]) == 2

    def test_unsupported_modulation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "qm3.cfg"
        bad.write_text("q_m = 3")
        assert main(["roundtrip", "--config", str(bad)]) == 2
        assert "Q_m" in capsys.readouterr().err

    def test_fillers_in_punctured_head_exit_2(self, tmp_path):
        bad = tmp_path / "k3.cfg"
        bad.write_text("k_prime = 3")
        assert main(["roundtrip", "--config", str(bad)]) == 2

    def test_unparsable_number_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "abc.cfg"
        bad.write_text("k_prime = abc")
        assert main(["roundtrip", "--config", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0,,2", "0,2,", ",0", ","])
    def test_empty_rv_schedule_item_exits_2(self, tmp_path, value, capsys):
        # the file format rejects empty items, as the CLI's comma lists do
        bad = tmp_path / "rv.cfg"
        bad.write_text(f"rv_schedule = {value}")
        assert main(["roundtrip", "--config", str(bad)]) == 2
        assert "rv_schedule" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, small_config):
        with pytest.raises(SystemExit) as exc:
            main(["roundtrip", "--config", small_config, "--bogus"])
        assert exc.value.code == 2

    def test_roundtrip_has_no_word_dump(self, small_config, tmp_path):
        # encode --dump-words writes the same words for the same config and seed
        with pytest.raises(SystemExit) as exc:
            main(["roundtrip", "--config", small_config, "--dump-words", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bler", "--snrs", "a,b"],
        ["bler", "--snrs", ","],
        ["bler", "--snrs", ""],
        ["bler", "--snrs", "0,2,"],
        ["harq-sim", "--pool-sizes", "x"],
        ["harq-sim", "--pool-sizes", "1.5"],
        ["harq-sim", "--pool-sizes", ","],
    ])
    def test_malformed_list_exits_2(self, small_config, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", small_config])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_out_of_range_pool_size_exits_1(self, small_config, capsys):
        assert main(["harq-sim", "--config", small_config, "--pool-sizes", "0"]) == 1
        assert "pool_size" in capsys.readouterr().err


class TestEncodeDecodePipeline:
    def test_word_dump_then_decode(self, small_config, tmp_path, capsys):
        words = tmp_path / "bits.bin"
        llrs = tmp_path / "llrs.bin"
        assert main(["encode", "--config", small_config,
                     "--dump-words", str(words), "--dump-llrs", str(llrs)]) == 0
        assert words.stat().st_size == 256 // 32 * 4
        assert llrs.stat().st_size == 256  # one byte per LLR
        capsys.readouterr()
        assert main(["decode", "--config", small_config, "--in", str(llrs)]) == 0
        out = capsys.readouterr().out
        assert "parity_ok=True" in out and "OK" in out

    def test_dump_is_valid_llr_stream(self, small_config, tmp_path):
        llrs = tmp_path / "llrs.bin"
        main(["encode", "--config", small_config, "--dump-llrs", str(llrs)])
        stream = PackedWordStream.from_bytes(llrs.read_bytes(), KIND_LLRS)
        raw = unpack_llr_words(stream, 256)
        assert int(np.abs(raw.astype(int)).max()) <= 31

    def test_decode_garbage_fails_with_1(self, small_config, tmp_path, capsys):
        bad = tmp_path / "noise.bin"
        bad.write_bytes(bytes([0x01, 0x1F, 0xE1, 0x05] * 64))
        rc = main(["decode", "--config", small_config, "--in", str(bad)])
        assert rc == 1
        assert "parity" in capsys.readouterr().err

    def test_padded_dump_decodes(self, padded_llr_dump, tmp_path, capsys):
        config, data = padded_llr_dump
        assert len(data) == 260
        dump = tmp_path / "padded.bin"
        dump.write_bytes(data)
        assert main(["decode", "--config", config, "--in", str(dump)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["truncated", "oversized", "odd_length", "byte_7f",
                                        "pad_byte_7f"])
    def test_malformed_dump_fails_cleanly(self, default_llr_dump, padded_llr_dump, tmp_path,
                                          damage, capsys):
        config, data = "default", bytearray(default_llr_dump)
        if damage == "pad_byte_7f":
            config, data = padded_llr_dump[0], bytearray(padded_llr_dump[1])
            data[-1] = 0x7F
        elif damage == "truncated":
            data = data[:4000]
        elif damage == "oversized":
            data += bytes(400)
        elif damage == "odd_length":
            data = data[:4001]
        else:
            data[100] = 0x7F
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        assert main(["decode", "--config", config, "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_decode_missing_file_exits_2(self, small_config):
        assert main(["decode", "--config", small_config, "--in", "/no/file"]) == 2

    def test_bad_base_graph_exits_2(self, small_config, tmp_path, request, capsys):
        llrs = tmp_path / "llrs.bin"
        assert main(["encode", "--config", small_config, "--dump-llrs", str(llrs)]) == 0
        capsys.readouterr()
        request.getfixturevalue("bad_parity_tables")
        assert main(["decode", "--config", small_config, "--in", str(llrs)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["encode"], ["roundtrip"], ["bler", "--snrs", "0"],
                                      ["harq-sim", "--pool-sizes", "2"], ["bench"]], ids=repr)
    def test_singular_parity_core_exits_2(self, argv, request, capsys):
        request.getfixturevalue("singular_core_tables")
        assert main([*argv, "--config", HARQ_IR_CFG]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: parity core is not invertible for this lifting size\n"

    def test_singular_parity_core_decode_exits_2(self, tmp_path, request, capsys):
        llrs = tmp_path / "llrs.bin"
        assert main(["encode", "--config", HARQ_IR_CFG, "--dump-llrs", str(llrs)]) == 0
        capsys.readouterr()
        request.getfixturevalue("singular_core_tables")
        assert main(["decode", "--config", HARQ_IR_CFG, "--in", str(llrs)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: parity core is not invertible for this lifting size\n"


class TestReports:
    def test_bler_csv(self, small_config, tmp_path, capsys):
        out = tmp_path / "bler.csv"
        rc = main(["bler", "--config", small_config, "--snrs", "8,12",
                   "--blocks", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,blocks,block_errors,bler,avg_iterations"
        assert len(lines) == 3

    def test_bler_csv_deterministic(self, small_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bler", "--config", small_config, "--snrs", "10", "--blocks", "3",
              "--out", str(a)])
        main(["bler", "--config", small_config, "--snrs", "10", "--blocks", "3",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_rows(self, small_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bler", "--config", small_config, "--snrs", "4", "--blocks", "8",
              "--out", str(a)])
        main(["bler", "--config", small_config, "--snrs", "4", "--blocks", "8",
              "--seed", "123456", "--out", str(b)])
        # other seed, same schema; identical rows would be a seeding bug
        assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]

    def test_bench_reports_throughput_row(self, small_config, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--config", small_config, "--blocks", "4",
                   "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("codeblocks,info_bits,elapsed_s,mbps")
        assert row.startswith("4,384,")
        assert "Mbps" in capsys.readouterr().out

    def test_bench_zero_blocks_exits_1(self, small_config, capsys):
        assert main(["bench", "--config", small_config, "--blocks", "0"]) == 1
        assert "blocks" in capsys.readouterr().err

    def test_harq_sim_zero_rounds_exits_1(self, small_config, capsys):
        assert main(["harq-sim", "--config", small_config, "--rounds", "0"]) == 1
        assert "max_rounds" in capsys.readouterr().err

    def test_harq_sim_rows_per_pool_size(self, tmp_path, capsys):
        cfg = tmp_path / "harq.cfg"
        cfg.write_text("k_prime = 192\ntarget_rate = 0.75\ne_r = 256\n"
                       "q_m = 2\nsnr_db = 0\nseed = 3\n")
        out = tmp_path / "harq.csv"
        rc = main(["harq-sim", "--config", str(cfg), "--pool-sizes", "1,2",
                   "--processes", "2", "--packets", "1", "--rounds", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("pool_size,processes,transmissions")
        assert len(lines) == 3

    def test_harq_sim_summary_merges_histograms_and_throughput(self, tmp_path, capsys):
        cfg = tmp_path / "harq.cfg"
        cfg.write_text("k_prime = 192\ntarget_rate = 0.75\ne_r = 256\n"
                       "q_m = 2\nsnr_db = 4\nseed = 3\n")
        rc = main(["harq-sim", "--config", str(cfg), "--pool-sizes", "1,2",
                   "--processes", "2", "--packets", "2", "--rounds", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        expected = Counter()
        for size in (1, 2):
            expected.update(run_harq_sim(load_config(str(cfg)), [size], 2, 3, 2)
                            .iterations_histogram)
        hist = " ".join(f"{k}:{v}" for k, v in sorted(expected.items()))
        assert f"[harq-sim] iterations histogram: {hist}" in lines
        assert any(line.startswith("[harq-sim] throughput=") for line in lines), lines

    def test_harq_sim_summary_shows_the_one_block_it_simulates(self, tmp_path, capsys):
        cfg = tmp_path / "harq.cfg"
        cfg.write_text("k_prime = 192\ntarget_rate = 0.75\ne_r = 256\nblocks = 3\n")
        assert main(["harq-sim", "--config", str(cfg), "--pool-sizes", "1",
                     "--processes", "1", "--packets", "1", "--rounds", "1"]) == 0
        config_line = capsys.readouterr().out.splitlines()[0]
        assert config_line.startswith("[harq-sim] config: G=256 blocks=1 "), config_line
