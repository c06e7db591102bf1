"""Command-line harness for the codec chain and its simulators.

Subcommands: encode, decode, roundtrip, bler, harq-sim, bench. Exit
status 0 on success, 1 on decode/contract failures (with a diagnostic),
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..errors import ConfigError, FormatError, PoolExhaustedError, UnknownProcessError
from ..llr import (
    KIND_LLRS,
    PackedWordStream,
    awgn,
    llr_estimate,
    pack_llr_words,
    unpack_llr_words,
)
from ..rate_adapt import HarqBufferPool
from . import sim
from .bench import run_throughput_bench
from .chain import decode_chain_from_llrs, encode_chain
from .config import load_config, with_overrides
from .report import RunReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="default",
                        help="key=value config file, or 'default'")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="write the CSV report here")


def _comma_list(convert):
    """argparse ``type=``: comma-separated ``convert`` values, none of them empty."""
    def parse(text: str) -> list:
        return [convert(s) for s in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__} list"  # argparse's error names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrphy",
        description="Bit-exact LDPC coding chain harness: round trips, "
                    "BLER sweeps, HARQ simulation, throughput benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="run the encode chain on a random payload")
    _add_common(p)
    p.add_argument("--dump-words", default=None,
                   help="write post-scramble bit words (little-endian binary)")
    p.add_argument("--dump-llrs", default=None,
                   help="write demapped LLR words for the configured SNR")

    p = sub.add_parser("decode", help="decode a received LLR word dump")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="LLR word dump (little-endian binary, 4 LLRs/word)")

    p = sub.add_parser("roundtrip", help="encode, add noise, decode, compare")
    _add_common(p)

    p = sub.add_parser("bler", help="block error rate sweep over SNR points")
    _add_common(p)
    p.add_argument("--snrs", type=_comma_list(float), default="0,2,4,6,8,10",
                   help="comma-separated Es/N0 points in dB")
    p.add_argument("--blocks", type=int, default=100, help="blocks per SNR point")

    p = sub.add_parser("harq-sim", help="throughput vs. soft-buffer pool size")
    _add_common(p)
    p.add_argument("--pool-sizes", type=_comma_list(int), default="1,2,4,8,16")
    p.add_argument("--processes", type=int, default=8)
    p.add_argument("--rounds", type=int, default=4, help="max rounds per packet")
    p.add_argument("--packets", type=int, default=8, help="packets per process")

    p = sub.add_parser("bench", help="software decode-chain throughput")
    _add_common(p)
    p.add_argument("--blocks", type=int, default=20, help="code blocks to decode")

    return parser


def _emit(report: RunReport, out: str | None) -> None:
    for line in report.summary_lines():
        print(line)
    if out:
        report.write_csv(out)
        print(f"[{report.kind}] wrote {out}")
    else:
        sys.stdout.write(report.to_csv())


def _random_payload(cfg) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    return rng.integers(0, 2, cfg.k_prime * cfg.blocks, dtype=np.uint8)


def _cmd_encode(cfg, args) -> int:
    payload = _random_payload(cfg)
    enc = encode_chain(cfg, payload)
    print(f"encoded {cfg.blocks} block(s): K'={cfg.k_prime} E_r={cfg.e_r} "
          f"Q_m={cfg.q_m} -> {len(enc.symbols)} symbols")
    if args.dump_words:
        with open(args.dump_words, "wb") as fh:
            fh.write(enc.scrambled_words.to_bytes())
        print(f"wrote {len(enc.scrambled_words.words)} bit words to {args.dump_words}")
    if args.dump_llrs:
        noisy = awgn(enc.symbols, cfg.sigma2, np.random.SeedSequence([cfg.seed, 1]))
        raw = llr_estimate(noisy, cfg.plan.demapper)
        with open(args.dump_llrs, "wb") as fh:
            fh.write(pack_llr_words(raw).to_bytes())
        print(f"wrote {len(raw)} LLRs to {args.dump_llrs}")
    return EXIT_OK


def _cmd_decode(cfg, args) -> int:
    try:
        with open(args.infile, "rb") as fh:
            stream = PackedWordStream.from_bytes(fh.read(), KIND_LLRS)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.infile!r}: {exc}") from exc
    words = -(-cfg.G // 4)  # four LLRs per word
    if len(stream.words) != words:
        raise FormatError(f"expected {words} LLR words for G = {cfg.G}, "
                          f"got {len(stream.words)}")
    raw = unpack_llr_words(stream, cfg.G)
    dec = decode_chain_from_llrs(cfg, raw, HarqBufferPool())
    for b, res in enumerate(dec.results):
        print(f"block {b}: parity_ok={res.parity_ok} "
              f"iterations={res.iterations_used} "
              f"reason={res.termination_reason.value}")
    if all(dec.block_ok):
        print("OK")
        return EXIT_OK
    print("decode failed: parity not satisfied on all blocks", file=sys.stderr)
    return EXIT_FAILURE


def _cmd_roundtrip(cfg, args) -> int:
    payload = _random_payload(cfg)
    dec = sim.transmit(cfg, payload, (cfg.seed, 1), HarqBufferPool())
    for b, res in enumerate(dec.results):
        print(f"block {b}: parity_ok={res.parity_ok} "
              f"iterations={res.iterations_used}")
    if all(dec.block_delivered(payload)):
        print("OK")
        return EXIT_OK
    print("roundtrip failed: payload mismatch", file=sys.stderr)
    return EXIT_FAILURE


def _cmd_bler(cfg, args) -> int:
    report = sim.run_bler_sweep(cfg, args.snrs, args.blocks)
    _emit(report, args.out)
    return EXIT_OK


def _cmd_harq_sim(cfg, args) -> int:
    report = sim.run_harq_sim(cfg, args.pool_sizes, args.processes, args.rounds, args.packets)
    _emit(report, args.out)
    return EXIT_OK


def _cmd_bench(cfg, args) -> int:
    report = run_throughput_bench(cfg, args.blocks)
    _emit(report, args.out)
    return EXIT_OK


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "roundtrip": _cmd_roundtrip,
    "bler": _cmd_bler,
    "harq-sim": _cmd_harq_sim,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = with_overrides(load_config(args.config), seed=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, PoolExhaustedError, UnknownProcessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
