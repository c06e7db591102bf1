"""Workloads, their seeded inputs, the op runner and the bit-exact outcome gate.

Every op's outcome is a JSON-able record: per transmission round, a hash
of the transmitted words and symbols, and per code block the iteration
count, termination reason, ``parity_ok``, whether the payload came back,
and a hash of the hard bits. At the reference seed each record must equal
the one stored under ``reference/`` (every run also replays the reference
seed's first ops as its warm-up); at every seed each op must give the
same record on every pass and satisfy the decoder's own invariants.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nrphy import llr
from nrphy.harness import ChainConfig, chain, sim
from nrphy.ldpc import MAX_ITERATIONS
from nrphy.rate_adapt import HarqBufferPool

from .spans import Recorder, chain_sites

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 1
WARMUP_OPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: ChainConfig
    ops_per_pass: int  # distinct inputs; a run repeats them in whole passes
    harq_rounds: int  # 0: one encode -> awgn -> decode; else run_harq_link rounds
    must_deliver: bool = False  # every op decodes to its payload at this SNR

    @property
    def info_bits_per_op(self) -> int:
        return self.cfg.k_prime * self.cfg.blocks


_LINK = dict(k_prime=8448, target_rate=2 / 3, e_r=12672, q_m=2, rv_schedule=(0, 2, 3, 1),
             rnti=42, q=0, cell_id=1, harq_process=0)

WORKLOADS = {w.name: w for w in (
    Workload("link_10db", ChainConfig(**_LINK, blocks=8, snr_db=10.0), 8, 0, True),
    Workload("link_3db", ChainConfig(**_LINK, blocks=4, snr_db=3.0), 8, 0),
    Workload("harq_ir", ChainConfig(k_prime=192, target_rate=0.75, e_r=256, q_m=2,
                                    rv_schedule=(0, 2, 3, 1), blocks=1, snr_db=0.0),
             100, 4),
)}


@dataclass(frozen=True)
class OpInput:
    index: int
    payload: np.ndarray
    noise_key: tuple[int, ...]


def make_inputs(wl: Workload, seed: int) -> list[OpInput]:
    """The pass's payloads and noise keys, a pure function of ``seed``."""
    key = list(WORKLOADS).index(wl.name)
    out = []
    for i in range(wl.ops_per_pass):
        rng = np.random.default_rng(np.random.SeedSequence([seed, key, i]))
        out.append(OpInput(i, rng.integers(0, 2, wl.info_bits_per_op, dtype=np.uint8),
                           (seed, key, i, 1)))
    return out


def _hash(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _round_record(cfg: ChainConfig, payload: np.ndarray, enc, dec) -> dict:
    k = cfg.k_prime
    cbs = [[res.iterations_used, res.termination_reason.value, bool(res.parity_ok),
            bool(np.array_equal(res.hard_bits[:k], payload[b * k:(b + 1) * k])),
            _hash(res.hard_bits)]
           for b, res in enumerate(dec.results)]
    return {"tx": _hash(enc.scrambled_words.words, enc.symbols.re, enc.symbols.im), "cbs": cbs}


class Runner:
    """Runs one workload's ops, closed loop with a single caller."""

    def __init__(self, wl: Workload, seed: int, reference: list | None = None):
        self.wl = wl
        self.inputs = make_inputs(wl, seed)
        self.reference = reference
        self.rec = Recorder()
        self.pool = HarqBufferPool()
        self.first_pass: dict[int, dict] = {}
        self.input_of: dict[int, int] = {}  # op id -> index of the op's input
        self.scale: dict[int, float] = {}  # op id -> host speed factor after it

    def run_op(self, inp: OpInput) -> dict:
        """One op inside an ``op`` span; returns its outcome record."""
        rec, cfg = self.rec, self.wl.cfg
        rec.op_id += 1
        self.input_of[rec.op_id] = inp.index
        rec.outputs = []
        if self.wl.harq_rounds:
            with rec.patched(chain_sites()):
                res = rec.call("op", sim.run_harq_link, cfg, self.pool, inp.payload,
                               inp.noise_key, max_rounds=self.wl.harq_rounds)
            delivered, rounds_used = res.delivered, res.rounds_used
        else:
            rec.call("op", self._link_op, cfg, inp)
            delivered, rounds_used = None, 1
        pairs = zip(rec.outputs[0::2], rec.outputs[1::2])
        rounds = [_round_record(cfg, inp.payload, enc, dec) for enc, dec in pairs]
        if delivered is None:
            delivered = all(cb[3] for cb in rounds[0]["cbs"])
        return {"rounds": rounds, "rounds_used": rounds_used, "delivered": delivered}

    def _link_op(self, cfg: ChainConfig, inp: OpInput) -> None:
        rec = self.rec
        enc = rec.call("encode_chain", chain.encode_chain, cfg, inp.payload)
        noisy = llr.awgn(enc.symbols, cfg.sigma2, np.random.SeedSequence(inp.noise_key))
        rec.call("decode_chain", chain.decode_chain, cfg, noisy, self.pool)

    def check(self, inp: OpInput, record: dict) -> list[str]:
        """Problems with one op's outcome; empty when it is correct."""
        problems = []
        if self.reference is not None and record != self.reference[inp.index]:
            problems.append("differs from the reference outcome")
        first = self.first_pass.setdefault(inp.index, record)
        if record != first:
            problems.append("differs from the same input's earlier pass")
        max_rounds = self.wl.harq_rounds or 1
        if len(record["rounds"]) != record["rounds_used"] or record["rounds_used"] > max_rounds:
            problems.append("round count inconsistent")
        elif not record["delivered"] and record["rounds_used"] != max_rounds:
            problems.append("stopped before delivery or the last round")
        for rnd in record["rounds"]:
            for iters, reason, parity_ok, _, _ in rnd["cbs"]:
                if parity_ok != (reason == "parity_satisfied") or not 1 <= iters <= MAX_ITERATIONS \
                        or (reason == "max_iterations" and iters != MAX_ITERATIONS):
                    problems.append(f"decoder result inconsistent: {iters} {reason} {parity_ok}")
        if self.wl.must_deliver and not record["delivered"]:
            problems.append("a code block did not decode to its payload")
        return problems


def outcome_summary(records: list[dict]) -> dict:
    """Histograms of one pass and a digest over them and every op record."""
    iters, rounds = Counter(), Counter()
    bler: dict[int, list[int]] = {}
    for rec in records:
        rounds[rec["rounds_used"]] += 1
        for r, rnd in enumerate(rec["rounds"]):
            errs = bler.setdefault(r, [0, 0])
            for it, _, parity_ok, payload_ok, _ in rnd["cbs"]:
                iters[it] += 1
                errs[0] += not (parity_ok and payload_ok)
                errs[1] += 1
    summary = {
        "iterations_histogram": dict(sorted(iters.items())),
        "block_errors_per_round": bler,
        "harq_rounds_histogram": dict(sorted(rounds.items())),
    }
    blob = json.dumps({"ops": records, **summary}, sort_keys=True).encode()
    summary["digest"] = hashlib.sha256(blob).hexdigest()[:32]
    return summary


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> list:
    """The stored op records of one pass at the reference seed."""
    with open(reference_path(name)) as fh:
        ref = json.load(fh)
    if ref["seed"] != REFERENCE_SEED or len(ref["ops"]) != WORKLOADS[name].ops_per_pass:
        raise ValueError(f"reference for {name} does not match the workload")
    return ref["ops"]
