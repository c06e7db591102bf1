"""In-memory spans, the timing wrappers of the traced run, and per-layer metrics.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``. Every op is a
root span named ``op``; the benchmark records ``encode_chain`` and
``decode_chain`` spans on every run, and the traced run swaps a timing
wrapper onto each public function the harness calls (``LAYER_OF``).
A span's self time is its duration minus its children's durations, so the
self times of one op's spans add up to the op's duration exactly.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Span name -> the nrphy module (layer) whose work it times.
LAYER_OF = {
    "ldpc_encode": "ldpc",
    "ldpc_decode": "ldpc",
    "scramble_bits": "scramble",
    "descramble_llrs": "scramble",
    "rate_match": "rate_adapt",
    "rate_unmatch_combine": "rate_adapt",
    "interleave": "rate_adapt",
    "deinterleave": "rate_adapt",
    "materialize_decoder_input": "rate_adapt",
    "HarqBufferPool.acquire": "rate_adapt",
    "modulate": "llr",
    "llr_estimate": "llr",
    "awgn": "llr",
    "op": "harness",
    "encode_chain": "harness",
    "decode_chain": "harness",
    "ChainConfig.code": "harness",
}
LAYERS = ("ldpc", "scramble", "rate_adapt", "llr", "harness")


def chain_sites():
    """Where ``run_harq_link`` looks up the chain: timed on every run."""
    from nrphy.harness import sim

    return [(sim, "encode_chain", "encode_chain"), (sim, "decode_chain", "decode_chain")]


def layer_sites():
    """``(owner, attribute, span name)`` for every function the traced run times.

    Each entry is the name the caller resolves at call time: the chain
    module imports most stage functions by name, reaches ``modulate`` and
    ``llr_estimate`` through ``nrphy.llr``, and ``run_harq_link`` imports
    ``awgn`` by name.
    """
    from nrphy import llr
    from nrphy.harness import chain, sim
    from nrphy.harness.config import ChainConfig
    from nrphy.rate_adapt import HarqBufferPool

    sites = [(chain, name, name) for name in (
        "ldpc_encode", "ldpc_decode", "rate_match", "rate_unmatch_combine",
        "interleave", "deinterleave", "materialize_decoder_input",
        "scramble_bits", "descramble_llrs")]
    sites += [(llr, name, name) for name in ("modulate", "llr_estimate", "awgn")]
    sites += [(sim, "awgn", "awgn"),
              (HarqBufferPool, "acquire", "HarqBufferPool.acquire"),
              (ChainConfig, "code", "ChainConfig.code")]
    return sites


class Recorder:
    """Single-threaded span recorder plus the counts taken at the same calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.peak_bound = 0
        self.outputs: list = []  # encode/decode outputs of the current op

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
        self._observe(name, args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return timed

    def _observe(self, name, args, kwargs, result) -> None:
        if name in ("encode_chain", "decode_chain"):
            self.outputs.append(result)
        elif name == "ldpc_decode":
            self.counts["iterations"] += result.iterations_used
            if result.termination_reason.name == "PARITY_SATISFIED":
                self.counts["converged_iterations"] += result.iterations_used
        elif name in ("scramble_bits", "descramble_llrs"):
            self.counts["scrambled_bits"] += len(args[0])
        elif name == "HarqBufferPool.acquire":
            pool = args[0]
            new_packet = args[2] if len(args) > 2 else kwargs["is_new_packet"]
            self.counts["acquires"] += 1
            self.counts["retx_lookups"] += not new_packet
            self.peak_bound = max(self.peak_bound, len(pool.bindings))

    @contextmanager
    def patched(self, sites):
        """Install timing wrappers on ``sites``; always restore the originals."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in sites]
        try:
            for owner, attr, name in sites:
                setattr(owner, attr, self.wrap(name, vars(owner)[attr]))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id}) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(rec: Recorder, traced_ops: set) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the ops in ``traced_ops``: name -> (value, unit)."""
    own = self_times(rec.spans)
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for span, t in zip(rec.spans, own):
        if span[4] in traced_ops:
            by_name[span[0]] += t
            calls[span[0]] += 1
    by_layer = Counter()
    for name, t in by_name.items():
        by_layer[LAYER_OF[name]] += t
    n_ops = len(traced_ops)
    op_ns = sum(end - start for name, start, end, _, op in rec.spans
                if name == "op" and op in traced_ops)
    n_dec, n_enc = calls["ldpc_decode"], calls["ldpc_encode"]
    c = rec.counts

    def ms_per_op(*names):
        return sum(by_name[n] for n in names) / n_ops / 1e6

    return {
        "ldpc.decode_ms_per_cb": (by_name["ldpc_decode"] / n_dec / 1e6, "ms"),
        "ldpc.decode_us_per_iter": (by_name["ldpc_decode"] / c["iterations"] / 1e3, "us"),
        "ldpc.decode_share": (by_name["ldpc_decode"] / op_ns, "ratio"),
        "ldpc.encode_ms_per_cb": (by_name["ldpc_encode"] / n_enc / 1e6, "ms"),
        "ldpc.iters_per_cb": (c["iterations"] / n_dec, "count"),
        "ldpc.converged_iter_ratio": (c["converged_iterations"] / c["iterations"], "ratio"),
        "scramble.scramble_ms_per_op": (ms_per_op("scramble_bits"), "ms"),
        "scramble.descramble_ms_per_op": (ms_per_op("descramble_llrs"), "ms"),
        "scramble.ns_per_bit": (by_layer["scramble"] / c["scrambled_bits"], "ns"),
        "scramble.share": (by_layer["scramble"] / op_ns, "ratio"),
        "rate_adapt.match_ms_per_cb": (by_name["rate_match"] / n_enc / 1e6, "ms"),
        "rate_adapt.unmatch_combine_ms_per_cb": (by_name["rate_unmatch_combine"] / n_dec / 1e6, "ms"),
        "rate_adapt.interleave_ms_per_op": (ms_per_op("interleave", "deinterleave"), "ms"),
        "rate_adapt.materialize_ms_per_cb": (by_name["materialize_decoder_input"] / n_dec / 1e6, "ms"),
        "rate_adapt.share": (by_layer["rate_adapt"] / op_ns, "ratio"),
        "rate_adapt.pool_acquires": (c["acquires"] / n_ops, "count/op"),
        "rate_adapt.pool_retx_lookups": (c["retx_lookups"] / n_ops, "count/op"),
        "rate_adapt.pool_peak_bound": (rec.peak_bound, "count"),
        "llr.modulate_ms_per_op": (ms_per_op("modulate"), "ms"),
        "llr.demap_ms_per_op": (ms_per_op("llr_estimate"), "ms"),
        "llr.awgn_ms_per_op": (ms_per_op("awgn"), "ms"),
        "llr.share": (by_layer["llr"] / op_ns, "ratio"),
        "harness.self_ms_per_op": (by_layer["harness"] / n_ops / 1e6, "ms"),
        "harness.code_derivations_per_cb": (calls["ChainConfig.code"] / n_dec, "count"),
    }
