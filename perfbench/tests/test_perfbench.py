"""Tests of the benchmark itself: inputs, the outcome gate and the tracer."""

import copy

import pytest

from perfbench import run

run.import_program()

from perfbench.spans import LAYER_OF, LAYERS, chain_sites, layer_metrics, layer_sites, self_times  # noqa: E402
from perfbench.workloads import (REFERENCE_SEED, WORKLOADS, Runner, load_reference,  # noqa: E402
                                 make_inputs, outcome_summary)

HARQ = WORKLOADS["harq_ir"]


def _runner(wl, seed, n_ops, reference=None):
    runner = Runner(wl, seed, reference)
    runner.inputs = runner.inputs[:n_ops]
    return runner


def test_same_seed_same_digest_different_seed_different_inputs():
    digests = []
    for _ in range(2):
        runner = _runner(HARQ, 3, 3)
        digests.append(outcome_summary([runner.run_op(i) for i in runner.inputs])["digest"])
    assert digests[0] == digests[1]
    a, b = make_inputs(HARQ, 3), make_inputs(HARQ, 4)
    assert all((x.payload != y.payload).any() and x.noise_key != y.noise_key
               for x, y in zip(a, b))


def test_reference_seed_passes_and_tampered_entry_is_a_failed_op():
    reference = load_reference(HARQ.name)
    _, _, attempted, failed, _ = run.measure(
        _runner(HARQ, REFERENCE_SEED, 3, reference), 1e-3, trace=False)
    assert (attempted, failed) == (3, 0)

    tampered = copy.deepcopy(reference)
    tampered[1]["rounds"][0]["cbs"][0][0] += 1
    _, _, attempted, failed, problems = run.measure(
        _runner(HARQ, REFERENCE_SEED, 3, tampered), 1e-3, trace=False)
    assert (attempted, failed) == (3, 1)
    assert problems == ["op 1: differs from the reference outcome"]

    _, warm_problems = run.set_up(HARQ, REFERENCE_SEED + 1)  # checked at any seed
    assert warm_problems == [[], []]


def _installed():
    return [vars(owner)[attr] for owner, attr, _ in layer_sites() + chain_sites()]


def test_wrappers_are_removed_after_a_traced_run():
    before = _installed()
    runner = _runner(HARQ, 5, 2)
    traced_ops, _, attempted, failed, _ = run.measure(runner, 1e-3, trace=True)
    assert (attempted, failed, len(traced_ops)) == (4, 0, 2)
    assert _installed() == before
    names = {span[0] for span in runner.rec.spans}
    assert names == set(LAYER_OF)  # every wrapper recorded while installed

    with pytest.raises(RuntimeError):
        with runner.rec.patched(layer_sites()):
            raise RuntimeError
    assert _installed() == before


def test_layer_self_times_sum_to_op_time():
    runner = _runner(WORKLOADS["link_10db"], 2, 1)
    traced_ops, *_ = run.measure(runner, 1e-3, trace=True)
    spans = runner.rec.spans
    by_layer = dict.fromkeys(LAYERS, 0)
    for span, t in zip(spans, self_times(spans)):
        if span[4] in traced_ops:
            by_layer[LAYER_OF[span[0]]] += t
    op_ns = sum(s[2] - s[1] for s in spans if s[0] == "op" and s[4] in traced_ops)
    assert all(by_layer.values())
    assert sum(by_layer.values()) == op_ns
    harness_ms = layer_metrics(runner.rec, traced_ops)["harness.self_ms_per_op"][0]
    assert harness_ms == pytest.approx(by_layer["harness"] / len(traced_ops) / 1e6)


def test_chain_metrics_scale_each_op_by_its_host_speed_factor():
    runner = _runner(HARQ, 6, 3)
    run.measure(runner, 1e-3, trace=False)
    ops = set(runner.scale)
    unscaled = run.chain_metrics(runner, ops, scaled=False)
    runner.scale = dict.fromkeys(ops, 0.5)
    halved = run.chain_metrics(runner, ops)
    for name in ("info_mbps", "decode_mbps", "encode_mbps"):
        assert halved[name][0] == pytest.approx(2 * unscaled[name][0])
    assert halved["op_ms_p50"][0] == pytest.approx(unscaled["op_ms_p50"][0] / 2)
