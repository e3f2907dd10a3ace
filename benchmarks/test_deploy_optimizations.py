"""§III-B4 — deployment optimizations: layer fusion and INT8 quantization.

The paper deploys every network with post-training quantization of weights
(per-feature) and activations (per-tensor, max-abs calibration on a random
10% of the training set) plus layer fusion. These benchmarks verify the
latency benefit of each optimization on the device model and that
quantization leaves the classifier's outputs essentially unchanged.
"""

import pytest

from repro.device import QuantizedNetwork, calibration_split, network_latency
from repro.metrics import mean_angular_similarity

from conftest import emit


@pytest.fixture(scope="module")
def calib(wb):
    train_data, _ = wb.hands()
    idx = calibration_split(len(train_data), 0.1, rng=0)
    return train_data.x[idx]


def test_deploy_fusion_speedup(wb, benchmark):
    """Fusion merges conv+BN+activation kernels: fewer launches, less
    intermediate traffic. Every network must speed up substantially."""

    def table():
        rows = {}
        for name in wb.config.networks:
            trn = wb.transfer_model(name)
            unfused = network_latency(trn, wb.device, fused=False).total_ms
            fused = network_latency(trn, wb.device, fused=True).total_ms
            rows[name] = (unfused, fused)
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    lines = [f"{'network':20s} {'unfused_ms':>10} {'fused_ms':>9} "
             f"{'speedup':>8}"]
    for name, (unfused, fused) in rows.items():
        lines.append(f"{name:20s} {unfused:>10.3f} {fused:>9.3f} "
                     f"{unfused / fused:>7.2f}x")
        assert fused < 0.8 * unfused, name
    emit("deploy_fusion", lines)


def test_deploy_int8_speedup(wb, benchmark):
    """INT8 halves memory traffic and doubles arithmetic throughput."""

    def table():
        rows = {}
        for name in wb.config.networks:
            trn = wb.transfer_model(name)
            fp32 = network_latency(trn, wb.device).total_ms
            int8 = network_latency(trn, wb.device,
                                   precision="int8").total_ms
            rows[name] = (fp32, int8)
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    lines = [f"{'network':20s} {'fp32_ms':>9} {'int8_ms':>9} {'speedup':>8}"]
    for name, (fp32, int8) in rows.items():
        lines.append(f"{name:20s} {fp32:>9.3f} {int8:>9.3f} "
                     f"{fp32 / int8:>7.2f}x")
        assert int8 < fp32, name
    emit("deploy_int8", lines)


def test_deploy_quantization_output_drift(wb, calib, benchmark):
    """Fake-quantized inference tracks fp32: angular similarity between
    int8 and fp32 outputs stays high. (The width-scaled networks quantize
    more coarsely than the originals — 8-channel layers leave int8 little
    headroom — so the bound is 0.90 rather than ~0.99.)"""
    _, test_data = wb.hands()
    x = test_data.x[:96]

    def drift(name):
        trn = wb.transfer_model(name)
        qnet = QuantizedNetwork(trn, calib)
        return mean_angular_similarity(qnet.forward(x), trn.forward(x))

    lines = [f"{'network':20s} {'int8_vs_fp32_similarity':>24}"]
    sim = benchmark.pedantic(drift, args=("mobilenet_v1_0.5",), rounds=1,
                             iterations=1)
    for name in wb.config.networks:
        s = sim if name == "mobilenet_v1_0.5" else drift(name)
        lines.append(f"{name:20s} {s:>24.4f}")
        assert s > 0.90, name
    emit("deploy_quantization_drift", lines)


def test_deploy_quantization_task_accuracy_preserved(wb, calib, benchmark):
    """The paper's actual requirement: post-training quantization must not
    cost task accuracy. Train a TRN head, run the trained TRN in fp32 and
    int8, and compare angular-similarity accuracy against the labels."""
    from repro.metrics import mean_angular_similarity as mas
    from repro.trim import enumerate_blockwise

    base = wb.base("mobilenet_v1_0.5")
    cut = enumerate_blockwise(base)[0]
    _, test_data = wb.hands()

    def trained_accuracies():
        trn, _ = wb.retrain_trn(base, cut)
        qnet = QuantizedNetwork(trn, calib)
        fp_acc = mas(trn.forward(test_data.x), test_data.y)
        q_acc = mas(qnet.forward(test_data.x), test_data.y)
        return fp_acc, q_acc

    fp_acc, q_acc = benchmark.pedantic(trained_accuracies, rounds=1,
                                       iterations=1)
    emit("deploy_quantization_accuracy", [
        f"fp32 accuracy: {fp_acc:.4f}",
        f"int8 accuracy: {q_acc:.4f}",
        f"drop: {fp_acc - q_acc:+.4f}"])
    assert q_acc > fp_acc - 0.03
