"""Shared fixtures: tiny networks, datasets and devices for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.spec import DeviceSpec
from repro.nn import (
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    MaxPool2D,
    Network,
    ReLU,
    Softmax,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_tiny_net(name: str = "tiny", num_classes: int = 5,
                  blocks: int = 3) -> Network:
    """A small block-structured CNN: stem + `blocks` conv blocks + head.

    Mirrors the zoo conventions (block_id tags, stem/feature/head roles,
    residual connection in block 2) so trim/netcut tests can run on it
    without pretraining a real zoo network.
    """
    net = Network(name, (8, 8, 3))
    net.add("stem_conv", Conv2D(4, 3, stride=1), block_id="stem", role="stem")
    net.add("stem_relu", ReLU(), block_id="stem", role="stem")
    prev = "stem_relu"
    channels = 4
    for b in range(1, blocks + 1):
        net.add(f"b{b}_conv", Conv2D(channels, 3, stride=1),
                inputs=prev, block_id=f"b{b}")
        net.add(f"b{b}_bn", BatchNorm(), block_id=f"b{b}")
        net.add(f"b{b}_relu", ReLU(), block_id=f"b{b}")
        if b == 2:
            net.add(f"b{b}_add", Add(), inputs=[prev, f"b{b}_relu"],
                    block_id=f"b{b}")
            prev = f"b{b}_add"
        else:
            prev = f"b{b}_relu"
    net.add("pool", MaxPool2D(2), inputs=prev, block_id=f"b{blocks}")
    net.add("gap", GlobalAvgPool(), role="head")
    net.add("logits", Dense(num_classes), role="head")
    net.add("probs", Softmax(), role="head")
    return net.build(0)


@pytest.fixture
def tiny_net():
    return make_tiny_net()


@pytest.fixture
def tiny_device():
    return DeviceSpec(
        name="test-device",
        peak_gflops=10.0,
        bandwidth_gbps=1.0,
        launch_overhead_us=5.0,
        occupancy_flops=1e4,
        noise_std=0.005,
        straggler_prob=0.0,
        event_overhead_us=2.0,
    )


@pytest.fixture
def latency_table_builds(monkeypatch):
    """Records every ``network_latency`` call the service-time samplers make
    (one per latency-table entry they compute)."""
    from repro.device import runtime

    calls = []
    real = runtime.network_latency

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "network_latency", counted)
    return calls


@pytest.fixture
def small_images(rng):
    return rng.normal(size=(6, 8, 8, 3)).astype(np.float32)


@pytest.fixture
def soft_labels(rng):
    y = np.abs(rng.normal(size=(6, 5))).astype(np.float32)
    return y / y.sum(axis=1, keepdims=True)
