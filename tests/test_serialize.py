"""Tests for whole-network serialization."""

import numpy as np
import pytest

from repro.nn import (
    Add,
    AvgPool2D,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    Network,
    ReLU,
    ReLU6,
    Softmax,
)
from repro.nn.serialize import architecture_dict, load_network, save_network
from repro.trim import build_trn
from repro.zoo import build_network



class TestArchitectureDict:
    def test_contains_all_nodes(self, tiny_net):
        arch = architecture_dict(tiny_net)
        names = {n["name"] for n in arch["nodes"]}
        assert "b2_add" in names and "input" not in names
        assert arch["input_shape"] == [8, 8, 3]

    def test_preserves_metadata(self, tiny_net):
        arch = architecture_dict(tiny_net)
        by_name = {n["name"]: n for n in arch["nodes"]}
        assert by_name["b1_conv"]["block_id"] == "b1"
        assert by_name["logits"]["role"] == "head"
        assert by_name["b2_add"]["inputs"] == ["b1_relu", "b2_relu"]


class TestRoundTrip:
    def test_tiny_net_outputs_identical(self, tiny_net, small_images,
                                        tmp_path):
        path = str(tmp_path / "net.npz")
        save_network(tiny_net, path)
        loaded = load_network(path)
        np.testing.assert_allclose(loaded.forward(small_images),
                                   tiny_net.forward(small_images),
                                   rtol=1e-6)

    def test_zoo_network_roundtrip(self, tmp_path, rng):
        net = build_network("mobilenet_v2_1.0").build(3)
        path = str(tmp_path / "mnv2.npz")
        save_network(net, path)
        loaded = load_network(path)
        x = rng.normal(size=(2, 32, 32, 3)).astype(np.float32)
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   rtol=1e-5, atol=1e-6)
        assert loaded.block_members() == net.block_members()

    def test_trn_roundtrip(self, tiny_net, small_images, tmp_path):
        trn = build_trn(tiny_net, "b2_add", 5)
        path = str(tmp_path / "trn.npz")
        save_network(trn, path)
        loaded = load_network(path)
        np.testing.assert_allclose(loaded.forward(small_images),
                                   trn.forward(small_images), rtol=1e-6)
        assert loaded.name == trn.name

    def test_running_stats_roundtrip(self, tiny_net, small_images,
                                     tmp_path):
        tiny_net.forward(small_images, training=True)  # move BN stats
        path = str(tmp_path / "bn.npz")
        save_network(tiny_net, path)
        loaded = load_network(path)
        np.testing.assert_allclose(
            loaded.nodes["b1_bn"].layer.running_mean,
            tiny_net.nodes["b1_bn"].layer.running_mean, rtol=1e-6)

    def test_non_default_arguments_roundtrip(self, tmp_path, rng):
        """Every serialisable layer type, built with non-default
        constructor arguments, comes back with the same configuration."""
        net = Network("every-layer", (12, 12, 3))
        net.add("conv", Conv2D(6, (3, 2), stride=2, padding="valid",
                               use_bias=False))
        net.add("dw", DepthwiseConv2D(3, stride=1, padding="valid",
                                      use_bias=True))
        net.add("bn", BatchNorm(momentum=0.8, eps=1e-3))
        net.add("relu6", ReLU6())
        net.add("maxpool", MaxPool2D(3, stride=1, padding="same"))
        net.add("avgpool", AvgPool2D(2, stride=1, padding="same"))
        net.add("branch", Conv2D(6, 1))
        net.add("relu", ReLU())
        net.add("add", Add(), inputs=["avgpool", "branch"])
        net.add("concat", Concat(), inputs=["add", "relu"])
        net.add("gap", GlobalAvgPool())
        net.add("drop", Dropout(0.3, seed=7), inputs="concat")
        net.add("flat", Flatten())
        net.add("features", Concat(), inputs=["gap", "flat"])
        net.add("logits", Dense(7, use_bias=False))
        net.add("probs", Softmax())
        net.build(0)
        path = str(tmp_path / "every.npz")
        save_network(net, path)
        loaded = load_network(path)
        arch = architecture_dict(net)
        assert architecture_dict(loaded) == arch
        configs = {n["name"]: n["config"] for n in arch["nodes"]}
        assert configs["conv"] == {"filters": 6, "kernel": [3, 2],
                                   "stride": 2, "padding": "valid",
                                   "use_bias": False}
        assert configs["bn"] == {"momentum": 0.8, "eps": 1e-3}
        assert configs["avgpool"] == {"pool": 2, "stride": 1,
                                      "padding": "same"}
        assert configs["drop"] == {"rate": 0.3, "seed": 7}
        x = rng.normal(size=(2, 12, 12, 3)).astype(np.float32)
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   rtol=1e-6)
        # the reload draws the same dropout masks: its seed came along
        np.testing.assert_allclose(loaded.forward(x, training=True),
                                   net.forward(x, training=True),
                                   rtol=1e-6)

    def test_unbuilt_rejected(self, tmp_path):
        net = Network("u", (4, 4, 1))
        net.add("c", Conv2D(2, 3))
        with pytest.raises(RuntimeError):
            save_network(net, str(tmp_path / "u.npz"))

    def test_latency_model_agrees_after_reload(self, tiny_net, tiny_device,
                                               tmp_path):
        from repro.device import network_latency

        path = str(tmp_path / "lat.npz")
        save_network(tiny_net, path)
        loaded = load_network(path)
        assert network_latency(loaded, tiny_device).total_ms == \
            pytest.approx(network_latency(tiny_net, tiny_device).total_ms,
                          rel=1e-9)
