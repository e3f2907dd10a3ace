"""Tests for DOT export, device profiles and serialization properties."""

import numpy as np
from hypothesis import given, settings

from repro.device import DEVICE_PROFILES, agx_boosted, nano, network_latency, xavier
from repro.nn.serialize import load_network, save_network

from test_properties import chain_networks


class TestDotExport:
    def test_contains_nodes_and_edges(self, tiny_net):
        dot = tiny_net.to_dot()
        assert dot.startswith('digraph "tiny"')
        assert '"b1_conv"' in dot
        assert '"b1_relu" -> "b2_conv"' in dot

    def test_blocks_become_clusters(self, tiny_net):
        dot = tiny_net.to_dot()
        assert 'subgraph "cluster_b1"' in dot
        assert 'subgraph "cluster_b2"' in dot

    def test_roles_colored(self, tiny_net):
        dot = tiny_net.to_dot()
        assert "lightblue" in dot      # stem
        assert "lightyellow" in dot    # head

    def test_braces_balanced(self, tiny_net):
        dot = tiny_net.to_dot()
        assert dot.count("{") == dot.count("}")

    def test_zoo_network_exports(self):
        from repro.zoo import build_network

        dot = build_network("mobilenet_v2_1.0").build(0).to_dot()
        assert '"block1_dw"' in dot


class TestDeviceProfiles:
    def test_profiles_registry(self):
        assert set(DEVICE_PROFILES) == {"xavier", "nano", "agx_boosted"}
        for factory in DEVICE_PROFILES.values():
            assert factory().peak_gflops > 0

    def test_strength_ordering(self, tiny_net):
        weak = network_latency(tiny_net, nano()).total_ms
        mid = network_latency(tiny_net, xavier()).total_ms
        strong = network_latency(tiny_net, agx_boosted()).total_ms
        assert weak > mid > strong

    def test_names_distinct(self):
        names = {f().name for f in DEVICE_PROFILES.values()}
        assert len(names) == 3


class TestSerializeProperties:
    @given(net=chain_networks())
    @settings(max_examples=8, deadline=None)
    def test_random_chain_roundtrip(self, net, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ser") / "net.npz")
        save_network(net, path)
        loaded = load_network(path)
        x = np.random.default_rng(0).normal(
            size=(2,) + net.input_shape).astype(np.float32)
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   rtol=1e-5, atol=1e-6)

    @given(net=chain_networks())
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_preserves_structure_metrics(self, net,
                                                   tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ser2") / "net.npz")
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.total_params() == net.total_params()
        assert loaded.total_flops() == net.total_flops()
        assert loaded.block_members() == net.block_members()
