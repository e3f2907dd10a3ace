"""Tests for the model zoo: structure, counts, determinism."""

import numpy as np
import pytest

from repro.trim import build_trn, enumerate_blockwise, removed_node_set
from repro.zoo import (
    NETWORKS,
    build_network,
    network_spec,
    scale_channels,
)

#: Expected weighted-layer counts (conv + dense), mirroring the originals.
EXPECTED_LAYERS = {
    "mobilenet_v1_0.25": 28,
    "mobilenet_v1_0.5": 28,
    "mobilenet_v2_1.0": 53,
    "mobilenet_v2_1.4": 53,
    "inception_v3": 95,
    "resnet50": 54,       # 50 + 4 projection shortcuts
    "densenet121": 121,
}

#: Expected removable feature blocks per network.
EXPECTED_BLOCKS = {
    "mobilenet_v1_0.25": 13,
    "mobilenet_v1_0.5": 13,
    "mobilenet_v2_1.0": 17,
    "mobilenet_v2_1.4": 17,
    "inception_v3": 11,
    "resnet50": 16,
    "densenet121": 61,
}


@pytest.fixture(scope="module")
def built_networks():
    return {name: build_network(name).build(0) for name in NETWORKS}


class TestRegistry:
    def test_seven_networks(self):
        assert len(NETWORKS) == 7

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown network"):
            network_spec("vgg16")

    def test_spec_metadata(self):
        spec = network_spec("mobilenet_v1_0.5")
        assert spec.family == "mobilenet_v1"
        assert spec.alpha == 0.5

    def test_scale_channels_clamps(self):
        assert scale_channels(1, alpha=0.25) == 3
        assert scale_channels(1024, alpha=1.0) == 1024 // 4


class TestStructure:
    @pytest.mark.parametrize("name", NETWORKS)
    def test_layer_counts_match_originals(self, built_networks, name):
        assert built_networks[name].layer_count() == EXPECTED_LAYERS[name]

    @pytest.mark.parametrize("name", NETWORKS)
    def test_block_counts(self, built_networks, name):
        assert len(built_networks[name].block_members()) == EXPECTED_BLOCKS[name]

    def test_total_trn_candidates_is_148(self, built_networks):
        """The paper's blockwise search space: 148 TRNs over 7 networks."""
        total = sum(len(enumerate_blockwise(net))
                    for net in built_networks.values())
        assert total == 148

    @pytest.mark.parametrize("name", NETWORKS)
    def test_forward_is_distribution(self, built_networks, name, rng):
        x = rng.normal(size=(2, 32, 32, 3)).astype(np.float32)
        out = built_networks[name].forward(x)
        assert out.shape == (2, 20)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)

    def test_width_multiplier_orders_params(self, built_networks):
        assert (built_networks["mobilenet_v1_0.25"].total_params()
                < built_networks["mobilenet_v1_0.5"].total_params())
        assert (built_networks["mobilenet_v2_1.0"].total_params()
                < built_networks["mobilenet_v2_1.4"].total_params())

    def test_flops_orderings(self, built_networks):
        """Inception is the heaviest network, MobileNetV1(0.25) the lightest."""
        flops = {n: net.total_flops() for n, net in built_networks.items()}
        assert max(flops, key=flops.get) == "inception_v3"
        assert min(flops, key=flops.get) == "mobilenet_v1_0.25"

    @pytest.mark.parametrize("name", NETWORKS)
    def test_roles_partition(self, built_networks, name):
        net = built_networks[name]
        roles = {node.role for node in net.nodes.values()}
        assert roles == {"stem", "feature", "head"}

    @pytest.mark.parametrize("name", NETWORKS)
    def test_feature_nodes_all_have_block_ids(self, built_networks, name):
        net = built_networks[name]
        for node in net.nodes.values():
            if node.role == "feature":
                assert node.block_id is not None, node.name

    @pytest.mark.parametrize("name", NETWORKS)
    def test_profiler_prices_the_complement_of_each_trn(self, built_networks,
                                                        name):
        """Algorithm 1 retrains ``build_trn(base, cut)``; the profiler
        estimator prices the kernels of ``removed_node_set(base, cut)``.
        At every blockwise cutpoint the two partition the base network."""
        base = built_networks[name]
        for cut in enumerate_blockwise(base):
            trn = build_trn(base, cut.cut_node, 5)
            kept = {n for n, node in trn.nodes.items() if node.role != "head"}
            assert kept == base.ancestors(cut.cut_node)
            assert kept == set(base.nodes) - removed_node_set(base,
                                                              cut.cut_node)


class TestDeterminism:
    def test_same_seed_same_weights(self, rng):
        a = build_network("resnet50").build(7)
        b = build_network("resnet50").build(7)
        x = rng.normal(size=(1, 32, 32, 3)).astype(np.float32)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_different_seed_different_weights(self, rng):
        a = build_network("mobilenet_v1_0.5").build(1)
        b = build_network("mobilenet_v1_0.5").build(2)
        x = rng.normal(size=(1, 32, 32, 3)).astype(np.float32)
        assert not np.allclose(a.forward(x), b.forward(x))


class TestResolutionFlexibility:
    def test_custom_input_shape(self, rng):
        net = build_network("mobilenet_v1_0.5", input_shape=(64, 64, 3))
        net.build(0)
        x = rng.normal(size=(1, 64, 64, 3)).astype(np.float32)
        assert net.forward(x).shape == (1, 20)

    def test_custom_class_count(self, rng):
        net = build_network("resnet50", num_classes=7).build(0)
        x = rng.normal(size=(1, 32, 32, 3)).astype(np.float32)
        assert net.forward(x).shape == (1, 7)
