"""Tests for layer removal: block boundaries, cutpoints, TRN construction."""

import numpy as np
import pytest

from repro.trim import (
    attach_head,
    block_boundaries,
    build_trn,
    enumerate_blockwise,
    enumerate_iterative,
    evenly_spaced,
    removed_node_set,
    removed_weighted_layers,
    stem_output,
    trn_node_count,
)



class TestBlockBoundaries:
    def test_tiny_net_blocks(self, tiny_net):
        bounds = block_boundaries(tiny_net)
        assert [b.block_id for b in bounds] == ["b1", "b2", "b3"]
        assert bounds[0].output_node == "b1_relu"
        assert bounds[1].output_node == "b2_add"
        assert bounds[2].output_node == "pool"

    def test_weighted_layer_counts(self, tiny_net):
        bounds = block_boundaries(tiny_net)
        assert all(b.weighted_layers == 1 for b in bounds)

    def test_stem_output(self, tiny_net):
        assert stem_output(tiny_net) == "stem_relu"

    def test_stemless_network_raises(self):
        from repro.nn import Conv2D, Network

        net = Network("nostem", (4, 4, 1))
        net.add("c", Conv2D(2, 3), block_id="b1")
        with pytest.raises(ValueError, match="stem"):
            stem_output(net)


class TestEnumerateBlockwise:
    def test_count_equals_blocks(self, tiny_net):
        assert len(enumerate_blockwise(tiny_net)) == 3

    def test_order_shallow_to_deep(self, tiny_net):
        cuts = enumerate_blockwise(tiny_net)
        assert [c.blocks_removed for c in cuts] == [1, 2, 3]
        assert cuts[0].cut_node == "b2_add"
        assert cuts[-1].cut_node == "stem_relu"

    def test_layers_removed_monotone(self, tiny_net):
        cuts = enumerate_blockwise(tiny_net)
        removed = [c.layers_removed for c in cuts]
        assert removed == sorted(removed)
        assert removed == [1, 2, 3]


class TestEvenlySpaced:
    def test_keeps_endpoints_and_spaces_middles(self):
        assert evenly_spaced(range(13), 3) == [0, 6, 12]
        assert evenly_spaced("abcdefg", 4) == ["a", "c", "e", "g"]
        assert evenly_spaced(range(5), 1) == [0]

    def test_short_lists_and_none_keep_everything(self):
        assert evenly_spaced((1, 2), 5) == [1, 2]
        assert evenly_spaced((1, 2, 3), None) == [1, 2, 3]

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_counts_below_one(self, count):
        with pytest.raises(ValueError, match="max_rungs must be >= 1"):
            evenly_spaced((1, 2, 3), count)


class TestEnumerateIterative:
    def test_superset_of_blockwise(self, tiny_net):
        block_nodes = {c.cut_node for c in enumerate_blockwise(tiny_net)}
        iter_nodes = {c.cut_node for c in enumerate_iterative(tiny_net)}
        assert block_nodes <= iter_nodes

    def test_block_boundary_cuts_annotated(self, tiny_net):
        cuts = {c.cut_node: c for c in enumerate_iterative(tiny_net)}
        assert cuts["b2_add"].blocks_removed == 1
        assert cuts["b2_bn"].blocks_removed is None

    def test_many_more_cutpoints(self):
        from repro.zoo import build_network

        net = build_network("inception_v3").build(0)
        assert len(enumerate_iterative(net)) > 5 * len(
            enumerate_blockwise(net))


class TestBuildTRN:
    def test_structure(self, tiny_net):
        trn = build_trn(tiny_net, "b2_add", num_classes=5)
        assert "b3_conv" not in trn.nodes
        assert trn.output_name == "head_probs"
        for node in ["head_gap", "head_fc1", "head_fc2", "head_logits"]:
            assert node in trn.nodes

    def test_output_is_distribution(self, tiny_net, small_images):
        trn = build_trn(tiny_net, "b1_relu", num_classes=5)
        out = trn.forward(small_images)
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_pretrained_features_copied(self, tiny_net, small_images):
        trn = build_trn(tiny_net, "b2_add", num_classes=5)
        _, base_acts = tiny_net.forward(small_images, capture=["b2_add"])
        _, trn_acts = trn.forward(small_images, capture=["b2_add"])
        np.testing.assert_allclose(trn_acts["b2_add"], base_acts["b2_add"],
                                   rtol=1e-5)

    def test_base_untouched_by_trn_training(self, tiny_net, small_images):
        before = tiny_net.forward(small_images)
        trn = build_trn(tiny_net, "b2_add", num_classes=5)
        trn.nodes["b1_conv"].layer.params["w"].value[:] = 0.0
        np.testing.assert_array_equal(tiny_net.forward(small_images), before)

    def test_default_name_scheme(self, tiny_net):
        trn = build_trn(tiny_net, "b1_relu", num_classes=5)
        assert trn.name == f"tiny/{trn_node_count(trn)}"

    def test_custom_name(self, tiny_net):
        trn = build_trn(tiny_net, "b1_relu", 5, name="custom")
        assert trn.name == "custom"

    def test_flat_cut_tensor_gets_no_gap(self, tiny_net):
        trn = build_trn(tiny_net, "gap", num_classes=5)
        assert "head_gap" not in trn.nodes

    def test_head_initialisation_seeded(self, tiny_net, small_images):
        a = build_trn(tiny_net, "b1_relu", 5, rng=3)
        b = build_trn(tiny_net, "b1_relu", 5, rng=3)
        np.testing.assert_array_equal(a.forward(small_images),
                                      b.forward(small_images))


class TestAttachHead:
    def test_rejects_bad_rank(self, tiny_net):
        sub = tiny_net.subgraph("b1_relu")
        sub.add("flat", __import__("repro.nn", fromlist=["Flatten"]).Flatten())
        sub.build(0)
        # Flatten output is rank-1: allowed (dense attaches directly)
        attach_head(sub, 5)


class TestRemovedCounts:
    def test_removed_node_set_partition(self, tiny_net):
        removed = removed_node_set(tiny_net, "b2_add")
        kept = set(tiny_net.nodes) - removed
        assert "b3_conv" in removed
        assert "b2_add" in kept and "input" in kept
        assert "logits" in removed  # old head is removed too

    def test_removed_weighted_layers_excludes_head(self, tiny_net):
        # cutting at b2_add removes only b3_conv among weighted feature layers
        assert removed_weighted_layers(tiny_net, "b2_add") == 1

    def test_zoo_deepest_cut_removes_all_feature_layers(self):
        from repro.zoo import build_network

        net = build_network("mobilenet_v1_0.5").build(0)
        cuts = enumerate_blockwise(net)
        assert cuts[-1].layers_removed == 26  # 13 blocks x 2 layers
