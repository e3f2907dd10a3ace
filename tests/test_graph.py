"""Tests for the Network DAG: construction, execution, edits, persistence."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Add, Conv2D, Dense, GlobalAvgPool, Network, ReLU
from repro.nn.losses import softmax_cross_entropy

from conftest import make_tiny_net


class TestConstruction:
    def test_duplicate_name_rejected(self, tiny_net):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_net.add("b1_conv", ReLU())

    def test_unknown_input_rejected(self):
        net = Network("n", (4, 4, 1))
        with pytest.raises(ValueError, match="unknown node"):
            net.add("a", ReLU(), inputs=["missing"])

    def test_unknown_role_rejected(self):
        net = Network("n", (4, 4, 1))
        with pytest.raises(ValueError, match="role"):
            net.add("a", ReLU(), role="classifier")

    def test_default_input_is_previous_node(self):
        net = Network("n", (4, 4, 1))
        net.add("a", Conv2D(2, 3))
        net.add("b", ReLU())
        assert net.nodes["b"].inputs == ["a"]

    def test_forward_requires_build(self):
        net = Network("n", (4, 4, 1))
        net.add("a", Conv2D(2, 3))
        with pytest.raises(RuntimeError, match="built"):
            net.forward(np.zeros((1, 4, 4, 1), dtype=np.float32))


class TestExecution:
    def test_forward_shape(self, tiny_net, small_images):
        out = tiny_net.forward(small_images)
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), rtol=1e-5)

    def test_capture_returns_requested_activations(self, tiny_net,
                                                   small_images):
        out, acts = tiny_net.forward(small_images, capture=["b1_relu", "gap"])
        assert set(acts) == {"b1_relu", "gap"}
        assert acts["b1_relu"].shape == (6, 8, 8, 4)
        assert acts["gap"].shape == (6, 4)

    def test_forward_deterministic(self, tiny_net, small_images):
        a = tiny_net.forward(small_images)
        b = tiny_net.forward(small_images)
        np.testing.assert_array_equal(a, b)

    def test_residual_add_receives_both_branches(self, tiny_net,
                                                 small_images):
        out, acts = tiny_net.forward(
            small_images, capture=["b1_relu", "b2_relu", "b2_add"])
        np.testing.assert_allclose(
            acts["b2_add"], acts["b1_relu"] + acts["b2_relu"], rtol=1e-5)

    def test_forward_backward_training_reduces_loss(self, tiny_net,
                                                    small_images,
                                                    soft_labels):
        from repro.nn import Adam

        tiny_net.output_name = "logits"
        optimizer = Adam(5e-3)
        first = None
        for _ in range(30):
            tiny_net.zero_grad()
            _, loss = tiny_net.forward_backward(
                small_images, loss_fn=softmax_cross_entropy, y=soft_labels,
                training=True)
            optimizer.step(tiny_net.parameters())
            first = first if first is not None else loss
        assert loss < first

    def test_forward_backward_needs_loss_or_grad(self, tiny_net,
                                                 small_images):
        with pytest.raises(ValueError):
            tiny_net.forward_backward(small_images)


class TestFreezing:
    def test_freeze_all_blocks_param_iteration(self, tiny_net):
        tiny_net.freeze()
        assert list(tiny_net.parameters()) == []
        assert len(list(tiny_net.parameters(trainable_only=False))) > 0

    def test_freeze_predicate(self, tiny_net):
        tiny_net.freeze(lambda node: node.role != "head")
        names = [name for name, _ in tiny_net.parameters()]
        assert names == ["logits.w", "logits.b"]

    def test_unfreeze_restores(self, tiny_net):
        tiny_net.freeze()
        tiny_net.unfreeze()
        assert len(list(tiny_net.parameters())) > 0


class TestAnalysis:
    def test_total_params_positive_and_consistent(self, tiny_net):
        total = tiny_net.total_params()
        manual = sum(p.size for _, p in tiny_net.parameters(False))
        assert total == manual > 0

    def test_layer_count_counts_weighted_layers(self, tiny_net):
        # stem conv + 3 block convs + head dense
        assert tiny_net.layer_count() == 5
        assert tiny_net.layer_count(roles=("feature",)) == 3

    def test_block_ids_in_order(self, tiny_net):
        assert list(tiny_net.block_members()) == ["b1", "b2", "b3"]

    def test_describe_contains_nodes(self, tiny_net):
        text = tiny_net.describe()
        assert "b2_add" in text
        assert "total params" in text

    def test_total_flops_matches_sum(self, tiny_net):
        manual = sum(node.layer.flops(tiny_net.in_shapes(node.name))
                     for node in tiny_net.nodes.values())
        assert tiny_net.total_flops() == manual


class TestStructuralQueries:
    def test_consumers_list_each_reader(self, tiny_net):
        users = tiny_net.consumers()
        assert users["b1_relu"] == ["b2_conv", "b2_add"]
        assert users["probs"] == []
        assert set(users) == set(tiny_net.nodes)

    def test_block_members_group_feature_nodes(self, tiny_net):
        members = tiny_net.block_members()
        assert members["b2"] == ["b2_conv", "b2_bn", "b2_relu", "b2_add"]
        assert members["b3"][-1] == "pool"
        assert "stem" not in members  # stem-role nodes are not blocks


class TestGradientBuffers:
    def test_build_allocates_no_gradient_memory(self):
        def wide():
            net = Network("wide", (256,))
            net.add("fc", Dense(512, use_bias=False))
            return net

        wide().build(0)  # one-time allocations outside the measurement
        net = wide()
        tracemalloc.start()
        try:
            net.build(0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weight_bytes = 256 * 512 * 4
        assert weight_bytes <= held < 1.5 * weight_bytes

    def test_grad_allocated_on_first_read(self, tiny_net, small_images):
        w = tiny_net.nodes["logits"].layer.params["w"]
        tiny_net.zero_grad()  # nothing to reset: stays unallocated
        assert all(p._grad is None for _, p in tiny_net.parameters())
        np.testing.assert_array_equal(w.grad, np.zeros_like(w.value))
        tiny_net.forward_backward(small_images, loss_fn=softmax_cross_entropy,
                                  y=np.full((len(small_images), 5), 0.2,
                                            np.float32))
        assert np.abs(w.grad).sum() > 0
        assert all(p._grad is None
                   for _, p in tiny_net.subgraph("b2_add").parameters())
        tiny_net.zero_grad()
        assert not w.grad.any()


class TestStructuralEdits:
    def test_copy_is_independent(self, tiny_net, small_images):
        clone = tiny_net.copy()
        before = tiny_net.forward(small_images)
        clone.nodes["logits"].layer.params["w"].value[:] = 0.0
        after = tiny_net.forward(small_images)
        np.testing.assert_array_equal(before, after)

    def test_copy_forward_equal(self, tiny_net, small_images):
        clone = tiny_net.copy()
        np.testing.assert_allclose(clone.forward(small_images),
                                   tiny_net.forward(small_images), rtol=1e-6)

    def test_subgraph_drops_unneeded_nodes(self, tiny_net):
        sub = tiny_net.subgraph("b1_relu")
        assert "b2_conv" not in sub.nodes
        assert "logits" not in sub.nodes
        assert sub.output_name == "b1_relu"

    def test_subgraph_keeps_weights(self, tiny_net, small_images):
        sub = tiny_net.subgraph("b2_add")
        _, acts = tiny_net.forward(small_images, capture=["b2_add"])
        np.testing.assert_allclose(sub.forward(small_images), acts["b2_add"],
                                   rtol=1e-5)

    def test_subgraph_unknown_node(self, tiny_net):
        with pytest.raises(KeyError):
            tiny_net.subgraph("nope")


class TestStateDict:
    def test_roundtrip(self, small_images):
        a = make_tiny_net()
        b = make_tiny_net()
        # different init seeds would be needed for a real difference; force one
        b.nodes["logits"].layer.params["w"].value[:] = 9.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.forward(small_images),
                                   a.forward(small_images), rtol=1e-6)

    def test_includes_running_stats(self, tiny_net, small_images):
        tiny_net.forward(small_images, training=True)
        state = tiny_net.state_dict()
        assert "b1_bn.running_mean" in state

    def test_strict_missing_key_raises(self, tiny_net):
        state = tiny_net.state_dict()
        del state["logits.w"]
        with pytest.raises(KeyError):
            tiny_net.load_state_dict(state)

    def test_non_strict_ignores_missing(self, tiny_net):
        state = tiny_net.state_dict()
        del state["logits.w"]
        tiny_net.load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self, tiny_net):
        state = tiny_net.state_dict()
        state["logits.w"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            tiny_net.load_state_dict(state)


class TestMemoryManagement:
    def test_activations_freed_during_forward(self):
        """Intermediate activations not in capture should be freed; the
        graph must still produce correct output with branching topology."""
        net = Network("branchy", (4, 4, 2))
        net.add("c1", Conv2D(3, 3))
        net.add("r1", ReLU())
        net.add("c2a", Conv2D(3, 3), inputs="r1")
        net.add("c2b", Conv2D(3, 3), inputs="r1")
        net.add("add", Add(), inputs=["c2a", "c2b"])
        net.add("gap", GlobalAvgPool())
        net.add("fc", Dense(2))
        net.build(0)
        x = np.random.default_rng(0).normal(size=(2, 4, 4, 2)).astype(np.float32)
        assert net.forward(x).shape == (2, 2)
