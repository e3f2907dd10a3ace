"""Property-based tests (hypothesis) on core invariants.

These complement the unit suites with randomised structural checks: shape
algebra of layers, fusion partitions, latency-model monotonicity, trim
consistency, SVR behaviour and metric axioms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.latency import kernel_latency_ms, network_latency
from repro.device.spec import DeviceSpec
from repro.estimators import SVR
from repro.metrics import angular_distance
from repro.nn import BatchNorm, Conv2D, Dense, DepthwiseConv2D, GlobalAvgPool, Network, ReLU
from repro.nn.compile import fuse_kernels
from repro.trim import build_trn, enumerate_blockwise, removed_node_set

# -- strategies -------------------------------------------------------------

conv_params = st.tuples(
    st.integers(1, 8),            # filters
    st.sampled_from([1, 3, 5]),   # kernel
    st.sampled_from([1, 2]),      # stride
    st.sampled_from(["same", "valid"]),
)


@st.composite
def chain_networks(draw):
    """Random sequential CNNs with tagged blocks."""
    depth = draw(st.integers(1, 4))
    net = Network("rand", (8, 8, 2))
    net.add("stem", Conv2D(draw(st.integers(2, 4)), 3), role="stem",
            block_id="stem")
    prev = "stem"
    for b in range(depth):
        filters = draw(st.integers(2, 6))
        net.add(f"b{b}_conv", Conv2D(filters, 3), inputs=prev,
                block_id=f"b{b}")
        net.add(f"b{b}_bn", BatchNorm(), block_id=f"b{b}")
        net.add(f"b{b}_relu", ReLU(), block_id=f"b{b}")
        prev = f"b{b}_relu"
    net.add("gap", GlobalAvgPool(), role="head")
    net.add("fc", Dense(3), role="head")
    return net.build(draw(st.integers(0, 100)))


# -- shape algebra ------------------------------------------------------------

class TestShapeAlgebra:
    @given(params=conv_params, h=st.integers(3, 12), c=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_conv_out_shape_matches_forward(self, params, h, c):
        filters, kernel, stride, padding = params
        if padding == "valid" and kernel > h:
            return
        conv = Conv2D(filters, kernel, stride, padding)
        conv.build([(h, h, c)], np.random.default_rng(0))
        x = np.zeros((2, h, h, c), dtype=np.float32)
        out = conv.forward([x])
        assert out.shape[1:] == conv.out_shape([(h, h, c)])

    @given(kernel=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]),
           h=st.integers(3, 12), c=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_depthwise_out_shape_matches_forward(self, kernel, stride, h, c):
        dw = DepthwiseConv2D(kernel, stride)
        dw.build([(h, h, c)], np.random.default_rng(0))
        x = np.zeros((1, h, h, c), dtype=np.float32)
        assert dw.forward([x]).shape[1:] == dw.out_shape([(h, h, c)])

    @given(net=chain_networks())
    @settings(max_examples=15, deadline=None)
    def test_network_shapes_consistent_with_forward(self, net):
        x = np.zeros((2,) + net.input_shape, dtype=np.float32)
        out, acts = net.forward(x, capture=list(net.nodes)[1:])
        for name, act in acts.items():
            assert act.shape[1:] == net.shape_of(name), name


# -- fusion --------------------------------------------------------------------

class TestFusionProperties:
    @given(net=chain_networks(), enabled=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_fusion_is_a_partition(self, net, enabled):
        groups = fuse_kernels(net, enabled=enabled)
        names = [n for g in groups for n in g.node_names]
        expected = [n for n in net.nodes if n != "input"]
        assert sorted(names) == sorted(expected)

    @given(net=chain_networks())
    @settings(max_examples=15, deadline=None)
    def test_fused_never_more_kernels(self, net):
        assert len(fuse_kernels(net, True)) <= len(fuse_kernels(net, False))


# -- latency model ---------------------------------------------------------------

class TestLatencyProperties:
    SPEC = DeviceSpec("p", 10, 1, 5, 1e4)

    @given(f1=st.floats(1, 1e8), f2=st.floats(1, 1e8),
           b=st.floats(1, 1e7))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_flops(self, f1, f2, b):
        lo, hi = sorted((f1, f2))
        assert (kernel_latency_ms(lo, b, self.SPEC)
                <= kernel_latency_ms(hi, b, self.SPEC) + 1e-12)

    @given(net=chain_networks())
    @settings(max_examples=10, deadline=None)
    def test_network_latency_positive_and_additive(self, net):
        bd = network_latency(net, self.SPEC)
        assert bd.total_ms > 0
        assert bd.total_ms == pytest.approx(
            sum(k.latency_ms for k in bd.kernels))

    @given(net=chain_networks())
    @settings(max_examples=10, deadline=None)
    def test_every_prefix_is_cheaper(self, net):
        full = network_latency(net, self.SPEC).total_ms
        for cut in enumerate_blockwise(net):
            sub = net.subgraph(cut.cut_node)
            assert network_latency(sub, self.SPEC).total_ms < full


# -- trim ---------------------------------------------------------------------

class TestTrimProperties:
    @given(net=chain_networks())
    @settings(max_examples=10, deadline=None)
    def test_cutpoints_partition_consistently(self, net):
        """kept ∪ removed == all nodes, for every blockwise cutpoint."""
        for cut in enumerate_blockwise(net):
            removed = removed_node_set(net, cut.cut_node)
            assert cut.cut_node not in removed
            assert "input" not in removed
            kept = set(net.nodes) - removed
            # every kept node's inputs are kept (the subgraph is closed)
            for name in kept:
                assert set(net.nodes[name].inputs) <= kept

    @given(net=chain_networks())
    @settings(max_examples=8, deadline=None)
    def test_trn_always_outputs_distribution(self, net):
        x = np.random.default_rng(0).normal(
            size=(3,) + net.input_shape).astype(np.float32)
        for cut in enumerate_blockwise(net):
            trn = build_trn(net, cut.cut_node, num_classes=4)
            out = trn.forward(x)
            assert out.shape == (3, 4)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)

    @given(net=chain_networks())
    @settings(max_examples=8, deadline=None)
    def test_deeper_cuts_remove_more_layers(self, net):
        removed = [c.layers_removed for c in enumerate_blockwise(net)]
        assert removed == sorted(removed)


# -- estimators ------------------------------------------------------------------

class TestSVRProperties:
    @given(seed=st.integers(0, 50), scale=st.floats(0.1, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_target_scale_equivariance(self, seed, scale):
        """Scaling targets scales predictions (standardised features)."""
        r = np.random.default_rng(seed)
        x = r.normal(size=(20, 2))
        y = 1.0 + x[:, 0] + 0.2 * np.sin(x[:, 1])
        a = SVR(c=1e5, gamma=0.5, epsilon=1e-6).fit(x, y).predict(x)
        b = SVR(c=1e5, gamma=0.5, epsilon=1e-6).fit(x, y * scale).predict(x)
        np.testing.assert_allclose(b, a * scale, rtol=0.05, atol=1e-3 * scale)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_feature_shift_invariance(self, seed):
        """Internal standardisation makes predictions shift-invariant."""
        r = np.random.default_rng(seed)
        x = r.normal(size=(20, 3))
        y = x[:, 0] ** 2 + 2.0
        a = SVR(c=1e4, gamma=0.5).fit(x, y).predict(x)
        b = SVR(c=1e4, gamma=0.5).fit(x + 100.0, y).predict(x + 100.0)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)


# -- metrics ----------------------------------------------------------------------

class TestMetricProperties:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_angular_distance_triangle_like(self, seed):
        """Angular distance (arccos of cosine) obeys the triangle
        inequality on the sphere."""
        r = np.random.default_rng(seed)
        p, q, s = (r.random(4) + 1e-3 for _ in range(3))
        p, q, s = p / p.sum(), q / q.sum(), s / s.sum()
        d = angular_distance
        assert d(p, s) <= d(p, q) + d(q, s) + 1e-9

    @given(seed=st.integers(0, 200), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_angular_distance_scale_invariant(self, seed, scale):
        r = np.random.default_rng(seed)
        p = r.random(5) + 1e-3
        q = r.random(5) + 1e-3
        assert angular_distance(p, q) == pytest.approx(
            float(angular_distance(p * scale, q)), abs=1e-9)
