"""Unit tests for layer forward semantics, shapes, FLOPs and parameters."""

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
    Input,
    MaxPool2D,
    ReLU6,
    Softmax,
)


def build(layer, in_shapes, seed=0):
    layer.build(in_shapes, np.random.default_rng(seed))
    return layer


class TestConv2D:
    def test_output_shape_same(self, rng):
        conv = build(Conv2D(8, 3, stride=2, padding="same"), [(9, 9, 3)])
        x = rng.normal(size=(2, 9, 9, 3)).astype(np.float32)
        out = conv.forward([x])
        assert out.shape == (2, 5, 5, 8)
        assert conv.out_shape([(9, 9, 3)]) == (5, 5, 8)

    def test_output_shape_valid(self, rng):
        conv = build(Conv2D(4, 3, stride=1, padding="valid"), [(8, 8, 2)])
        out = conv.forward([rng.normal(size=(1, 8, 8, 2)).astype(np.float32)])
        assert out.shape == (1, 6, 6, 4)

    def test_identity_kernel(self):
        conv = build(Conv2D(1, 1, use_bias=False), [(4, 4, 1)])
        conv.params["w"].value = np.ones((1, 1, 1, 1), dtype=np.float32)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        np.testing.assert_allclose(conv.forward([x]), x)

    def test_bias_added(self, rng):
        conv = build(Conv2D(2, 1), [(3, 3, 1)])
        conv.params["w"].value[:] = 0.0
        conv.params["b"].value[:] = np.array([1.5, -2.0])
        out = conv.forward([rng.normal(size=(1, 3, 3, 1)).astype(np.float32)])
        np.testing.assert_allclose(out[..., 0], 1.5)
        np.testing.assert_allclose(out[..., 1], -2.0)

    def test_rect_kernel(self, rng):
        conv = build(Conv2D(2, (1, 7)), [(4, 4, 3)])
        out = conv.forward([rng.normal(size=(1, 4, 4, 3)).astype(np.float32)])
        assert out.shape == (1, 4, 4, 2)

    def test_param_count(self):
        conv = build(Conv2D(8, 3), [(4, 4, 3)])
        assert conv.param_count() == 3 * 3 * 3 * 8 + 8

    def test_flops(self):
        conv = Conv2D(8, 3, stride=1, padding="same", use_bias=False)
        # 4*4 positions * 8 filters * 27 mults * 2
        assert conv.flops([(4, 4, 3)]) == 4 * 4 * 8 * 27 * 2

    def test_rejects_unknown_padding(self):
        with pytest.raises(ValueError):
            Conv2D(4, 3, padding="reflect")


class TestDepthwiseConv2D:
    def test_preserves_channels(self, rng):
        dw = build(DepthwiseConv2D(3, stride=1), [(6, 6, 5)])
        out = dw.forward([rng.normal(size=(2, 6, 6, 5)).astype(np.float32)])
        assert out.shape == (2, 6, 6, 5)

    def test_channels_independent(self, rng):
        """Each output channel must depend only on its input channel."""
        dw = build(DepthwiseConv2D(3), [(5, 5, 2)])
        x = rng.normal(size=(1, 5, 5, 2)).astype(np.float32)
        base = dw.forward([x])
        x2 = x.copy()
        x2[..., 1] += 10.0
        out = dw.forward([x2])
        np.testing.assert_allclose(out[..., 0], base[..., 0], rtol=1e-5)
        assert not np.allclose(out[..., 1], base[..., 1])

    def test_matches_conv_with_diagonal_kernel(self, rng):
        """Depthwise == full conv whose kernel is channel-diagonal."""
        c = 3
        dw = build(DepthwiseConv2D(3, use_bias=False), [(6, 6, c)])
        full = build(Conv2D(c, 3, use_bias=False), [(6, 6, c)])
        full.params["w"].value[:] = 0.0
        for ch in range(c):
            full.params["w"].value[:, :, ch, ch] = dw.params["w"].value[:, :, ch]
        x = rng.normal(size=(1, 6, 6, c)).astype(np.float32)
        np.testing.assert_allclose(dw.forward([x]), full.forward([x]),
                                   rtol=1e-5, atol=1e-6)

    def test_flops_smaller_than_full_conv(self):
        shape = [(8, 8, 16)]
        assert DepthwiseConv2D(3).flops(shape) < Conv2D(16, 3).flops(shape)


class TestDense:
    def test_matrix_multiply(self, rng):
        dense = build(Dense(4), [(3,)])
        x = rng.normal(size=(2, 3)).astype(np.float32)
        expected = x @ dense.params["w"].value + dense.params["b"].value
        np.testing.assert_allclose(dense.forward([x]), expected, rtol=1e-6)

    def test_no_bias(self):
        dense = build(Dense(4, use_bias=False), [(3,)])
        assert "b" not in dense.params
        assert dense.param_count() == 12


class TestBatchNorm:
    def test_training_normalises(self, rng):
        bn = build(BatchNorm(), [(4, 4, 3)])
        x = (rng.normal(size=(8, 4, 4, 3)) * 5 + 2).astype(np.float32)
        out = bn.forward([x], training=True)
        assert abs(out.mean()) < 1e-5
        assert out.std() == pytest.approx(1.0, rel=1e-2)

    def test_running_stats_updated(self, rng):
        bn = build(BatchNorm(momentum=0.0), [(3,)])
        x = (rng.normal(size=(100, 3)) + 4.0).astype(np.float32)
        bn.forward([x], training=True)
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=0), rtol=1e-4)

    def test_inference_uses_running_stats(self, rng):
        bn = build(BatchNorm(momentum=0.0), [(3,)])
        x = rng.normal(size=(50, 3)).astype(np.float32)
        bn.forward([x], training=True)
        single = x[:1] * 0 + 100.0
        out = bn.forward([single], training=False)
        expected = (100.0 - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(out[0], expected, rtol=1e-4)

    def test_gamma_beta_applied(self, rng):
        bn = build(BatchNorm(), [(2,)])
        bn.params["gamma"].value[:] = 3.0
        bn.params["beta"].value[:] = -1.0
        x = rng.normal(size=(20, 2)).astype(np.float32)
        out = bn.forward([x], training=True)
        assert out.mean() == pytest.approx(-1.0, abs=1e-5)


class TestPooling:
    def test_maxpool(self):
        mp = MaxPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = mp.forward([x])
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_avgpool(self):
        ap = AvgPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = ap.forward([x])
        np.testing.assert_allclose(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_same_padding_pool(self, rng):
        mp = MaxPool2D(3, 2, "same")
        x = rng.normal(size=(1, 5, 5, 2)).astype(np.float32)
        assert mp.forward([x]).shape == (1, 3, 3, 2)

    def test_maxpool_same_ignores_padding_fill(self):
        """Padded positions must never win the max (fill = -inf)."""
        mp = MaxPool2D(3, 2, "same")
        x = np.full((1, 5, 5, 1), -7.0, dtype=np.float32)
        out = mp.forward([x])
        np.testing.assert_allclose(out, -7.0)

    def test_global_avg_pool(self, rng):
        gap = GlobalAvgPool()
        x = rng.normal(size=(3, 4, 5, 6)).astype(np.float32)
        np.testing.assert_allclose(gap.forward([x]), x.mean(axis=(1, 2)),
                                   rtol=1e-6)


class TestElementwiseAndShape:
    def test_relu6_layer(self):
        out = ReLU6().forward([np.array([-2.0, 3.0, 8.0])])
        np.testing.assert_allclose(out, [0.0, 3.0, 6.0])

    def test_add_multiple(self, rng):
        x = rng.normal(size=(2, 3)).astype(np.float32)
        out = Add().forward([x, x, x])
        np.testing.assert_allclose(out, 3 * x, rtol=1e-6)

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Add().out_shape([(2, 2, 3), (2, 2, 4)])

    def test_concat(self, rng):
        a = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        b = rng.normal(size=(2, 4, 4, 5)).astype(np.float32)
        out = Concat().forward([a, b])
        assert out.shape == (2, 4, 4, 8)
        np.testing.assert_allclose(out[..., :3], a)

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Concat().out_shape([(4, 4, 3), (2, 2, 3)])

    def test_flatten(self, rng):
        x = rng.normal(size=(2, 3, 3, 2)).astype(np.float32)
        out = Flatten().forward([x])
        assert out.shape == (2, 18)

    def test_softmax_layer(self, rng):
        out = Softmax().forward([rng.normal(size=(4, 5))])
        np.testing.assert_allclose(out.sum(axis=1), np.ones(4), rtol=1e-6)


class TestDropout:
    def test_identity_at_inference(self, rng):
        drop = Dropout(0.5)
        x = rng.normal(size=(4, 10)).astype(np.float32)
        np.testing.assert_allclose(drop.forward([x], training=False), x)

    def test_scales_at_training(self):
        drop = Dropout(0.5, seed=0)
        x = np.ones((2000, 10), dtype=np.float32)
        out = drop.forward([x], training=True)
        # inverted dropout keeps the expectation
        assert out.mean() == pytest.approx(1.0, rel=0.05)
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestFrozen:
    def test_frozen_conv_accumulates_no_grad(self, rng):
        conv = build(Conv2D(2, 3), [(4, 4, 1)])
        conv.frozen = True
        x = rng.normal(size=(1, 4, 4, 1)).astype(np.float32)
        out = conv.forward([x])
        conv.backward(np.ones_like(out))
        assert np.all(conv.params["w"].grad == 0.0)

    def test_frozen_still_propagates_input_grad(self, rng):
        conv = build(Conv2D(2, 3), [(4, 4, 1)])
        conv.frozen = True
        x = rng.normal(size=(1, 4, 4, 1)).astype(np.float32)
        out = conv.forward([x])
        (dx,) = conv.backward(np.ones_like(out))
        assert dx.shape == x.shape
        assert np.any(dx != 0.0)


class TestConfig:
    @pytest.mark.parametrize("layer", [
        Input((4, 4, 2)),
        Conv2D(3, (1, 2), stride=2, padding="valid", use_bias=False),
        DepthwiseConv2D(5, stride=2, use_bias=True),
        Dense(7, use_bias=False),
        BatchNorm(momentum=0.5, eps=1e-2),
        MaxPool2D(3, stride=1, padding="same"),
        AvgPool2D(2, stride=1),
        Dropout(0.2),
        Add(),
    ], ids=lambda layer: type(layer).__name__)
    def test_config_rebuilds_the_layer(self, layer):
        """A layer's config() is its constructor arguments: the layer it
        rebuilds has the same public attributes."""
        def public(obj):
            return {k: v for k, v in vars(obj).items()
                    if not k.startswith("_")}

        assert public(type(layer)(**layer.config())) == public(layer)
