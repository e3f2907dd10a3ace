"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.data import make_hands_dataset
from repro.device import DeviceSpec, measure_latency, network_latency
from repro.estimators import SVR, LinearRegression
from repro.nn import Dense, Network
from repro.trim import build_trn, enumerate_blockwise

from conftest import make_tiny_net


class TestDegenerateInputs:
    def test_single_example_batch(self, tiny_net):
        x = np.zeros((1, 8, 8, 3), dtype=np.float32)
        assert tiny_net.forward(x).shape == (1, 5)

    def test_single_example_training_step(self, tiny_net):
        """Batch-norm with batch size 1 must not produce NaNs."""
        from repro.nn.losses import softmax_cross_entropy

        x = np.random.default_rng(0).normal(size=(1, 8, 8, 3)).astype(
            np.float32)
        y = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]], dtype=np.float32)
        tiny_net.output_name = "logits"
        tiny_net.zero_grad()
        out, loss = tiny_net.forward_backward(
            x, loss_fn=softmax_cross_entropy, y=y, training=True)
        assert np.isfinite(out).all() and np.isfinite(loss)

    def test_constant_input_images(self, tiny_net):
        x = np.full((4, 8, 8, 3), 0.5, dtype=np.float32)
        out = tiny_net.forward(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)

    def test_extreme_magnitude_inputs(self, tiny_net):
        x = np.full((2, 8, 8, 3), 1e4, dtype=np.float32)
        out = tiny_net.forward(x)
        assert np.isfinite(out).all()

    def test_dataset_split_extremes(self):
        data = make_hands_dataset(10, seed=0)
        train, test = data.split(1.0, rng=0)
        assert len(train) == 10 and len(test) == 0


class TestDeviceEdgeCases:
    def test_zero_noise_measurement_equals_model(self, tiny_net):
        spec = DeviceSpec("exact", 10, 1, 5, 1e4, noise_std=0.0,
                          straggler_prob=0.0, warmup_factor=0.0)
        measured = measure_latency(tiny_net, spec, rng=0).mean_ms
        model = network_latency(tiny_net, spec).total_ms
        assert measured == pytest.approx(model, rel=1e-12)

    def test_huge_noise_still_positive(self, tiny_net):
        spec = DeviceSpec("noisy", 10, 1, 5, 1e4, noise_std=0.5)
        result = measure_latency(tiny_net, spec, rng=1)
        assert result.mean_ms > 0

    def test_single_run_measurement(self, tiny_net, tiny_device):
        result = measure_latency(tiny_net, tiny_device, warmup=0, runs=1)
        assert result.runs == 1
        assert result.std_ms == 0.0

    def test_identity_network_latency(self):
        """A network with only a dense head still has finite latency."""
        net = Network("min", (4,))
        net.add("fc", Dense(2))
        net.build(0)
        spec = DeviceSpec("d", 10, 1, 5, 1e4)
        assert network_latency(net, spec).total_ms > 0


class TestEstimatorEdgeCases:
    def test_svr_single_feature(self):
        x = np.linspace(0, 1, 15)[:, None]
        y = 2.0 + x[:, 0]
        model = SVR(c=100, gamma=1.0, epsilon=1e-4).fit(x, y)
        assert np.isfinite(model.predict(x)).all()

    def test_svr_duplicate_rows(self):
        x = np.ones((10, 2))
        y = np.full(10, 3.0)
        model = SVR(c=10, gamma=0.1).fit(x, y)
        np.testing.assert_allclose(model.predict(x), 3.0, rtol=0.05)

    def test_svr_constant_feature_column(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.random(20), np.full(20, 7.0)])
        y = 1.0 + x[:, 0]
        model = SVR(c=100, gamma=0.5, epsilon=1e-4).fit(x, y)
        assert np.isfinite(model.predict(x)).all()

    def test_linear_regression_underdetermined(self):
        x = np.random.default_rng(0).random((3, 5))
        y = np.array([1.0, 2.0, 3.0])
        model = LinearRegression().fit(x, y)
        assert np.isfinite(model.predict(x)).all()

    def test_svr_two_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        model = SVR(c=100, gamma=1.0, epsilon=1e-5).fit(x, y)
        pred = model.predict(x)
        np.testing.assert_allclose(pred, y, atol=0.2)


class TestTrimEdgeCases:
    def test_single_block_network(self):
        net = make_tiny_net("one", blocks=1)
        cuts = enumerate_blockwise(net)
        assert len(cuts) == 1
        trn = build_trn(net, cuts[0].cut_node, 5)
        x = np.zeros((1, 8, 8, 3), dtype=np.float32)
        assert trn.forward(x).shape == (1, 5)

    def test_trn_of_trn(self, tiny_net):
        """Trimming an already-trimmed network works (nested removal)."""
        trn = build_trn(tiny_net, "b2_add", 5)
        cuts = enumerate_blockwise(trn)
        assert cuts  # the TRN has feature blocks of its own
        trn2 = build_trn(trn, cuts[0].cut_node, 5)
        x = np.zeros((1, 8, 8, 3), dtype=np.float32)
        assert trn2.forward(x).shape == (1, 5)

    def test_head_hidden_sizes_configurable(self, tiny_net):
        trn = build_trn(tiny_net, "b1_relu", 5, hidden=(8, 4))
        assert trn.nodes["head_fc1"].layer.units == 8
        assert trn.nodes["head_fc2"].layer.units == 4


class TestWorkbenchValidation:
    def test_unknown_network_in_config_fails_fast(self, tmp_path):
        from repro.experiments import ExperimentConfig, Workbench

        wb = Workbench(ExperimentConfig(networks=("vgg16",)),
                       cache_dir=str(tmp_path))
        with pytest.raises(KeyError):
            wb.bases()
