"""Tests for pretraining and its weight cache."""

import os

import numpy as np

from repro.train import PretrainConfig, get_pretrained, pretrain, recipe_for
from repro.zoo import build_network


TINY = PretrainConfig(n_images=40, epochs=1, batch_size=16)


def _holds_array(value) -> bool:
    """Whether an attribute value is, or a tuple or list holding, an
    array."""
    if isinstance(value, (tuple, list)):
        return any(_holds_array(v) for v in value)
    return isinstance(value, np.ndarray)


class TestRecipes:
    def test_mobilenets_get_longer_recipe(self):
        base = PretrainConfig()
        mob = recipe_for("mobilenet_v1_0.5", base)
        assert mob.epochs > base.epochs
        assert mob.lr > base.lr

    def test_resnet_uses_base(self):
        base = PretrainConfig()
        assert recipe_for("resnet50", base) == base

    def test_cache_key_distinguishes_recipes(self):
        a = PretrainConfig(epochs=5).cache_key("resnet50")
        b = PretrainConfig(epochs=6).cache_key("resnet50")
        assert a != b


class TestPretrain:
    def test_loss_decreases(self):
        net = build_network("mobilenet_v1_0.5").build(0)
        data_before = net.state_dict()
        pretrain(net, TINY)
        changed = any(
            not np.array_equal(data_before[k], v)
            for k, v in net.state_dict().items())
        assert changed

    def test_output_restored_to_probs(self):
        net = build_network("mobilenet_v1_0.5").build(0)
        pretrain(net, TINY)
        assert net.output_name == "probs"


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = str(tmp_path)
        a = get_pretrained("mobilenet_v1_0.25", TINY, cache_dir=cache)
        files = os.listdir(cache)
        assert any(f.endswith(".npz") for f in files)
        b = get_pretrained("mobilenet_v1_0.25", TINY, cache_dir=cache)
        # no training state: a layer holds no array but its parameters'
        # (inside ``params``) and its batch-norm statistics
        for net in (a, b):
            for node in net.nodes.values():
                held = [k for k, v in vars(node.layer).items()
                        if k not in ("running_mean", "running_var")
                        and _holds_array(v)]
                assert not held, (node.name, held)
        assert a.state_dict().keys() == b.state_dict().keys()
        for key, value in a.state_dict().items():
            np.testing.assert_array_equal(value, b.state_dict()[key])
        x = np.random.default_rng(0).normal(size=(1, 32, 32, 3)).astype(
            np.float32)
        np.testing.assert_allclose(a.forward(x), b.forward(x), rtol=1e-5)
        # the miss returns what the hit loads: weights, no gradient buffers
        for net in (a, b):
            assert all(p._grad is None
                       for _, p in net.parameters(trainable_only=False))

    def test_cache_includes_running_stats(self, tmp_path):
        cache = str(tmp_path)
        get_pretrained("mobilenet_v1_0.25", TINY, cache_dir=cache)
        fname = next(f for f in os.listdir(cache) if f.endswith(".npz"))
        with np.load(os.path.join(cache, fname)) as archive:
            assert any("running_mean" in k for k in archive.files)
