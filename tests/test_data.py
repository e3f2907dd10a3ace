"""Tests for the synthetic datasets: renderer, SynthImageNet, HANDS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    GRASP_TYPES,
    SHAPE_FAMILIES,
    SYNTH_IMAGENET_CLASSES,
    TEXTURES,
    ObjectParams,
    grasp_affinities,
    grasp_distribution,
    make_hands_dataset,
    make_synth_imagenet,
    render_object,
    sample_object,
)


class TestRenderer:
    def test_output_range_and_dtype(self, rng):
        params = sample_object(rng)
        img = render_object(params, 32, rng)
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("family", SHAPE_FAMILIES)
    def test_all_families_render(self, family, rng):
        params = sample_object(rng, family=family)
        img = render_object(params, 24, rng)
        assert np.isfinite(img).all()

    @pytest.mark.parametrize("texture", TEXTURES)
    def test_all_textures_render(self, texture, rng):
        params = sample_object(rng, texture=texture)
        img = render_object(params, 24, rng)
        assert np.isfinite(img).all()

    def test_object_visible_against_background(self, rng):
        """Center pixels (object) must differ from the corners (background)."""
        params = ObjectParams("sphere", 0.35, 1.0, 0.0, 0.1, "plain")
        img = render_object(params, 32, rng, noise=0.0)
        center = img[14:18, 14:18].mean(axis=(0, 1))
        corner = img[:3, :3].mean(axis=(0, 1))
        assert np.abs(center - corner).max() > 0.05

    def test_unknown_family_raises(self, rng):
        params = ObjectParams("pyramid", 0.3, 1.0, 0.0, 0.5, "plain")
        with pytest.raises(ValueError, match="family"):
            render_object(params, 16, rng)

    def test_bigger_objects_cover_more(self, rng):
        small = ObjectParams("sphere", 0.1, 1.0, 0.0, 0.0, "plain")
        big = ObjectParams("sphere", 0.4, 1.0, 0.0, 0.0, "plain")
        img_s = render_object(small, 32, np.random.default_rng(1), noise=0.0)
        img_b = render_object(big, 32, np.random.default_rng(1), noise=0.0)
        # variance of the image grows with the object footprint
        assert img_b.std() > img_s.std()


class TestSampleObject:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_parameters_in_range(self, seed):
        params = sample_object(np.random.default_rng(seed))
        assert params.family in SHAPE_FAMILIES
        assert params.texture in TEXTURES
        assert 0.05 <= params.size <= 0.45
        assert params.aspect >= 0.9

    def test_fixed_family_respected(self, rng):
        assert sample_object(rng, family="card").family == "card"


class TestDatasetContainer:
    def test_split_partitions(self, rng):
        data = make_hands_dataset(40, seed=3)
        train, test = data.split(0.75, rng=0)
        assert len(train) == 30 and len(test) == 10
        assert train.num_classes == 5

    def test_split_no_overlap(self):
        data = make_hands_dataset(30, seed=3)
        train, test = data.split(0.5, rng=0)
        train_keys = {img.tobytes() for img in train.x}
        test_keys = {img.tobytes() for img in test.x}
        assert not (train_keys & test_keys)

    def test_subset(self):
        data = make_hands_dataset(20, seed=3)
        sub = data.subset(np.array([0, 5, 7]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.x[1], data.x[5])


class TestSynthImageNet:
    def test_twenty_classes(self):
        assert len(SYNTH_IMAGENET_CLASSES) == 20

    def test_one_hot_labels(self):
        data = make_synth_imagenet(40, seed=0)
        assert data.y.shape == (40, 20)
        np.testing.assert_allclose(data.y.sum(axis=1), 1.0)
        assert set(np.unique(data.y)) == {0.0, 1.0}

    def test_balanced_classes(self):
        data = make_synth_imagenet(200, seed=0)
        counts = data.y.sum(axis=0)
        np.testing.assert_allclose(counts, 10.0)

    def test_deterministic(self):
        a = make_synth_imagenet(20, seed=5)
        b = make_synth_imagenet(20, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestHands:
    def test_probabilistic_labels(self):
        data = make_hands_dataset(50, seed=1)
        assert data.y.shape == (50, 5)
        np.testing.assert_allclose(data.y.sum(axis=1), 1.0, rtol=1e-5)
        # labels are soft: most rows are NOT one-hot
        assert (data.y.max(axis=1) < 0.999).mean() > 0.5

    def test_class_names(self):
        data = make_hands_dataset(5, seed=1)
        assert data.class_names == GRASP_TYPES

    def test_deterministic(self):
        a = make_hands_dataset(20, seed=9)
        b = make_hands_dataset(20, seed=9)
        np.testing.assert_array_equal(a.x, b.x)

    def test_affinity_heuristics(self):
        """Grasp preferences follow the geometry rules the dataset encodes."""
        small_blob = ObjectParams("blob", 0.09, 1.0, 0.0, 0.5, "plain")
        assert np.argmax(grasp_affinities(small_blob)) == 4  # palmar pinch

        big_sphere = ObjectParams("sphere", 0.4, 1.0, 0.0, 0.5, "plain")
        assert np.argmax(grasp_affinities(big_sphere)) == 2  # power sphere

        cylinder = ObjectParams("cylinder", 0.3, 2.5, 0.0, 0.5, "plain")
        assert np.argmax(grasp_affinities(cylinder)) == 1  # medium wrap

        big_card = ObjectParams("card", 0.42, 1.0, 0.0, 0.5, "plain")
        assert np.argmax(grasp_affinities(big_card)) == 0  # open palm

    def test_distribution_noise_free_is_deterministic(self):
        params = ObjectParams("sphere", 0.3, 1.0, 0.0, 0.5, "plain")
        a = grasp_distribution(params, rng=None)
        b = grasp_distribution(params, rng=None)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == pytest.approx(1.0, rel=1e-5)

    def test_jitter_perturbs_but_preserves_mode(self, rng):
        params = ObjectParams("sphere", 0.4, 1.0, 0.0, 0.5, "plain")
        clean = grasp_distribution(params, rng=None)
        noisy = grasp_distribution(params, rng=rng, jitter=100.0)
        assert not np.allclose(clean, noisy)
        assert np.argmax(clean) == np.argmax(noisy)
