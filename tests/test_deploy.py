"""Tests for the end-to-end deployment pipeline (reduced workbench)."""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, Workbench
from repro.netcut import deploy
from repro.nn.serialize import load_network
from repro.train import PretrainConfig


@pytest.fixture(scope="module")
def wb(tmp_path_factory):
    config = ExperimentConfig(
        networks=("mobilenet_v1_0.25", "mobilenet_v1_0.5"),
        hands_images=60, head_epochs=8, deadline_ms=0.35)
    return Workbench(
        config,
        cache_dir=str(tmp_path_factory.mktemp("deploycache")),
        pretrain_config=PretrainConfig(n_images=40, epochs=1,
                                       batch_size=16))


@pytest.fixture(scope="module")
def artifact(wb, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("art") / "trn.npz")
    return deploy(wb, quantize=True, save_path=path)


class TestDeploy:
    def test_meets_deadline_by_measurement(self, artifact, wb):
        assert artifact.meets_deadline
        assert artifact.measured_latency_ms <= wb.config.deadline_ms

    def test_trained_head_grafted(self, artifact, wb):
        """The deployed network must score like the head it was trained
        from — well above an untrained TRN."""
        _, test_data = wb.hands()
        from repro.metrics import mean_angular_similarity

        pred = artifact.network.forward(test_data.x)
        acc = mean_angular_similarity(pred, test_data.y)
        assert acc == pytest.approx(artifact.accuracy, abs=1e-6)
        assert acc > 0.4

    def test_quantized_variant_present(self, artifact):
        assert artifact.quantized is not None
        assert np.isfinite(artifact.int8_accuracy)
        assert artifact.int8_accuracy > artifact.accuracy - 0.08

    def test_serialised_artifact_reloads(self, artifact, wb):
        assert artifact.path is not None
        loaded = load_network(artifact.path)
        _, test_data = wb.hands()
        np.testing.assert_allclose(loaded.forward(test_data.x[:8]),
                                   artifact.network.forward(test_data.x[:8]),
                                   rtol=1e-5, atol=1e-6)

    def test_impossible_deadline_raises(self, wb):
        with pytest.raises(RuntimeError, match="measured latency"):
            deploy(wb, deadline_ms=0.001, quantize=False)

    def test_no_quantize_no_save(self, wb):
        art = deploy(wb, quantize=False)
        assert art.quantized is None
        assert art.path is None
        assert np.isnan(art.int8_accuracy)

    def test_ships_the_trn_algorithm1_retrained(self, wb, monkeypatch):
        """One retrain per feasible base network, none for the winner:
        the artifact carries the picked candidate's TRN."""
        retrained, results = [], []
        retrain_trn, netcut = wb.retrain_trn, wb.netcut

        def counting_retrain(base, cutpoint):
            retrained.append(base.name)
            return retrain_trn(base, cutpoint)

        def recording_netcut(*args, **kwargs):
            results.append(netcut(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(wb, "retrain_trn", counting_retrain)
        monkeypatch.setattr(wb, "netcut", recording_netcut)
        art = deploy(wb, quantize=False)
        (result,) = results
        assert retrained == list(wb.config.networks)
        assert result.networks_trained == 2
        assert art.network is result.best_measured.trn
        assert art.measured_latency_ms == \
            result.best_measured.measured_latency_ms


class TestDeployBuilderRefactor:
    """The pipeline's saved bytes are pinned: a refactor of deploy() must
    write the same .npz (np.savez_compressed stores no timestamps)."""

    NPZ_SHA256 = {
        True: "f0d47a635b63455a27b8cfd725b5f0d6"
              "56037b6484f71ef2f291c9a42839d579",
        False: "c1832fc1a1b1cbb72b0879ce8a762833"
               "9f35610a3638f86fab347f9e3193f13d",
    }

    @pytest.mark.parametrize("quantize", [True, False],
                             ids=["int8", "fp32"])
    def test_saved_npz_sha256_is_pinned(self, wb, tmp_path, quantize):
        path = str(tmp_path / "trn.npz")
        art = deploy(wb, quantize=quantize, save_path=path)
        assert art.builder == ""
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == self.NPZ_SHA256[quantize]

    def test_untagged_npz_meta_has_no_builder_key(self, artifact):
        """The pipeline's .npz format predates the builder tag and must
        not grow the key (pre-refactor byte compatibility)."""
        with np.load(artifact.path) as archive:
            meta = json.loads(str(archive["__artifact__"]))
        assert "builder" not in meta
