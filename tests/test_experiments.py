"""Integration tests for the experiment workbench on a reduced setup."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, Workbench
from repro.train import PretrainConfig


@pytest.fixture(scope="module")
def wb(tmp_path_factory):
    """A workbench over the two smallest networks with tiny budgets."""
    config = ExperimentConfig(
        networks=("mobilenet_v1_0.25", "mobilenet_v1_0.5"),
        hands_images=60, head_epochs=8, deadline_ms=0.35)
    return Workbench(
        config,
        cache_dir=str(tmp_path_factory.mktemp("wbcache")),
        pretrain_config=PretrainConfig(n_images=40, epochs=1, batch_size=16))


class TestConfig:
    def test_digest_stable_and_distinct(self):
        a = ExperimentConfig()
        b = ExperimentConfig(deadline_ms=1.2)
        assert a.digest() == ExperimentConfig().digest()
        assert a.digest() != b.digest()


class TestArtifacts:
    def test_bases_cached(self, wb):
        a = wb.base("mobilenet_v1_0.25")
        assert a is wb.base("mobilenet_v1_0.25")
        assert len(wb.bases()) == 2

    def test_hands_split_sizes(self, wb):
        train, test = wb.hands()
        assert len(train) + len(test) == 60

    def test_base_latencies_ordered(self, wb):
        lat = wb.base_latencies()
        assert lat["mobilenet_v1_0.25"] < lat["mobilenet_v1_0.5"]

    def test_latency_dataset_covers_all_cuts(self, wb):
        points = wb.latency_dataset()
        assert len(points) == 26  # 13 cutpoints x 2 networks
        assert all(p.measured_ms > 0 for p in points)

    def test_transfer_model_has_new_head(self, wb):
        trn = wb.transfer_model("mobilenet_v1_0.25")
        assert "head_logits" in trn.nodes
        assert trn.shape_of("head_logits") == (5,)


class TestExperiments:
    def test_exploration_cached_on_disk(self, wb):
        first = wb.exploration()
        assert first.networks_trained == 28  # 2x (13 cuts + original)
        wb._exploration = None
        second = wb.exploration()
        assert second.records == first.records

    def test_netcut_profiler_runs(self, wb):
        result = wb.netcut("profiler")
        assert len(result.candidates) == 2
        best = result.best
        assert best.feasible
        assert best.estimated_latency_ms <= wb.config.deadline_ms

    def test_netcut_analytical_runs(self, wb):
        result = wb.netcut("analytical")
        assert result.estimator_name == "analytical"
        assert all(np.isfinite(c.estimated_latency_ms)
                   for c in result.candidates)

    def test_netcut_rejects_unknown_estimator(self, wb):
        with pytest.raises(ValueError):
            wb.netcut("psychic")

    def test_retrain_trn_returns_accuracy(self, wb):
        from repro.trim import enumerate_blockwise

        base = wb.base("mobilenet_v1_0.25")
        cut = enumerate_blockwise(base)[0]
        trn, accuracy = wb.retrain_trn(base, cut)
        assert 0.0 < accuracy <= 1.0
        assert trn.name.startswith("mobilenet_v1_0.25/")

    @pytest.mark.parametrize("blocks_removed", [0, 1])
    def test_retrain_trn_serves_its_trained_head(self, wb, blocks_removed):
        """The returned TRN carries the head retrain_trn fitted: its own
        forward pass scores the accuracy it reports."""
        from repro.train import evaluate
        from repro.trim import enumerate_blockwise

        base = wb.base("mobilenet_v1_0.25")
        cut = ([None] + enumerate_blockwise(base))[blocks_removed]
        trn, accuracy = wb.retrain_trn(base, cut)
        _, test_data = wb.hands()
        assert evaluate(trn, test_data) == pytest.approx(accuracy, abs=1e-6)
