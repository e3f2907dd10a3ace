"""Tests for the pluggable ladder builders and the pruning primitives."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_tiny_net
from repro.device import xavier
from repro.device.latency import network_latency
from repro.device.spec import DeviceSpec
from repro.metrics import (
    CandidatePoint,
    accuracy_at_deadline,
    frontier_dominates,
)
from repro.netcut import (
    BUILDERS,
    DPDepthBuilder,
    FilterPruneBuilder,
    GreedyLayerRemoval,
    HALPBuilder,
    artifact_points,
    build_rungs,
    capacity_accuracy,
    feature_flops,
    frontier_artifacts,
    load_artifact,
    save_artifact,
)
from repro.serve import TRNLadder
from repro.trim import (
    block_boundaries,
    build_trn,
    channel_importance,
    prunable_channel_convs,
    prune_channels,
    remove_blocks,
    skippable_blocks,
)
from repro.zoo import build_mobilenet_v1

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_net()


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(3).normal(size=(4, 8, 8, 3))


@pytest.fixture(scope="module")
def mnv1():
    return build_mobilenet_v1(0.5, input_shape=(16, 16, 3),
                              num_classes=5).build(0)


@pytest.fixture(scope="module")
def netadapt_trn():
    """The transfer model tests/test_extensions.py adapts with NetAdapt."""
    base = build_mobilenet_v1(0.5, input_shape=(16, 16, 3),
                              num_classes=20).build(0)
    return build_trn(base, block_boundaries(base)[-1].output_node, 5)


@pytest.fixture(scope="module")
def mnv1_x():
    return np.random.default_rng(0).normal(size=(2, 16, 16, 3)).astype(
        np.float32)


class TestPrunePrimitives:
    def test_prunable_convs_exclude_residual_feeders(self, tiny):
        # b1_conv and b2_conv both reach b2_add (channel-coupled through
        # the residual), so only b3_conv's channel axis is free
        assert prunable_channel_convs(tiny) == ["b3_conv"]

    def test_channel_importance_shape_and_sign(self, tiny):
        imp = channel_importance(tiny, "b3_conv")
        assert imp.shape == (tiny.nodes["b3_conv"].layer.filters,)
        assert np.all(imp >= 0)

    def test_keep_all_prune_is_identity(self, tiny, x):
        pruned = prune_channels(tiny, {"b3_conv": np.arange(4)})
        np.testing.assert_allclose(pruned.forward(x), tiny.forward(x),
                                   rtol=1e-6, atol=1e-7)

    def test_prune_shrinks_filters_and_state(self, tiny, x):
        pruned = prune_channels(tiny, {"b3_conv": np.array([1, 3])},
                                name="tiny-pruned")
        assert pruned.name == "tiny-pruned"
        assert pruned.nodes["b3_conv"].layer.filters == 2
        assert pruned.state_dict()["b3_conv.w"].shape[-1] == 2
        out = pruned.forward(x)
        assert out.shape == tiny.forward(x).shape
        assert np.all(np.isfinite(out))
        # the original is untouched
        assert tiny.nodes["b3_conv"].layer.filters == 4

    def test_prune_rejects_unprunable_conv(self, tiny):
        # b1_conv feeds the residual add: pruning it would desynchronise
        # the sum's channel sets
        with pytest.raises(ValueError, match="not .*prunable"):
            prune_channels(tiny, {"b1_conv": np.array([0])})

    def test_rejects_branching_topology(self, tiny):
        # b1_relu forks into b2_conv and the residual add, where b2_conv's
        # output joins it again: neither conv's channel axis is free
        for conv in ("b1_conv", "b2_conv"):
            with pytest.raises(ValueError, match="not .*prunable"):
                prune_channels(tiny, {conv: np.arange(2)})

    def test_prune_propagates_through_bn_and_depthwise(self, mnv1, mnv1_x):
        filters = mnv1.nodes["block3_pw_conv"].layer.filters
        pruned = prune_channels(mnv1, {"block3_pw_conv":
                                       np.arange(filters - 4)})
        assert pruned.shape_of("block3_pw_bn")[-1] == filters - 4
        assert pruned.shape_of("block4_dwbn")[-1] == filters - 4
        assert pruned.state_dict()["block4_pw_conv.w"].shape[2] == \
            filters - 4
        out = pruned.forward(mnv1_x)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-4)

    def test_prune_last_block_reaches_dense_head(self, mnv1, mnv1_x):
        # block13's channels flow through batch norm, ReLU and global
        # average pooling into the Dense head's input rows
        keep = np.arange(mnv1.nodes["block13_pw_conv"].layer.filters // 2)
        pruned = prune_channels(mnv1, {"block13_pw_conv": keep})
        assert pruned.nodes["logits"].layer.params["w"].value.shape[0] == \
            len(keep)
        assert pruned.forward(mnv1_x).shape == (2, 5)

    def test_identity_keep_preserves_mobilenet_outputs(self, mnv1, mnv1_x):
        keep = np.arange(mnv1.nodes["block5_pw_conv"].layer.filters)
        pruned = prune_channels(mnv1, {"block5_pw_conv": keep})
        np.testing.assert_allclose(pruned.forward(mnv1_x),
                                   mnv1.forward(mnv1_x), rtol=1e-5)

    def test_stem_conv_is_accepted(self, mnv1, mnv1_x):
        # not a builder candidate (prunable_channel_convs lists feature
        # convs only), but its channel axis is absorbed like any other
        assert "stem_conv" not in prunable_channel_convs(mnv1)
        pruned = prune_channels(mnv1, {"stem_conv": np.array([0, 2])})
        assert pruned.nodes["stem_conv"].layer.filters == 2
        assert pruned.shape_of("block1_dwbn")[-1] == 2
        assert pruned.forward(mnv1_x).shape == (2, 5)

    def test_rejects_non_conv(self, mnv1):
        with pytest.raises(ValueError, match="not a prunable conv"):
            prune_channels(mnv1, {"block3_pw_bn": np.arange(2)})

    def test_rejects_head_conv(self, mnv1):
        headed = mnv1.copy()
        headed.nodes["block13_pw_conv"].role = "head"
        with pytest.raises(ValueError, match="not a prunable conv"):
            prune_channels(headed, {"block13_pw_conv": np.arange(2)})

    def test_rejects_empty_keep(self, mnv1):
        with pytest.raises(ValueError, match="invalid keep list"):
            prune_channels(mnv1, {"block3_pw_conv": np.array([])})

    @pytest.mark.parametrize("conv", ["stem_conv", "block1_pw_conv",
                                      "block12_pw_conv"])
    def test_latency_falls_with_every_removed_channel(self, netadapt_trn,
                                                      conv):
        """NetAdapt bisects on the removal count; that finds what a linear
        scan finds only if the model latency falls strictly with each
        channel removed."""
        trn = netadapt_trn
        filters = trn.nodes[conv].layer.filters
        for spec in (DeviceSpec("t", 10, 1, 5, 1e4,
                                weight_cache_factor=0.1), xavier()):
            latency = [network_latency(
                prune_channels(trn, {conv: np.arange(n, filters)}),
                spec).total_ms for n in range(filters)]
            assert all(a > b for a, b in zip(latency, latency[1:])), \
                (spec.name, latency)

    def test_skippable_blocks_are_shape_preserving_interiors(self, tiny):
        # b3 holds the stride-2 pool (entry shape != exit shape)
        assert skippable_blocks(tiny) == ["b1", "b2"]

    def test_remove_blocks_rewires_consumers(self, tiny, x):
        slim = remove_blocks(tiny, ["b2"], name="tiny-nob2")
        assert "b2_conv" not in slim.nodes
        assert not any(n.block_id == "b2" for n in slim.nodes.values())
        out = slim.forward(x)
        assert out.shape == tiny.forward(x).shape
        assert np.all(np.isfinite(out))


class TestCapacityAccuracy:
    def test_full_network_scores_the_ceiling(self, tiny):
        accuracy = capacity_accuracy(tiny, ceiling=0.95, floor=0.4)
        assert accuracy(tiny) == pytest.approx(0.95)

    def test_smaller_networks_score_lower_but_above_floor(self, tiny):
        accuracy = capacity_accuracy(tiny, ceiling=0.95, floor=0.4)
        slim = remove_blocks(tiny, ["b1", "b2"])
        assert feature_flops(slim) < feature_flops(tiny)
        assert 0.4 < accuracy(slim) < accuracy(tiny)


class TestBuilders:
    @pytest.fixture(scope="class")
    def per_strategy(self, tiny, tiny_device_cls):
        return build_rungs(tiny, tiny_device_cls, max_rungs=3)

    @pytest.fixture(scope="class")
    def tiny_device_cls(self):
        return DeviceSpec(name="test-device", peak_gflops=10.0,
                          bandwidth_gbps=1.0, launch_overhead_us=5.0,
                          occupancy_flops=1e4, noise_std=0.005,
                          straggler_prob=0.0, event_overhead_us=2.0)

    def test_registry_covers_all_strategies(self):
        assert sorted(BUILDERS) == ["dp-depth", "filter-prune", "greedy",
                                    "halp"]
        assert BUILDERS["greedy"] is GreedyLayerRemoval
        assert BUILDERS["filter-prune"] is FilterPruneBuilder
        assert BUILDERS["halp"] is HALPBuilder
        assert BUILDERS["dp-depth"] is DPDepthBuilder

    def test_every_builder_tags_and_grades(self, per_strategy):
        assert sorted(per_strategy) == sorted(BUILDERS)
        for strategy, artifacts in per_strategy.items():
            assert artifacts
            assert all(a.builder == strategy for a in artifacts)
            assert artifacts[0].trn_name.endswith(f"{strategy}-full")
            names = [a.trn_name for a in artifacts]
            assert len(set(names)) == len(names)
            assert all(a.measured_latency_ms > 0 for a in artifacts)
            assert all(0.0 <= a.accuracy <= 1.0 for a in artifacts)

    def test_compression_actually_compresses(self, per_strategy):
        for strategy, artifacts in per_strategy.items():
            latencies = [a.measured_latency_ms for a in artifacts]
            assert min(latencies) < max(latencies), (
                f"{strategy} produced no compressed rung on the tiny net")

    def test_max_rungs_caps_every_strategy(self, tiny, tiny_device_cls):
        capped = build_rungs(tiny, tiny_device_cls, max_rungs=2)
        assert all(len(artifacts) <= 2 for artifacts in capped.values())

    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    def test_one_rung_is_the_full_trn(self, tiny, tiny_device_cls,
                                      strategy):
        rungs = BUILDERS[strategy]().rungs(tiny, tiny_device_cls,
                                           max_rungs=1)
        assert [a.trn_name for a in rungs] == [f"tiny-{strategy}-full"]

    @pytest.mark.parametrize("strategy", sorted(BUILDERS))
    def test_zero_rungs_rejected(self, tiny, tiny_device_cls, strategy):
        with pytest.raises(ValueError, match="max_rungs must be >= 1"):
            BUILDERS[strategy]().rungs(tiny, tiny_device_cls, max_rungs=0)

    def test_rungs_are_deterministic(self, tiny, tiny_device_cls,
                                     per_strategy):
        again = build_rungs(tiny, tiny_device_cls, max_rungs=3)
        for strategy in per_strategy:
            first = [(a.trn_name, a.measured_latency_ms, a.accuracy)
                     for a in per_strategy[strategy]]
            second = [(a.trn_name, a.measured_latency_ms, a.accuracy)
                      for a in again[strategy]]
            assert first == second

    def test_dp_depth_only_removes_skippable_blocks(self, tiny,
                                                    tiny_device_cls):
        artifacts = DPDepthBuilder().rungs(tiny, tiny_device_cls)
        full = artifacts[0].network
        skippable = set(skippable_blocks(full))
        for artifact in artifacts[1:]:
            gone = {n.block_id for n in full.nodes.values()
                    if n.name not in artifact.network.nodes}
            assert gone <= skippable

    def test_halp_prunes_channels_not_depth(self, tiny, tiny_device_cls):
        artifacts = HALPBuilder().rungs(tiny, tiny_device_cls)
        full = artifacts[0].network
        for artifact in artifacts:
            assert set(artifact.network.nodes) == set(full.nodes)

    def test_artifact_roundtrip_keeps_builder_tag(self, per_strategy,
                                                  tmp_path, x):
        artifact = per_strategy["halp"][-1]
        path = str(tmp_path / "rung.npz")
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        assert loaded.builder == "halp"
        assert loaded.trn_name == artifact.trn_name
        assert loaded.measured_latency_ms == artifact.measured_latency_ms
        np.testing.assert_allclose(loaded.network.forward(x),
                                   artifact.network.forward(x),
                                   rtol=1e-6, atol=1e-7)

    def test_mixed_ladder_loads_compiles_and_tags(self, per_strategy,
                                                  tiny_device_cls, x):
        mixed = [a for strategy in sorted(per_strategy)
                 for a in per_strategy[strategy]]
        front = frontier_artifacts(mixed)
        ladder = TRNLadder.from_artifacts(front, tiny_device_cls)
        assert len(ladder.rungs) == len(front)
        estimates = [r.estimate_ms(1) for r in ladder.rungs]
        assert estimates == sorted(estimates, reverse=True)
        snapshot = ladder.snapshot()
        assert {r["builder"] for r in snapshot} - {""}
        assert all(set(r) == {"name", "builder", "estimate_ms", "accuracy"}
                   for r in snapshot)
        out = ladder.rungs[-1].forward(list(x))
        assert np.all(np.isfinite(out))

    def test_frontier_artifacts_are_non_dominated(self, per_strategy):
        mixed = [a for strategy in sorted(per_strategy)
                 for a in per_strategy[strategy]]
        front = frontier_artifacts(mixed)
        points = artifact_points(front)
        for p in points:
            assert not any(q.latency_ms < p.latency_ms
                           and q.accuracy > p.accuracy
                           for q in artifact_points(mixed))


class TestParetoHelpers:
    POINTS = [CandidatePoint("slow", 10.0, 0.9),
              CandidatePoint("mid", 5.0, 0.8),
              CandidatePoint("fast", 1.0, 0.6)]

    def test_accuracy_at_deadline_picks_best_feasible(self):
        assert accuracy_at_deadline(self.POINTS, 6.0) == 0.8
        assert accuracy_at_deadline(self.POINTS, 20.0) == 0.9
        assert np.isnan(accuracy_at_deadline(self.POINTS, 0.5))

    def test_frontier_dominates_superset_and_ties(self):
        subset = self.POINTS[1:]
        assert frontier_dominates(self.POINTS, subset)
        assert frontier_dominates(self.POINTS, self.POINTS)
        assert not frontier_dominates(subset, self.POINTS)


class TestBenchByteStability:
    def test_bench_builders_json_stable_across_hash_seeds(self, tmp_path):
        script = os.path.join(REPO, "scripts", "bench_builders.py")

        def run(hashseed: str, name: str) -> bytes:
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.path.join(REPO, "src"),
                       REPRO_CACHE_DIR=str(tmp_path / f"cache-{name}"))
            subprocess.run(
                [sys.executable, script, "--nets", "mobilenet_v1_0.25",
                 "--devices", "xavier", "--max-rungs", "2",
                 "--out", str(out)],
                env=env, check=True, capture_output=True)
            return out.read_bytes()

        first = run("0", "a.json")
        second = run("31337", "b.json")
        assert first == second
        payload = json.loads(first)
        assert payload["benchmark"] == "builder-bakeoff"
        net = payload["nets"]["mobilenet_v1_0.25"]["xavier"]
        assert set(net["strategies"]) == set(BUILDERS)
        assert all(net["mixed"]["dominates"].values())
