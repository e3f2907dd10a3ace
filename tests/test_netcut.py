"""Tests for the NetCut algorithm, adapters, explorer and accounting."""

import numpy as np
import pytest

from repro.data import make_hands_dataset
from repro.device.k20m import TrainingCostModel
from repro.netcut import (
    Exploration,
    OracleAdapter,
    ProfilerAdapter,
    TRNRecord,
    compare_costs,
    explore_blockwise,
    run_netcut,
)
from repro.netcut.algorithm import NetCutCandidate, NetCutResult
from repro.trim import build_trn

from conftest import make_tiny_net
from test_train import make_tiny_net32


@pytest.fixture
def cost_model():
    return TrainingCostModel("test", effective_gflops=100.0,
                             scale_factor=100.0, images=1000, epochs=10)


def dummy_retrain(base, cutpoint):
    """A retrain stub: accuracy falls linearly with blocks removed."""
    cut_node = cutpoint.cut_node if cutpoint else "pool"
    trn = build_trn(base, cut_node, 5)
    blocks = cutpoint.blocks_removed if cutpoint else 0
    return trn, 0.9 - 0.1 * blocks


class FixedEstimator:
    """Estimator stub returning scripted latencies."""

    name = "fixed"

    def __init__(self, base_ms, per_block_ms):
        self.base_ms = base_ms
        self.per_block_ms = per_block_ms
        self.calls = 0

    def estimate(self, base, cutpoint):
        self.calls += 1
        if cutpoint is None:
            return self.base_ms
        return self.base_ms - self.per_block_ms * cutpoint.blocks_removed


class TestAlgorithm:
    def test_keeps_original_when_feasible(self, tiny_net):
        result = run_netcut([tiny_net], deadline_ms=10.0,
                            estimator=FixedEstimator(5.0, 1.0),
                            retrain=dummy_retrain)
        cand = result.candidates[0]
        assert cand.cutpoint is None
        assert cand.blocks_removed == 0
        assert cand.accuracy == pytest.approx(0.9)

    def test_cuts_until_deadline_met(self, tiny_net):
        # base 5.0, each block removed saves 1.5 -> need 2 blocks for <=2.5
        result = run_netcut([tiny_net], deadline_ms=2.5,
                            estimator=FixedEstimator(5.0, 1.5),
                            retrain=dummy_retrain)
        cand = result.candidates[0]
        assert cand.blocks_removed == 2
        assert cand.estimated_latency_ms == pytest.approx(2.0)

    def test_infeasible_network_flagged(self, tiny_net):
        result = run_netcut([tiny_net], deadline_ms=0.1,
                            estimator=FixedEstimator(5.0, 0.01),
                            retrain=dummy_retrain)
        cand = result.candidates[0]
        assert not cand.feasible
        assert np.isnan(cand.accuracy)
        with pytest.raises(RuntimeError):
            _ = result.best

    def test_one_retrain_per_network(self, tiny_net):
        calls = []

        def counting_retrain(base, cutpoint):
            calls.append(base.name)
            return dummy_retrain(base, cutpoint)

        nets = [make_tiny_net(f"net{i}") for i in range(3)]
        run_netcut(nets, deadline_ms=2.5,
                   estimator=FixedEstimator(5.0, 1.5),
                   retrain=counting_retrain)
        assert sorted(calls) == ["net0", "net1", "net2"]

    def test_best_picks_highest_accuracy(self):
        nets = [make_tiny_net("a"), make_tiny_net("b")]

        def retrain(base, cutpoint):
            trn = build_trn(base, cutpoint.cut_node if cutpoint else "pool", 5)
            return trn, {"a": 0.5, "b": 0.8}[base.name]

        result = run_netcut(nets, deadline_ms=10.0,
                            estimator=FixedEstimator(1.0, 0.1),
                            retrain=retrain)
        assert result.best.base_name == "b"

    def test_measure_and_cost_hooks(self, tiny_net, cost_model):
        result = run_netcut(
            [tiny_net], deadline_ms=10.0,
            estimator=FixedEstimator(1.0, 0.1), retrain=dummy_retrain,
            measure=lambda trn: 0.42, cost_model=cost_model)
        cand = result.candidates[0]
        assert cand.measured_latency_ms == 0.42
        assert cand.train_hours > 0

    def test_base_latencies_override_estimator(self, tiny_net):
        est = FixedEstimator(99.0, 1.0)  # estimator thinks base is slow
        result = run_netcut([tiny_net], deadline_ms=10.0, estimator=est,
                            retrain=dummy_retrain,
                            base_latencies_ms={tiny_net.name: 5.0})
        assert result.candidates[0].blocks_removed == 0

    def test_candidate_keeps_the_retrained_trn(self):
        returned = {}

        def retrain(base, cutpoint):
            trn, accuracy = dummy_retrain(base, cutpoint)
            returned[base.name] = trn
            return trn, accuracy

        fast, slow = make_tiny_net("fast"), make_tiny_net("slow")
        result = run_netcut(
            [fast, slow], deadline_ms=1.0, estimator=FixedEstimator(5.0, 0.01),
            retrain=retrain, base_latencies_ms={"fast": 0.5})
        kept, infeasible = result.candidates
        assert kept.trn is returned["fast"]
        assert not infeasible.feasible and infeasible.trn is None
        assert list(returned) == ["fast"]


class TestBestMeasured:
    """NetCutResult.best_measured: the most accurate candidate whose
    measured latency meets the deadline."""

    def _result(self, *scripted):
        result = NetCutResult(1.0, "stub")
        for i, (accuracy, measured) in enumerate(scripted):
            result.candidates.append(NetCutCandidate(
                f"n{i}", f"n{i}/1", None, 0.9, accuracy,
                measured_latency_ms=measured))
        return result

    def test_prefers_measured_fit_over_more_accurate_miss(self):
        result = self._result((0.9, 1.2), (0.7, 0.95), (0.6, 0.5))
        assert result.best.trn_name == "n0/1"
        assert result.best_measured.trn_name == "n1/1"

    def test_skips_candidates_without_measurement(self):
        result = self._result((0.9, None), (0.5, 0.8))
        assert result.best_measured.trn_name == "n1/1"

    def test_skips_infeasible_candidates(self):
        result = self._result((0.9, 0.8), (0.5, 0.8))
        result.candidates[0].feasible = False
        assert result.best_measured.trn_name == "n1/1"

    def test_raises_when_no_measurement_meets_deadline(self):
        result = self._result((0.9, 1.5), (0.8, None))
        with pytest.raises(RuntimeError, match="measured latency meets 1.0"):
            _ = result.best_measured


class TestAdapters:
    def test_oracle_adapter_monotone(self, tiny_net, tiny_device):
        from repro.trim import enumerate_blockwise

        oracle = OracleAdapter(tiny_device)
        cuts = enumerate_blockwise(tiny_net)
        lats = [oracle.estimate(tiny_net, c) for c in cuts]
        assert lats == sorted(lats, reverse=True)
        assert oracle.estimate(tiny_net, None) > lats[0]

    def test_oracle_none_prices_the_transfer_model(self, tiny_net,
                                                  tiny_device):
        """``cutpoint=None`` is the transfer model (every feature block,
        the new head), as for the profiler and analytical adapters, not
        the pretraining network with its own head."""
        from repro.device import network_latency
        from repro.trim import build_trn, transfer_cut

        transfer = build_trn(tiny_net, transfer_cut(tiny_net), 5)
        expected = network_latency(transfer, tiny_device).total_ms
        oracle = OracleAdapter(tiny_device)
        assert oracle.estimate(tiny_net, None) == expected

    def test_profiler_adapter_builds_one_table_per_base(self, tiny_device):
        from repro.trim import enumerate_blockwise

        adapter = ProfilerAdapter(tiny_device)
        nets = [make_tiny_net("a"), make_tiny_net("b")]
        for net in nets:
            for cut in enumerate_blockwise(net):
                adapter.estimate(net, cut)
        assert adapter.tables_built == 2

    def test_profiler_adapter_close_to_oracle(self, tiny_net, tiny_device):
        from repro.trim import enumerate_blockwise

        adapter = ProfilerAdapter(tiny_device)
        oracle = OracleAdapter(tiny_device)
        for cut in enumerate_blockwise(tiny_net):
            est = adapter.estimate(tiny_net, cut)
            truth = oracle.estimate(tiny_net, cut)
            assert est == pytest.approx(truth, rel=0.15)

    def test_analytical_adapter_requires_base_latency(self, tiny_net):
        from repro.estimators import AnalyticalEstimator
        from repro.netcut import AnalyticalAdapter

        adapter = AnalyticalAdapter(AnalyticalEstimator(), {}, 5)
        with pytest.raises(KeyError):
            adapter.estimate(tiny_net, None)


class TestExplorer:
    @pytest.fixture(scope="class")
    def exploration(self, tmp_path_factory):
        train, test = make_hands_dataset(60, seed=4).split(0.7, rng=0)
        from repro.device.spec import DeviceSpec

        device = DeviceSpec("t", 10, 1, 5, 1e4)
        return explore_blockwise([make_tiny_net32()], train, test, device,
                                 head_epochs=10)

    def test_record_count(self, exploration):
        # 2 blocks + original
        assert exploration.networks_trained == 3

    def test_original_included(self, exploration):
        originals = exploration.originals()
        assert len(originals) == 1
        assert originals[0].blocks_removed == 0

    def test_latency_decreases_with_removal(self, exploration):
        rows = exploration.for_base("tiny32")
        lats = [r.latency_ms for r in rows]
        assert lats == sorted(lats, reverse=True)

    def test_accuracies_above_zero(self, exploration):
        assert all(0.0 < r.accuracy <= 1.0 for r in exploration.records)

    def test_json_roundtrip(self, exploration, tmp_path):
        path = str(tmp_path / "exp.json")
        exploration.save(path)
        loaded = Exploration.load(path)
        assert loaded.records == exploration.records


class TestAccounting:
    def _exploration(self):
        recs = [TRNRecord("a", f"a/{i}", f"c{i}", i, i, 1.0, 0.5, 1.0,
                          8, 100, 10) for i in range(0, 5)]
        return Exploration(recs)

    def _netcut_result(self, names_hours):
        result = NetCutResult(0.9, "stub")
        for name, hours in names_hours:
            result.candidates.append(NetCutCandidate(
                "a", name, None, 0.8, 0.7, train_hours=hours))
        return result

    def test_reduction_and_speedup(self):
        ex = self._exploration()  # 4 trimmed records x 1.0h
        nc = self._netcut_result([("a/1", 0.5)])
        cmp = compare_costs(ex, nc)
        assert cmp.blockwise.networks_trained == 4
        assert cmp.netcut.networks_trained == 1
        assert cmp.network_reduction_pct == pytest.approx(75.0)
        assert cmp.speedup == pytest.approx(4.0 / 0.5)

    def test_duplicate_trns_counted_once(self):
        ex = self._exploration()
        a = self._netcut_result([("a/1", 0.5)])
        b = self._netcut_result([("a/1", 0.5), ("a/2", 0.25)])
        cmp = compare_costs(ex, a, b)
        assert cmp.netcut.networks_trained == 2
        assert cmp.netcut.gpu_hours == pytest.approx(0.75)

    def test_summary_mentions_key_numbers(self):
        cmp = compare_costs(self._exploration(),
                            self._netcut_result([("a/1", 0.5)]))
        text = cmp.summary()
        assert "8.0x" in text and "75%" in text

    def test_zero_netcut_hours_rejected(self):
        cmp = compare_costs(self._exploration(),
                            self._netcut_result([("a/1", 0.0)]))
        with pytest.raises(ValueError):
            _ = cmp.speedup
