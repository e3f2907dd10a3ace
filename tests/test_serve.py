"""Tests for the deadline-aware serving stack (repro.serve).

Everything runs on the simulated device over virtual time with fixed
seeds — no wall-clock dependence anywhere, so schedules, transitions and
metrics are bit-for-bit reproducible.
"""

import numpy as np
import pytest

from conftest import make_tiny_net
from repro.netcut.deploy import (
    DeploymentArtifact,
    load_artifact,
    save_artifact,
)
from repro.serve import (
    COMPLETED,
    REJECTED,
    EDFQueue,
    HysteresisController,
    MicroBatcher,
    Request,
    Server,
    ServerConfig,
    TRNLadder,
    offered_load,
    poisson_trace,
    uniform_trace,
)


@pytest.fixture(scope="module")
def ladder(tiny_device_module):
    return TRNLadder.from_base(make_tiny_net(), tiny_device_module,
                               num_classes=5)


@pytest.fixture(scope="module")
def tiny_device_module():
    from repro.device.spec import DeviceSpec

    return DeviceSpec(
        name="test-device", peak_gflops=10.0, bandwidth_gbps=1.0,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


def request(rid, arrival, deadline, x=None):
    return Request(rid=rid, arrival_ms=arrival, deadline_ms=deadline, x=x)


class TestEDFQueue:
    def test_pops_in_absolute_deadline_order(self):
        q = EDFQueue(capacity=8)
        # arrival + relative deadline decides, not either one alone
        reqs = [request(0, 0.0, 9.0),    # abs 9
                request(1, 5.0, 1.0),    # abs 6
                request(2, 2.0, 2.0),    # abs 4
                request(3, 1.0, 8.0)]    # abs 9, arrived later than rid 0
        for r in reqs:
            assert q.push(r)
        assert [q.pop().rid for _ in range(4)] == [2, 1, 0, 3]

    def test_fifo_tiebreak_is_deterministic(self):
        q = EDFQueue(capacity=4)
        for rid in (7, 3, 5):
            q.push(request(rid, 0.0, 1.0))
        assert [q.pop().rid for _ in range(3)] == [7, 3, 5]

    def test_bounded_capacity(self):
        q = EDFQueue(capacity=2)
        assert q.push(request(0, 0.0, 1.0))
        assert q.push(request(1, 0.0, 1.0))
        assert q.full
        assert not q.push(request(2, 0.0, 1.0))
        assert len(q) == 2

    def test_peek_does_not_remove(self):
        q = EDFQueue(capacity=2)
        q.push(request(0, 0.0, 1.0))
        assert q.peek().rid == 0
        assert len(q) == 1


class TestMicroBatcher:
    def test_batches_up_to_cap_with_loose_deadlines(self, ladder):
        rung = ladder.rungs[0]
        q = EDFQueue(capacity=16)
        for i in range(10):
            q.push(request(i, 0.0, 100.0))
        batch = MicroBatcher(max_batch=4).form(q, now_ms=0.0, rung=rung)
        assert len(batch) == 4
        assert len(q) == 6

    def test_tight_deadlines_shrink_the_batch(self, ladder):
        rung = ladder.rungs[0]
        est1, est2 = rung.estimate_ms(1), rung.estimate_ms(2)
        q = EDFQueue(capacity=16)
        # the head fits alone but a 2-batch would finish past its deadline
        q.push(request(0, 0.0, (est1 + est2) / 2))
        q.push(request(1, 0.0, 100.0))
        batch = MicroBatcher(max_batch=4).form(q, now_ms=0.0, rung=rung)
        assert [r.rid for r in batch] == [0]
        assert len(q) == 1

    def test_slack_margin_is_respected(self, ladder):
        rung = ladder.rungs[0]
        est2 = rung.estimate_ms(2)
        q = EDFQueue(capacity=16)
        q.push(request(0, 0.0, est2 + 0.001))
        q.push(request(1, 0.0, est2 + 0.001))
        assert len(MicroBatcher(max_batch=4).form(q, 0.0, rung)) == 2
        q.push(request(2, 0.0, est2 + 0.001))
        q.push(request(3, 0.0, est2 + 0.001))
        # a safety margin larger than the remaining slack forbids pairing
        batcher = MicroBatcher(max_batch=4, slack_margin_ms=0.01)
        assert len(batcher.form(q, 0.0, rung)) == 1

    def test_head_always_runs_even_when_late(self, ladder):
        rung = ladder.rungs[0]
        q = EDFQueue(capacity=4)
        q.push(request(0, 0.0, 1e-6))     # hopeless deadline
        batch = MicroBatcher(max_batch=4).form(q, now_ms=5.0, rung=rung)
        assert [r.rid for r in batch] == [0]

    def test_batched_estimate_is_sublinear(self, ladder):
        """The capacity argument for micro-batching on this device."""
        rung = ladder.rungs[0]
        assert rung.estimate_ms(4) < 4 * rung.estimate_ms(1)
        assert rung.estimate_ms(4) > rung.estimate_ms(1)


class TestLadder:
    def test_rungs_compile_at_load(self, ladder):
        # serving rungs are frozen inference networks: every rung's network
        # carries a compiled plan so forwards take the fused schedule
        for rung in ladder.rungs:
            assert rung.network.compiled

    def test_rung_forward_one(self, ladder):
        rung = ladder.rungs[0]
        x = np.zeros(rung.network.input_shape, dtype=np.float32)
        out = rung.forward_one(x)
        assert out.shape == (5,)
        np.testing.assert_allclose(out, rung.forward([x])[0],
                                   rtol=1e-4, atol=1e-5)

    def test_sorted_slowest_first(self, ladder):
        ests = [r.estimate_ms(1) for r in ladder.rungs]
        assert ests == sorted(ests, reverse=True)
        assert len(ladder) == 3     # one rung per feature block of tiny net

    def test_cursor_moves_and_clamps(self, ladder):
        ladder.reset(0)
        assert ladder.current is ladder.rungs[0]
        assert not ladder.upgrade()
        for _ in range(len(ladder) - 1):
            assert ladder.degrade()
        assert ladder.current is ladder.fastest
        assert not ladder.degrade()
        assert ladder.upgrade()
        ladder.reset(0)

    def test_from_artifacts_round_trip(self, tiny_device_module, tmp_path):
        net = make_tiny_net("served")
        art = DeploymentArtifact(
            network=net, trn_name="served-cut1", base_name="served",
            measured_latency_ms=0.05, accuracy=0.91, deadline_ms=0.9)
        path = str(tmp_path / "artifact.npz")
        save_artifact(art, path)
        assert art.path == path

        loaded = load_artifact(path)
        assert loaded.trn_name == "served-cut1"
        assert loaded.base_name == "served"
        assert loaded.accuracy == pytest.approx(0.91)
        assert loaded.measured_latency_ms == pytest.approx(0.05)
        assert loaded.deadline_ms == pytest.approx(0.9)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 3)).astype(
            np.float32)
        np.testing.assert_allclose(loaded.network.forward(x),
                                   net.forward(x), rtol=1e-5, atol=1e-6)

        lad = TRNLadder.from_artifacts([loaded], tiny_device_module)
        assert lad.current.name == "served-cut1"
        assert lad.current.accuracy == pytest.approx(0.91)

    def test_max_rungs_keeps_extremes(self, tiny_device_module):
        full = TRNLadder.from_base(make_tiny_net(blocks=5),
                                   tiny_device_module, num_classes=5)
        capped = TRNLadder.from_base(make_tiny_net(blocks=5),
                                     tiny_device_module, num_classes=5,
                                     max_rungs=3)
        assert len(capped) == 3
        assert capped.rungs[0].estimate_ms(1) == pytest.approx(
            full.rungs[0].estimate_ms(1))
        assert capped.fastest.estimate_ms(1) == pytest.approx(
            full.fastest.estimate_ms(1))


class TestLadderRecalibration:
    @pytest.fixture
    def fresh(self, tiny_device_module):
        return TRNLadder.from_base(make_tiny_net(blocks=4),
                                   tiny_device_module, num_classes=5)

    def test_recalibrate_scales_estimate_not_samples(self, fresh):
        """The planner's belief moves; the device's behaviour must not."""
        rung = fresh.rungs[0]
        base = rung.sampler.base_ms(1)
        assert rung.estimate_ms(1) == pytest.approx(base)
        previous = rung.recalibrate(2.0)
        assert previous == 1.0
        assert rung.estimate_ms(1) == pytest.approx(2.0 * base)
        # ground truth unchanged: measured service times still derive
        # from the un-scaled device model
        assert rung.sampler.base_ms(1) == pytest.approx(base)
        assert rung.estimate_table()[1] == pytest.approx(2.0 * base)
        rung.recalibrate(1.0)

    def test_recalibrate_rejects_degenerate_scales(self, fresh):
        rung = fresh.rungs[0]
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                rung.recalibrate(bad)
        assert rung.estimate_scale == 1.0

    def test_resort_preserves_serving_rung_by_identity(self, fresh):
        """Regression: the cursor used to keep its *index* across a
        re-sort, silently swapping which network serves traffic."""
        fresh.reset(1)
        serving = fresh.current
        # recalibrate the serving rung to be the slowest of all: after the
        # re-sort it sits at index 0, not at the old cursor index 1
        serving.recalibrate(
            2.0 * fresh.rungs[0].estimate_ms(1) / serving.sampler.base_ms(1))
        fresh.resort()
        assert fresh.current is serving
        assert fresh.current_index == 0
        ests = [r.estimate_ms(1) for r in fresh.rungs]
        assert ests == sorted(ests, reverse=True)

    def test_select_by_identity(self, fresh):
        target = fresh.rungs[-1]
        fresh.select(target)
        assert fresh.current is target
        with pytest.raises(ValueError):
            fresh.select(TRNLadder.from_base(
                make_tiny_net(blocks=2), fresh.rungs[0].spec,
                num_classes=5).rungs[0])


class TestHysteresisController:
    def test_degrades_on_high_p99(self):
        ctl = HysteresisController(deadline_ms=1.0, window=16,
                                   min_observations=8, cooldown=8)
        decisions = [ctl.observe(2.0) for _ in range(10)]
        assert "degrade" in decisions

    def test_cooldown_blocks_early_decisions(self):
        ctl = HysteresisController(deadline_ms=1.0, window=16,
                                   min_observations=4, cooldown=10)
        assert all(ctl.observe(5.0) is None for _ in range(9))
        assert ctl.observe(5.0) == "degrade"

    def test_upgrade_needs_slack_and_is_lazy(self):
        ctl = HysteresisController(deadline_ms=1.0, window=16,
                                   min_observations=4, cooldown=4,
                                   upgrade_cooldown=12)
        decisions = [ctl.observe(0.1) for _ in range(12)]
        # fast latencies, but no upgrade before the longer upgrade cooldown
        assert decisions[:11] == [None] * 11
        assert decisions[11] == "upgrade"

    def test_band_between_thresholds_holds_steady(self):
        ctl = HysteresisController(deadline_ms=1.0, window=16,
                                   min_observations=4, cooldown=2,
                                   upgrade_ratio=0.5)
        assert all(ctl.observe(0.8) is None for _ in range(30))

    def test_transition_resets_the_window(self):
        ctl = HysteresisController(deadline_ms=1.0, window=16,
                                   min_observations=4, cooldown=4)
        while ctl.observe(3.0) != "degrade":
            pass
        ctl.notify_transition()
        assert all(ctl.observe(0.9) is None for _ in range(3))

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            HysteresisController(1.0, upgrade_ratio=1.0, degrade_ratio=1.0)

    @pytest.mark.parametrize("q", [-0.01, 1.5, float("nan")])
    def test_quantile_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="quantile"):
            HysteresisController(1.0, quantile=q)

    @pytest.mark.parametrize("window", [0, -1])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            HysteresisController(1.0, window=window)

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.99, 1.0])
    def test_window_quantile_is_numpys(self, q):
        """Exactly np.quantile of the window, through eviction and refill."""
        rng = np.random.default_rng(0)
        # few distinct values, so windows hold many duplicates; lognormal,
        # so the interpolation rounds as it would on real latencies
        pool = rng.lognormal(size=6).tolist()
        for window in range(1, 65):
            ctl = HysteresisController(1.0, window=window, quantile=q)
            for step in range(3 * window + 5):
                ctl.observe(pool[rng.integers(len(pool))])
                if step == 2 * window:
                    ctl.notify_transition()
                    ctl.observe(0.5)
                assert ctl._window_quantile() == float(
                    np.quantile(list(ctl._latencies), q)), (window, step)

    def test_decisions_match_numpy_reference(self):
        class NumpyQuantile(HysteresisController):
            def _window_quantile(self):
                return float(np.quantile(np.asarray(self._latencies),
                                         self.quantile))

        def decisions(ctl):
            # a load level drifting across both thresholds, lognormal noise
            rng = np.random.default_rng(7)
            level = 1.0
            out = []
            for _ in range(20_000):
                level = min(max(level * rng.lognormal(0.0, 0.05), 0.1), 3.0)
                decision = ctl.observe(level * rng.lognormal(0.0, 0.3))
                if decision is not None:
                    ctl.notify_transition()
                out.append(decision)
            return out

        kwargs = dict(window=16, min_observations=8, cooldown=8)
        got = decisions(HysteresisController(1.0, **kwargs))
        assert got == decisions(NumpyQuantile(1.0, **kwargs))
        assert {"degrade", "upgrade"} <= set(got)


class TestAdmissionControl:
    def test_unmeetable_deadline_rejected(self, ladder):
        fastest = ladder.fastest.estimate_ms(1)
        trace = [request(0, 1.0, fastest / 10),    # cannot make it anywhere
                 request(1, 2.0, fastest * 50)]
        server = Server(ladder, ServerConfig(
            deadline_ms=1.0, execute=False, seed=3))
        result = server.run_trace(trace)
        assert result.responses[0].status == REJECTED
        assert result.responses[0].reject_reason == "unmeetable-deadline"
        assert result.responses[1].status == COMPLETED
        assert result.metrics.counters["rejected"].value == 1
        assert result.metrics.counters["admitted"].value == 1

    def test_queue_full_rejects(self, ladder):
        slowest = ladder.rungs[0].estimate_ms(1)
        # 8 simultaneous arrivals, capacity 2, batch 1: some must drop
        trace = [request(i, 0.001, slowest * 100) for i in range(8)]
        server = Server(ladder, ServerConfig(
            deadline_ms=slowest * 100, queue_capacity=2, max_batch=1,
            adaptive=False, execute=False, seed=3))
        result = server.run_trace(trace)
        reasons = {r.reject_reason for r in result.rejected}
        assert reasons == {"queue-full"}
        assert len(result.rejected) >= 1
        assert (result.metrics.counters["rejected"].value
                + result.metrics.counters["admitted"].value) == 8

    def test_admission_off_admits_everything(self, ladder):
        fastest = ladder.fastest.estimate_ms(1)
        trace = [request(i, 1.0 + i, fastest / 10) for i in range(4)]
        server = Server(ladder, ServerConfig(
            deadline_ms=1.0, execute=False, admission_control=False,
            seed=3))
        result = server.run_trace(trace)
        assert all(r.status == COMPLETED for r in result.responses)
        assert result.metrics.miss_rate == 1.0


class TestServingEndToEnd:
    """The acceptance scenario: overload the full TRN, let the ladder save
    the deadline. Everything is seeded; no wall clock anywhere."""

    DEADLINE_FACTOR = 1.6           # deadline relative to the full TRN
    OVERLOAD = 1.4                  # offered load on the full TRN

    @pytest.fixture(scope="class")
    def scenario(self, ladder):
        full_ms = ladder.rungs[0].estimate_ms(1)
        deadline = full_ms * self.DEADLINE_FACTOR
        rate_rps = self.OVERLOAD / full_ms * 1e3
        trace = poisson_trace(1500, rate_rps, deadline, rng=0)
        assert offered_load(trace, full_ms) > 1.0   # truly unstable
        return trace, deadline

    def test_full_trn_misses_at_least_20_percent(self, ladder, scenario):
        trace, deadline = scenario
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=1,
            adaptive=False, admission_control=False, max_batch=1))
        result = server.run_trace(trace)
        assert result.metrics.miss_rate >= 0.20
        assert result.metrics.counters["degrade_events"].value == 0

    def test_ladder_brings_miss_rate_below_5_percent(self, ladder, scenario):
        trace, deadline = scenario
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=1,
            admission_control=False))
        result = server.run_trace(trace)
        assert result.metrics.counters["degrade_events"].value >= 1
        assert result.metrics.miss_rate < 0.05

    def test_deterministic_replay(self, ladder, scenario):
        trace, deadline = scenario
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=1))
        a = server.run_trace(trace).metrics.snapshot()
        b = server.run_trace(trace).metrics.snapshot()
        assert a == b

    def test_new_server_reuses_latency_tables(self, ladder, scenario,
                                              latency_table_builds):
        """Each Server reseeds the rungs' samplers but keeps their
        per-batch latency tables: a rerun recomputes none of them."""
        trace, deadline = scenario
        config = ServerConfig(deadline_ms=deadline, execute=False, seed=1)
        first = Server(ladder, config).run_trace(trace).metrics.snapshot()
        latency_table_builds.clear()
        again = Server(ladder, config).run_trace(trace).metrics.snapshot()
        assert latency_table_builds == []
        assert again == first

    def test_burst_degrades_then_upgrades(self, ladder):
        """A load spike pushes the ladder down; the quiet tail lets it
        climb back (hysteresis, not one-way degradation)."""
        full_ms = ladder.rungs[0].estimate_ms(1)
        deadline = full_ms * self.DEADLINE_FACTOR
        rate_rps = 0.4 / full_ms * 1e3
        trace = poisson_trace(4000, rate_rps, deadline, rng=2,
                              burst=(0.2, 0.5, 3.0))
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=1,
            admission_control=False))
        result = server.run_trace(trace)
        m = result.metrics
        assert m.counters["degrade_events"].value >= 1
        assert m.counters["upgrade_events"].value >= 1
        directions = [e.direction for e in m.events]
        assert directions.index("degrade") < directions.index("upgrade")
        assert m.miss_rate < 0.05

    def test_outputs_are_real_inference(self, ladder):
        """execute=True must produce the same outputs as a direct batched
        forward through the serving rung."""
        ladder.reset(0)
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(8, 8, 3)).astype(np.float32)
              for _ in range(4)]
        trace = [request(i, 0.001, 100.0, x=xs[i]) for i in range(4)]
        server = Server(ladder, ServerConfig(
            deadline_ms=100.0, execute=True, adaptive=False, seed=0,
            max_batch=4))
        result = server.run_trace(trace)
        rung = ladder.rungs[0]
        expected = rung.network.forward_batch(xs)
        got = np.stack([r.output for r in result.responses])
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
        assert result.responses[0].batch_size == 4


class TestMetricsSnapshot:
    @pytest.fixture(scope="class")
    def run(self, ladder):
        full_ms = ladder.rungs[0].estimate_ms(1)
        deadline = full_ms * 1.6
        trace = poisson_trace(600, 1.2 / full_ms * 1e3, deadline, rng=5)
        server = Server(ladder, ServerConfig(
            deadline_ms=deadline, execute=False, seed=2))
        return server.run_trace(trace)

    def test_counters_are_conserved(self, run):
        c = run.metrics.snapshot()["counters"]
        assert c["arrived"] == 600
        assert c["admitted"] + c["rejected"] == c["arrived"]
        assert c["completed"] == c["admitted"]
        assert c["deadline_miss"] == len(run.missed)
        assert c["deadline_miss"] <= c["completed"]

    def test_quantiles_are_ordered_and_bounded(self, run):
        lat = run.metrics.snapshot()["latency"]
        assert lat["count"] == run.metrics.counters["completed"].value
        assert lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]
        assert lat["p99_ms"] <= lat["max_ms"]
        assert lat["min_ms"] <= lat["p50_ms"]

    def test_miss_rate_matches_responses(self, run):
        snap = run.metrics.snapshot()
        done = [r for r in run.responses if r.status == COMPLETED]
        missed = [r for r in done if not r.deadline_met]
        assert snap["miss_rate"] == pytest.approx(len(missed) / len(done))

    def test_per_rung_counts_cover_all_completed(self, run):
        snap = run.metrics.snapshot()
        assert sum(snap["per_rung"].values()) == \
            run.metrics.counters["completed"].value

    def test_transitions_match_counters(self, run):
        snap = run.metrics.snapshot()
        degrades = [t for t in snap["transitions"] if t[1] == "degrade"]
        upgrades = [t for t in snap["transitions"] if t[1] == "upgrade"]
        assert len(degrades) == snap["counters"]["degrade_events"]
        assert len(upgrades) == snap["counters"]["upgrade_events"]

    def test_report_is_printable(self, run):
        text = run.metrics.report()
        for needle in ("deadline", "miss rate", "p50", "p99", "batches"):
            assert needle in text

    def test_histogram_quantile_accuracy(self):
        from repro.serve import LatencyHistogram

        hist = LatencyHistogram()
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=0.0, sigma=0.5, size=5000)
        for s in samples:
            hist.observe(float(s))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            assert hist.quantile(q) == pytest.approx(exact, rel=0.15)


class TestTraces:
    def test_poisson_trace_is_seeded(self):
        a = poisson_trace(50, 100.0, 1.0, rng=7)
        b = poisson_trace(50, 100.0, 1.0, rng=7)
        assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
        assert all(x.arrival_ms < y.arrival_ms for x, y in zip(a, a[1:]))

    def test_burst_compresses_the_middle(self):
        calm = poisson_trace(300, 100.0, 1.0, rng=1)
        bursty = poisson_trace(300, 100.0, 1.0, rng=1,
                               burst=(0.3, 0.7, 10.0))
        span = lambda t: t[-1].arrival_ms - t[0].arrival_ms  # noqa: E731
        assert span(bursty) < span(calm)

    def test_uniform_trace_rate(self):
        t = uniform_trace(100, 1000.0, 1.0)
        gaps = np.diff([r.arrival_ms for r in t])
        assert np.allclose(gaps, 1.0)

    def test_rendered_payloads(self):
        t = poisson_trace(3, 100.0, 1.0, rng=0, image_size=8, render=True)
        for r in t:
            assert r.x.shape == (8, 8, 3)
            assert r.x.dtype == np.float32


class TestBatchedForward:
    def test_forward_batch_matches_looped_forward(self, tiny_net, rng):
        xs = [rng.normal(size=(8, 8, 3)).astype(np.float32)
              for _ in range(5)]
        batched = tiny_net.forward_batch(xs)
        looped = np.stack([tiny_net.forward(x[None])[0] for x in xs])
        np.testing.assert_allclose(batched, looped, rtol=1e-5, atol=1e-6)

    def test_single_sample_forward_autobatches(self, tiny_net, rng):
        x = rng.normal(size=(8, 8, 3)).astype(np.float32)
        out = tiny_net.forward(x)
        assert out.shape == (5,)
        np.testing.assert_allclose(out, tiny_net.forward(x[None])[0],
                                   rtol=1e-6, atol=1e-7)

    def test_single_sample_capture_is_unbatched(self, tiny_net, rng):
        x = rng.normal(size=(8, 8, 3)).astype(np.float32)
        out, acts = tiny_net.forward(x, capture=["b1_relu"])
        assert out.shape == (5,)
        assert acts["b1_relu"].ndim == 3

    def test_forward_batch_rejects_empty(self, tiny_net):
        with pytest.raises(ValueError, match="at least one"):
            tiny_net.forward_batch([])
