"""Tests for repro.workload: generators, tenancy, record/replay, fluid.

Everything runs over virtual time with fixed seeds. The serving-stack
integration tests use the tiny conftest network on a quiet synthetic
device so they stay fast; the fluid-model unit tests run on hand-built
latency tables so the arithmetic is checkable by eye.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_tiny_net
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import (
    ConstantRate,
    DiurnalCycle,
    FlashCrowd,
    FluidModel,
    MarkovModulated,
    Superposition,
    TenantClass,
    TenantMix,
    WORKLOAD_KINDS,
    WeightedFairAdmission,
    default_tenants,
    generate_trace,
    load_trace,
    make_process,
    record_run,
    save_trace,
    verify_replay,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def quiet_device():
    from repro.device.spec import DeviceSpec

    return DeviceSpec(
        name="test-device", peak_gflops=10.0, bandwidth_gbps=1.0,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


@pytest.fixture(scope="module")
def ladder(quiet_device):
    return TRNLadder.from_base(make_tiny_net(), quiet_device, num_classes=5)


@pytest.fixture(scope="module")
def mix():
    return TenantMix([
        TenantClass("interactive", deadline_ms=4.0, weight=3.0, share=0.3,
                    priority=1),
        TenantClass("batch", deadline_ms=16.0, weight=1.0, share=0.7),
    ])


class TestArrivalProcesses:
    def test_constant_rate_hits_expected_count(self):
        trace = ConstantRate(5000).arrival_times_ms(1000.0, rng=0)
        # Poisson(5000 rps * 1 s): 5000 +- a few sigma
        assert 4600 < len(trace) < 5400
        assert np.all(np.diff(trace) >= 0)
        assert trace[0] >= 0 and trace[-1] < 1000.0

    def test_same_seed_same_trace(self):
        p = DiurnalCycle(2000, amplitude=0.5, period_ms=300.0)
        a = p.arrival_times_ms(300.0, rng=7)
        b = p.arrival_times_ms(300.0, rng=7)
        assert np.array_equal(a, b)
        c = p.arrival_times_ms(300.0, rng=8)
        assert len(c) != len(a) or not np.array_equal(a, c)

    def test_diurnal_rate_shape(self):
        p = DiurnalCycle(1000, amplitude=0.5, period_ms=400.0)
        assert p.rate_rps(0.0) == pytest.approx(1000.0)
        assert p.rate_rps(100.0) == pytest.approx(1500.0)   # crest
        assert p.rate_rps(300.0) == pytest.approx(500.0)    # trough
        assert p.peak_rate_rps == pytest.approx(1500.0)
        assert p.mean_rate_rps(400.0) == pytest.approx(1000.0, rel=1e-3)

    def test_flash_crowd_phases(self):
        p = FlashCrowd(1000, peak_multiplier=4.0, start_ms=100.0,
                       ramp_ms=20.0, hold_ms=30.0, decay_ms=10.0)
        assert p.rate_rps(50.0) == pytest.approx(1000.0)    # before
        assert p.rate_rps(110.0) == pytest.approx(2500.0)   # mid-ramp
        assert p.rate_rps(130.0) == pytest.approx(4000.0)   # holding
        decayed = float(p.rate_rps(160.0))                  # one tau in
        assert 1000.0 < decayed < 4000.0
        assert float(p.rate_rps(400.0)) == pytest.approx(1000.0, rel=1e-2)

    def test_mmpp_prepare_realises_switches(self):
        p = MarkovModulated((500.0, 4000.0), (50.0, 10.0))
        # un-prepared: flat at the start state
        assert float(p.rate_rps(123.0)) == pytest.approx(500.0)
        p.prepare(500.0, np.random.default_rng(0))
        rates = np.unique(p.rate_rps(np.linspace(0, 500, 2000)))
        assert set(rates) <= {500.0, 4000.0}
        assert len(rates) == 2   # it actually switched within the horizon

    def test_superposition_adds_rates(self):
        p = Superposition(ConstantRate(1000), ConstantRate(250))
        assert float(p.rate_rps(10.0)) == pytest.approx(1250.0)
        assert p.peak_rate_rps == pytest.approx(1250.0)
        assert "constant" in p.describe()

    def test_make_process_covers_all_kinds(self):
        for kind in WORKLOAD_KINDS:
            p = make_process(kind, 1000.0, 200.0)
            assert p.peak_rate_rps > 0
            assert len(p.arrival_times_ms(200.0, rng=0)) > 0
        with pytest.raises(KeyError, match="unknown workload kind"):
            make_process("tsunami", 1000.0, 200.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            DiurnalCycle(100, amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowd(100, peak_multiplier=0.5, start_ms=0.0)
        with pytest.raises(ValueError):
            MarkovModulated((100.0,), (10.0,))
        with pytest.raises(ValueError):
            ConstantRate(100).arrival_times_ms(-1.0)


class TestGenerateTrace:
    def test_single_class_trace(self):
        trace = generate_trace(ConstantRate(2000), 100.0, deadline_ms=5.0,
                               rng=0, start_rid=10)
        assert trace
        assert [r.rid for r in trace] == list(range(10, 10 + len(trace)))
        assert all(r.deadline_ms == 5.0 and r.tenant is None for r in trace)
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)

    def test_tenant_trace_inherits_deadlines(self, mix):
        trace = generate_trace(ConstantRate(4000), 200.0, tenants=mix, rng=1)
        by_tenant = {t.name: t for t in mix}
        assert {r.tenant for r in trace} == set(by_tenant)
        for r in trace:
            assert r.deadline_ms == by_tenant[r.tenant].deadline_ms
        frac = sum(r.tenant == "batch" for r in trace) / len(trace)
        assert 0.6 < frac < 0.8   # ~0.7 share

    def test_requires_some_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            generate_trace(ConstantRate(100), 50.0)


class TestTenancy:
    def test_mix_normalises_shares(self, mix):
        assert float(np.sum(mix.shares)) == pytest.approx(1.0)
        assert "interactive" in mix and "nobody" not in mix
        assert mix["batch"].deadline_ms == 16.0
        assert len(mix) == 2
        rates = mix.rates_rps(1000.0)
        assert rates["interactive"] == pytest.approx(300.0)
        assert rates["batch"] == pytest.approx(700.0)

    def test_tenant_class_validation(self):
        with pytest.raises(ValueError):
            TenantClass("", deadline_ms=1.0)
        with pytest.raises(ValueError):
            TenantClass("t", deadline_ms=0.0)
        with pytest.raises(ValueError):
            TenantClass("t", deadline_ms=1.0, weight=0.0)
        with pytest.raises(ValueError):
            TenantMix([])
        with pytest.raises(ValueError, match="unique"):
            TenantMix([TenantClass("a", 1.0), TenantClass("a", 2.0)])

    def test_default_tenants_shape(self):
        mix = default_tenants()
        assert [t.name for t in mix] == ["interactive", "batch"]
        assert mix["interactive"].weight > mix["batch"].weight


class _FakeRequest:
    def __init__(self, tenant):
        self.tenant = tenant


class TestWeightedFairAdmission:
    def policy(self, **kw):
        p = WeightedFairAdmission(default_tenants(), **kw)
        p.reset()
        return p

    def test_inert_below_watermark(self):
        p = self.policy(watermark=0.5)
        for _ in range(50):
            req = _FakeRequest("batch")
            assert p.allow(req, queue_len=10, capacity=64)
            p.record(req)
        # below 0.5 * 64 the flood was never throttled
        assert p.share_of("batch") == pytest.approx(1.0)

    def test_over_share_tenant_throttled_above_watermark(self):
        p = self.policy(watermark=0.25)
        for _ in range(40):
            p.record(_FakeRequest("batch"))
        # batch holds 100% of the window but is only guaranteed 25%
        assert not p.allow(_FakeRequest("batch"), 32, 64)
        assert p.allow(_FakeRequest("interactive"), 32, 64)
        # fair shares come from weights (3:1), not traffic shares
        assert p.fair_share_of("interactive") == pytest.approx(0.75)
        assert p.fair_share_of("batch") == pytest.approx(0.25)

    def test_unknown_and_untagged_bypass(self):
        p = self.policy()
        for _ in range(20):
            p.record(_FakeRequest("batch"))
        assert p.allow(_FakeRequest(None), 64, 64)
        assert p.allow(_FakeRequest("stranger"), 64, 64)
        p.record(_FakeRequest("stranger"))   # not counted either
        assert p.share_of("stranger") == 0.0

    def test_window_slides(self):
        p = self.policy(window=8)
        for _ in range(8):
            p.record(_FakeRequest("batch"))
        for _ in range(8):
            p.record(_FakeRequest("interactive"))
        assert p.share_of("batch") == 0.0   # aged out entirely
        assert p.share_of("interactive") == pytest.approx(1.0)

    def test_reset_forgets_history(self):
        p = self.policy()
        p.record(_FakeRequest("batch"))
        p.reset()
        assert p.share_of("batch") == 0.0
        assert p.allow(_FakeRequest("batch"), 64, 64)

    def test_describe_mentions_shares(self):
        assert "watermark" in self.policy().describe()


class TestEngineTenantIntegration:
    @pytest.fixture(scope="class")
    def served(self, ladder, mix):
        trace = generate_trace(ConstantRate(25000), 150.0, tenants=mix,
                               rng=0)
        policy = WeightedFairAdmission(mix, watermark=0.25)
        config = ServerConfig(deadline_ms=4.0, execute=False, seed=0,
                              queue_capacity=16, adaptive=False,
                              admission_policy=policy)
        return trace, Server(ladder, config).run_trace(trace)

    def test_responses_carry_tenants(self, served):
        trace, result = served
        tenant_of = {r.rid: r.tenant for r in trace}
        assert result.responses
        for resp in result.responses:
            assert resp.tenant == tenant_of[resp.rid]

    def test_snapshot_breaks_down_by_tenant(self, served, mix):
        trace, result = served
        snap = result.metrics.snapshot()
        assert set(snap["tenants"]) == {t.name for t in mix}
        for name, b in snap["tenants"].items():
            arrived = sum(r.tenant == name for r in trace)
            assert b["arrived"] == arrived
            assert b["admitted"] + b["rejected"] == arrived
            assert b["completed"] + b["dropped"] == b["admitted"]
            assert 0.0 <= b["miss_rate"] <= 1.0
        totals = snap["counters"]
        assert sum(b["arrived"] for b in snap["tenants"].values()) \
            == totals["arrived"]
        assert sum(b["completed"] for b in snap["tenants"].values()) \
            == totals["completed"]

    def test_over_share_rejections_are_attributed(self, served):
        _, result = served
        reasons = {r.reject_reason for r in result.responses
                   if r.status == "rejected"}
        assert "tenant-over-share" in reasons
        for resp in result.responses:
            if resp.reject_reason == "tenant-over-share":
                assert resp.tenant is not None

    def test_report_lists_tenants(self, served):
        _, result = served
        report = result.metrics.report()
        assert "interactive" in report and "batch" in report

    def test_merge_folds_tenant_buckets(self, served):
        from repro.serve.metrics import ServerMetrics

        _, result = served
        total = ServerMetrics(4.0)
        total.merge(result.metrics)
        total.merge(result.metrics)
        one = result.metrics.snapshot()["tenants"]
        two = total.snapshot()["tenants"]
        for name in one:
            assert two[name]["arrived"] == 2 * one[name]["arrived"]
            assert two[name]["miss_rate"] == \
                pytest.approx(one[name]["miss_rate"])


class TestRecordReplay:
    def run_once(self, ladder, mix, trace):
        config = ServerConfig(deadline_ms=4.0, execute=False, seed=0,
                              queue_capacity=16, adaptive=False)
        return Server(ladder, config).run_trace(trace)

    def test_round_trip_preserves_requests(self, tmp_path, mix):
        trace = generate_trace(ConstantRate(2000), 100.0, tenants=mix,
                               rng=0, render=True, image_size=8)
        path = tmp_path / "t.jsonl"
        save_trace(path, trace, meta={"note": "round-trip"})
        loaded = load_trace(path)
        assert loaded.meta == {"note": "round-trip"}
        assert len(loaded) == len(trace)
        assert loaded.tenants() == ["batch", "interactive"]
        for a, b in zip(trace, loaded.requests):
            assert (a.rid, a.arrival_ms, a.deadline_ms, a.tenant) \
                == (b.rid, b.arrival_ms, b.deadline_ms, b.tenant)
            assert np.array_equal(a.x, b.x)

    def test_replay_reproduces_outcomes(self, tmp_path, ladder, mix):
        trace = generate_trace(ConstantRate(2500), 120.0, tenants=mix, rng=3)
        first = self.run_once(ladder, mix, trace)
        path = tmp_path / "run.jsonl"
        record_run(path, trace, first.responses, meta={"seed": 3})
        recorded = load_trace(path)
        assert recorded.meta["statuses"]["completed"] > 0
        again = self.run_once(ladder, mix, recorded.requests)
        assert verify_replay(recorded, again.responses) == []

    def test_verify_replay_flags_divergence(self, tmp_path, ladder, mix):
        trace = generate_trace(ConstantRate(2000), 80.0, tenants=mix, rng=4)
        result = self.run_once(ladder, mix, trace)
        path = tmp_path / "run.jsonl"
        record_run(path, trace, result.responses)
        recorded = load_trace(path)
        problems = verify_replay(recorded, result.responses[:-1])
        assert len(problems) == 1 and "missing from replay" in problems[0]
        recorded.outcomes[0]["rung"] = "not-a-rung"
        problems = verify_replay(recorded, result.responses)
        assert any("differs in" in p and "rung" in p for p in problems)

    def test_load_rejects_foreign_and_truncated_files(self, tmp_path):
        bad_kind = tmp_path / "bad.jsonl"
        bad_kind.write_text('{"kind": "something-else", "version": 1}\n')
        with pytest.raises(ValueError, match="not a workload trace"):
            load_trace(bad_kind)
        bad_version = tmp_path / "v99.jsonl"
        bad_version.write_text(json.dumps(
            {"kind": "repro.workload.trace", "version": 99,
             "meta": {}, "requests": 0, "outcomes": 0}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(bad_version)
        trace = generate_trace(ConstantRate(1000), 50.0, deadline_ms=2.0)
        full = tmp_path / "full.jsonl"
        save_trace(full, trace)
        lines = full.read_text().splitlines()
        truncated = tmp_path / "cut.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_trace(truncated)

    def test_trace_bytes_stable_across_hash_seeds(self, tmp_path):
        code = (
            "import sys\n"
            "sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
            "from conftest import make_tiny_net\n"
            "from repro.device.spec import DeviceSpec\n"
            "from repro.serve import Server, ServerConfig, TRNLadder\n"
            "from repro.workload import (ConstantRate, default_tenants,\n"
            "    generate_trace, record_run)\n"
            "spec = DeviceSpec(name='d', peak_gflops=10.0,\n"
            "    bandwidth_gbps=1.0, launch_overhead_us=5.0,\n"
            "    occupancy_flops=1e4, noise_std=0.005, straggler_prob=0.0,\n"
            "    event_overhead_us=2.0)\n"
            "ladder = TRNLadder.from_base(make_tiny_net(), spec,\n"
            "                             num_classes=5)\n"
            "trace = generate_trace(ConstantRate(2500), 100.0,\n"
            "    tenants=default_tenants(), rng=0)\n"
            "config = ServerConfig(deadline_ms=3.0, execute=False, seed=0,\n"
            "    queue_capacity=16, adaptive=False)\n"
            "result = Server(ladder, config).run_trace(trace)\n"
            "record_run(sys.argv[1], trace, result.responses,\n"
            "           meta={'seed': 0})\n"
        ) % (os.path.join(REPO, "src"), os.path.join(REPO, "tests"))

        def run(hashseed: str, name: str) -> bytes:
            path = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            subprocess.run([sys.executable, "-c", code, str(path)],
                           env=env, check=True, capture_output=True)
            return path.read_bytes()

        first = run("0", "a.jsonl")
        second = run("31337", "b.jsonl")
        assert first == second
        assert first.startswith(b'{"kind": "repro.workload.trace"')


class TestSharedTraceHelpersMoved:
    def test_moved_helpers_still_work(self):
        from repro.serve import offered_load, poisson_trace, uniform_trace

        trace = poisson_trace(50, 1000.0, 2.0, rng=0)
        assert len(trace) == 50
        even = uniform_trace(10, 1000.0, 2.0)
        gaps = np.diff([r.arrival_ms for r in even])
        assert np.allclose(gaps, 1.0)
        assert offered_load(even, 2.0) == pytest.approx(2.0)


class TestImportOrder:
    """``workload/fluid.py`` takes the serving rules from ``repro.serve``
    at module level while ``repro.serve`` re-exports the trace makers of
    ``repro.workload``: either package must import first."""

    @pytest.mark.parametrize("first", ["repro.workload", "repro.serve"])
    def test_fresh_interpreter_imports(self, first):
        code = (f"import {first}\n"
                "from repro.serve import MicroBatcher, poisson_trace\n"
                "from repro.workload import FluidModel\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True)


class TestFluidModel:
    def model(self, **kw):
        # est(b) = 0.5 + 0.1*b ms: one request each 0.6 ms, batching pays
        table = {"r0": [0.5 + 0.1 * b for b in range(1, 9)]}
        defaults = dict(queue_capacity=32, max_batch=8,
                        admission_est_ms=0.6, deadline_ms=10.0)
        defaults.update(kw)
        return FluidModel(table, **defaults)

    def test_light_load_admits_everything(self):
        pred = self.model().solve(ConstantRate(200), 200.0)
        assert pred.admitted_rps == pytest.approx(pred.offered_rps, rel=0.01)
        assert pred.miss_rate < 0.01
        assert pred.rung == "r0"

    def test_overload_caps_at_service_capacity(self):
        pred = self.model().solve(ConstantRate(20000), 200.0)
        assert pred.offered_rps == pytest.approx(20000, rel=0.05)
        # max throughput: batch of 8 in 1.3 ms -> ~6150 rps
        assert pred.admitted_rps < 7000
        assert pred.admitted_rps > 4000
        t = pred.tenants["default"]
        assert t.rejected_rps == pytest.approx(
            t.offered_rps - t.admitted_rps)

    def test_unmeetable_deadline_admits_nothing(self):
        m = self.model(deadline_ms=0.4)   # below est(1) = 0.6
        pred = m.solve(ConstantRate(1000), 100.0)
        assert pred.admitted_rps == 0.0
        m = self.model(deadline_ms=0.4, admission_control=False)
        assert m.solve(ConstantRate(1000), 100.0).admitted_rps > 0

    def test_replicas_split_the_load(self):
        # deadline 2 ms: a full queue costs ~5 ms of wait, so a saturated
        # replica misses while an unsaturated fleet does not
        m = self.model(deadline_ms=2.0)
        one = m.solve(ConstantRate(20000), 200.0, replicas=1)
        four = m.solve(ConstantRate(20000), 200.0, replicas=4)
        assert four.admitted_rps > 3 * one.admitted_rps
        assert one.miss_rate > 0.10
        assert four.miss_rate < one.miss_rate

    def test_miss_probability_tail(self):
        m = self.model(noise_std=0.05, straggler_prob=0.1,
                       straggler_scale=1.0)
        assert m.miss_probability(-1.0, 1.0) == 1.0
        assert m.miss_probability(0.4, 1.0) == 1.0     # under the 0.5 clip
        loose = m.miss_probability(3.0, 1.0)
        tight = m.miss_probability(1.01, 1.0)
        assert 0.0 <= loose < tight <= 1.0
        assert m.mean_factor == pytest.approx(1.05)

    def test_tenant_shares_split_offered_load(self, mix):
        m = self.model(tenants=mix)
        pred = m.solve(ConstantRate(1000), 200.0)
        assert set(pred.tenants) == {"interactive", "batch"}
        assert pred.tenants["interactive"].offered_rps \
            == pytest.approx(300.0, rel=0.05)
        assert pred.tenants["batch"].offered_rps \
            == pytest.approx(700.0, rel=0.05)

    def test_fair_policy_protects_heavy_weight_tenant(self, mix):
        m = self.model(tenants=mix,
                       policy=WeightedFairAdmission(mix, watermark=0.25))
        pred = m.solve(ConstantRate(20000), 200.0)
        inter, batch = pred.tenants["interactive"], pred.tenants["batch"]
        # under 3:1 weights the small tenant keeps all of its demand
        assert inter.admitted_rps / inter.offered_rps \
            > batch.admitted_rps / batch.offered_rps
        assert "miss" in pred.report()

    def test_sweep_and_plan_fleet(self):
        m = self.model(deadline_ms=2.0)
        preds = m.sweep(ConstantRate(30000), 200.0, [1, 4, 16])
        assert sorted(preds) == [1, 4, 16]
        assert preds[16].miss_rate <= preds[1].miss_rate
        n = m.plan_fleet(ConstantRate(30000), 200.0, target_miss_rate=0.01)
        assert n is not None and 1 < n <= 16
        # one fewer replica must fail the target (minimality)
        worse = m.solve(ConstantRate(30000), 200.0, replicas=n - 1)
        assert any(t.miss_rate > 0.01 for t in worse.tenants.values())
        assert m.plan_fleet(ConstantRate(30000), 200.0, 0.01,
                            max_replicas=1) is None

    def test_solve_ladder_covers_every_rung(self):
        tables = {"fast": [0.2 + 0.05 * b for b in range(1, 9)],
                  "slow": [0.8 + 0.2 * b for b in range(1, 9)]}
        m = FluidModel(tables, queue_capacity=32, max_batch=8,
                       admission_est_ms=0.25, deadline_ms=10.0)
        preds = m.solve_ladder(ConstantRate(5000), 200.0)
        assert set(preds) == {"fast", "slow"}
        assert preds["fast"].admitted_rps >= preds["slow"].admitted_rps

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="latency table"):
            FluidModel({}, queue_capacity=8, max_batch=8,
                       admission_est_ms=0.1, deadline_ms=1.0)
        with pytest.raises(ValueError, match="batch size"):
            FluidModel({"r": [0.1]}, queue_capacity=8, max_batch=8,
                       admission_est_ms=0.1, deadline_ms=1.0)
        m = self.model()
        with pytest.raises(KeyError, match="unknown rung"):
            m.solve(ConstantRate(100), 100.0, rung="r9")
        with pytest.raises(ValueError, match="replicas"):
            m.solve(ConstantRate(100), 100.0, replicas=0)

    def test_from_ladder_matches_config(self, ladder, mix):
        policy = WeightedFairAdmission(mix)
        config = ServerConfig(deadline_ms=4.0, execute=False, seed=0,
                              queue_capacity=16, adaptive=False,
                              admission_policy=policy)
        m = FluidModel.from_ladder(ladder, config, tenants=mix)
        assert set(m.latency_tables) == {r.name for r in ladder.rungs}
        assert m.queue_capacity == 16
        assert m.policy is policy
        # pinned rung -> admission gate uses the current rung's est(1)
        assert m.admission_est_ms \
            == pytest.approx(ladder.current.estimate_ms(1))
