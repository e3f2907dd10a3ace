"""Tests for the multi-replica scale-out layer (repro.cluster).

Everything runs on simulated devices over virtual time with fixed seeds,
like the single-node serve tests. The load-bearing property is that the
cluster layer adds routing without changing serving semantics: a
one-replica cluster reproduces a plain Server run bit for bit, and the
conservation law ``completed + dropped == admitted`` holds fleet-wide.
"""

import json

import numpy as np
import pytest

from conftest import make_tiny_net
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    DeadlineAwareP2C,
    JoinShortestQueue,
    Replica,
    RoundRobin,
    Router,
    homogeneous_replicas,
    make_policy,
)
from repro.device.spec import DeviceSpec, stable_seed
from repro.faults import FaultInjector, RungFailure
from repro.obs import Counter, LatencyHistogram, Tracer
from repro.serve import (
    Request,
    Server,
    ServerConfig,
    TRNLadder,
    poisson_trace,
)
from repro.serve.metrics import ServerMetrics


def tiny_spec(name="test-device", speed=1.0):
    return DeviceSpec(
        name=name, peak_gflops=10.0 * speed, bandwidth_gbps=1.0 * speed,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


@pytest.fixture(scope="module")
def spec():
    return tiny_spec()


@pytest.fixture(scope="module")
def base():
    return make_tiny_net()


@pytest.fixture(scope="module")
def feasible_rate(base, spec):
    """Requests/s one replica can sustain on its slowest rung, roughly."""
    ladder = TRNLadder.from_base(base, spec, num_classes=5)
    return 1e3 / ladder.rungs[0].estimate_ms(1)


def request(rid, arrival, deadline):
    return Request(rid=rid, arrival_ms=arrival, deadline_ms=deadline)


class StubReplica:
    """Just enough surface for policy unit tests: a name, a load, an
    estimate."""

    def __init__(self, name, load=0, estimate=1.0):
        self.name = name
        self.load = load
        self.draining = False
        self._estimate = estimate

    def estimate_finish_ms(self, now_ms):
        return self._estimate


class TestPolicies:
    def test_round_robin_cycles_in_order(self):
        reps = [StubReplica(n) for n in "abc"]
        policy = RoundRobin()
        picked = [policy.choose(reps, request(i, 0.0, 1.0), 0.0).name
                  for i in range(6)]
        assert picked == ["a", "b", "c", "a", "b", "c"]

    def test_jsq_picks_least_loaded_with_stable_ties(self):
        reps = [StubReplica("a", load=3), StubReplica("b", load=1),
                StubReplica("c", load=1)]
        policy = JoinShortestQueue()
        assert policy.choose(reps, request(0, 0.0, 1.0), 0.0).name == "b"

    def test_empty_candidates_yield_none(self):
        req = request(0, 0.0, 1.0)
        for policy in (RoundRobin(), JoinShortestQueue(),
                       DeadlineAwareP2C(seed=0)):
            assert policy.choose([], req, 0.0) is None

    def test_p2c_prefers_the_earlier_estimate(self):
        fast = StubReplica("fast", estimate=1.0)
        slow = StubReplica("slow", estimate=4.0)
        policy = DeadlineAwareP2C(seed=0)
        # both fit the deadline -> the earlier finish wins
        assert policy.choose([slow, fast], request(0, 0.0, 9.0),
                             0.0) is fast

    def test_p2c_rejects_onward_to_a_fitting_replica(self):
        # whichever pair is sampled, the only estimate that fits the
        # deadline must be committed to — directly if sampled, via the
        # reject-onward pass if not
        reps = [StubReplica("a", estimate=10.0),
                StubReplica("b", estimate=10.0),
                StubReplica("c", estimate=1.0)]
        policy = DeadlineAwareP2C(seed=0)
        for rid in range(32):
            assert policy.choose(reps, request(rid, 0.0, 5.0),
                                 0.0).name == "c"

    def test_p2c_falls_back_to_least_bad_when_every_estimate_misses(self):
        reps = [StubReplica("a", estimate=10.0),
                StubReplica("b", estimate=20.0),
                StubReplica("c", estimate=30.0)]
        policy = DeadlineAwareP2C(seed=0)
        # abs deadline 5 ms: nothing fits, yet nothing is dropped either —
        # the least-bad estimate is returned every time
        for rid in range(32):
            assert policy.choose(reps, request(rid, 0.0, 5.0),
                                 0.0).name == "a"

    @staticmethod
    def numpy_stream(seed):
        """The generator ``DeadlineAwareP2C(seed)`` is seeded with."""
        return np.random.default_rng(
            stable_seed("cluster-router", DeadlineAwareP2C.name, seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_p2c_pairs_are_numpys_choice(self, seed):
        # Generator.choice is the reference: a NumPy release that changes
        # its sampler fails here instead of silently moving routes
        for n in range(3, 17):
            policy, ref = DeadlineAwareP2C(seed), self.numpy_stream(seed)
            for _ in range(200):
                assert policy._pair(n) == tuple(
                    ref.choice(n, 2, replace=False).tolist())

    def test_p2c_pairs_follow_a_changing_fleet_across_refills(self):
        # a scaling fleet changes n from one request to the next
        sizes = np.random.default_rng(1).integers(3, 17, size=3000)
        policy, ref = DeadlineAwareP2C(0), self.numpy_stream(0)
        for n in sizes.tolist():
            assert policy._pair(n) == tuple(
                ref.choice(n, 2, replace=False).tolist())
        # the policy read its generator in whole blocks, and more than
        # one of them: the sequence crossed a refill
        fresh = self.numpy_stream(0).bit_generator
        blocks = 0
        while fresh.state != policy._rng.bit_generator.state:
            fresh.advance(DeadlineAwareP2C._BLOCK)
            blocks += 1
            assert blocks <= 32
        assert blocks >= 2

    def test_p2c_probes_the_sampled_pair(self):
        probed = []

        class Probe(StubReplica):
            def estimate_finish_ms(self, now_ms):
                probed.append(self.name)
                return self._estimate

        reps = [Probe(i) for i in range(5)]
        policy, ref = DeadlineAwareP2C(3), self.numpy_stream(3)
        for rid in range(200):
            probed.clear()
            chosen = policy.choose(reps, request(rid, 0.0, 9.0), 0.0)
            pair = ref.choice(5, 2, replace=False).tolist()
            assert probed == pair
            # equal estimates: the tie goes to the lower index
            assert chosen.name == min(pair)

    def test_make_policy_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            make_policy("definitely-not-a-policy")


class TestReplica:
    def test_estimate_grows_with_backlog(self, base, spec):
        ladder = TRNLadder.from_base(base, spec, num_classes=5)
        replica = Replica("r0", ladder, ServerConfig(deadline_ms=5.0,
                                                     execute=False))
        idle = replica.estimate_finish_ms(0.0)
        for rid in range(3 * replica.config.max_batch):
            replica.submit(request(rid, 0.0, 5.0))
        assert replica.estimate_finish_ms(0.0) > idle

    def test_faster_device_estimates_earlier(self, base):
        fast = Replica("fast", TRNLadder.from_base(base, tiny_spec("fast", 4.0),
                                                   num_classes=5),
                       ServerConfig(deadline_ms=5.0, execute=False))
        slow = Replica("slow", TRNLadder.from_base(base, tiny_spec("slow", 1.0),
                                                   num_classes=5),
                       ServerConfig(deadline_ms=5.0, execute=False))
        assert fast.estimate_finish_ms(0.0) < slow.estimate_finish_ms(0.0)

    def test_draining_replica_reads_unhealthy(self, base, spec):
        ladder = TRNLadder.from_base(base, spec, num_classes=5)
        replica = Replica("r0", ladder, ServerConfig(execute=False))
        assert replica.healthy(0.0)
        replica.draining = True
        assert not replica.healthy(0.0)


class TestSingleReplicaEquivalence:
    def test_one_replica_cluster_matches_plain_server(self, base, spec,
                                                      feasible_rate):
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0)
        trace = poisson_trace(300, 1.5 * feasible_rate, 2.0, rng=0)

        server = Server(TRNLadder.from_base(base, spec, num_classes=5),
                        config)
        expected = server.run_trace(trace)

        replicas = homogeneous_replicas(base, spec, 1, config)
        result = Router(replicas, RoundRobin()).run(trace)

        assert (json.dumps(result.metrics.aggregate().snapshot(),
                           sort_keys=True)
                == json.dumps(expected.metrics.snapshot(), sort_keys=True))
        assert [(r.rid, r.status, r.finish_ms) for r in result.responses] \
            == [(r.rid, r.status, r.finish_ms) for r in expected.responses]


class TestRouterEdgeCases:
    def test_empty_replica_pool_rejects_everything_without_crashing(self):
        trace = [request(i, float(i), 1.0) for i in range(5)]
        result = Router([], RoundRobin()).run(trace)
        assert len(result.responses) == 5
        assert all(r.status == "rejected" and r.reject_reason == "no-replica"
                   for r in result.responses)
        assert result.metrics.counters["arrived"].value == 5
        assert result.metrics.counters["no_replica"].value == 5

    def test_all_breakers_open_drops_at_cluster_level(self, base, spec,
                                                      feasible_rate):
        # every rung hard-fails for the whole run and the breakers never
        # cool down, so once they open the fleet reads unhealthy and the
        # router must drop at cluster level rather than crash
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0,
                              resilience=True, breaker_cooldown_ms=1e9)
        dead = FaultInjector([RungFailure(start_ms=0.0, duration_ms=1e9)],
                             seed=0)
        trace = poisson_trace(100, feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 1, config,
                                        faults={0: dead})
        result = Router(replicas, make_policy("p2c-deadline", 0)).run(trace)

        assert len(result.responses) == len(trace)
        assert not result.completed
        assert result.metrics.counters["no_replica"].value > 0
        c = result.metrics.aggregate().counters
        assert c["completed"].value + c["dropped"].value == c["admitted"].value

    def test_conservation_and_order_under_overload(self, base, spec,
                                                   feasible_rate):
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0,
                              queue_capacity=16)
        trace = poisson_trace(400, 6.0 * feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 3, config)
        result = Router(replicas, make_policy("jsq")).run(trace)

        cm = result.metrics.counters
        assert cm["arrived"].value == len(trace)
        assert cm["routed"].value + cm["no_replica"].value == len(trace)
        agg = result.metrics.aggregate().counters
        assert agg["admitted"].value + agg["rejected"].value \
            == cm["routed"].value
        assert agg["completed"].value + agg["dropped"].value \
            == agg["admitted"].value
        # responses come back in trace order, one per request
        assert [r.rid for r in result.responses] == [t.rid for t in trace]

    def test_cluster_spans_carry_replica_and_policy_tags(self, base, spec,
                                                         feasible_rate):
        tracer = Tracer()
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0)
        trace = poisson_trace(50, feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 2, config, tracer=tracer)
        result = Router(replicas, make_policy("round-robin"),
                        tracer=tracer).run(trace)

        routes = tracer.spans("route")
        assert len(routes) == result.metrics.counters["routed"].value
        assert {s.args["replica"] for s in routes} == {"r0", "r1"}
        assert all(s.args["policy"] == "round-robin" for s in routes)
        # engine-side spans are tagged by the replica that emitted them
        assert {s.args["replica"] for s in tracer.spans("respond")} \
            == {"r0", "r1"}


class TestRunOwnership:
    """Each replica is an engine that owns its share of the run."""

    @pytest.mark.parametrize("dead", [(0,), (0, 1, 2)])
    def test_replicas_hold_one_response_per_routed_request(
            self, base, spec, feasible_rate, dead):
        # dead replicas drop their batches until their breakers open for
        # good; with the whole fleet dead the router rejects the rest
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0,
                              queue_capacity=16, resilience=True,
                              breaker_cooldown_ms=1e9)
        faults = {i: FaultInjector([RungFailure(start_ms=0.0,
                                                duration_ms=1e9)], seed=0)
                  for i in dead}
        trace = poisson_trace(400, 6.0 * feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 3, config, faults=faults)
        result = Router(replicas, make_policy("p2c-deadline", 0)).run(trace)

        assert all(not r.pending for r in replicas)
        held = [rid for r in replicas for rid in r.responses]
        assert len(held) == len(set(held))
        cluster = [r.rid for r in result.responses
                   if r.reject_reason == "no-replica"]
        assert bool(cluster) == (len(dead) == len(replicas))
        assert sorted(held + cluster) == sorted(t.rid for t in trace)

    def test_router_steps_only_replicas_that_can_start_work(
            self, monkeypatch):
        # a replica that is idle, or still mid-batch at the arrival,
        # would admit, serve, tick and sample nothing there
        from repro.device import xavier
        from repro.zoo import build_network

        steps = []
        advance = Replica.advance

        def spy(replica, until_ms):
            if until_ms != float("inf"):
                steps.append((replica.clock_ms < until_ms, replica.load > 0))
            advance(replica, until_ms)

        monkeypatch.setattr(Replica, "advance", spy)
        base = build_network("mobilenet_v1_0.25").build(0)
        replicas = homogeneous_replicas(base, xavier(), 3,
                                        ServerConfig(execute=False),
                                        max_rungs=3)
        Router(replicas, make_policy("p2c-deadline", 0)).run(
            poisson_trace(600, 2e4, 0.9, rng=0))
        assert steps
        assert all(behind and loaded for behind, loaded in steps)


class ScalerStub:
    """A replica as the autoscaler sees one: counters, load, drain flag."""

    def __init__(self, name, load=0.0):
        self.name = name
        self.load = load
        self.draining = False
        self.metrics = ServerMetrics(1.0)

    def observe(self, completed, missed):
        self.metrics.counters["completed"].increment(completed)
        self.metrics.counters["deadline_miss"].increment(missed)


class TestAutoscaler:
    CFG = dict(min_replicas=1, max_replicas=4, check_interval_ms=10.0,
               up_miss=0.10, up_load=8.0, down_miss=0.02, down_load=1.0,
               cooldown_ms=50.0, down_checks=3)

    def make(self, **overrides):
        return Autoscaler(factory=lambda i: ScalerStub(f"r{i}"),
                          config=AutoscalerConfig(**{**self.CFG,
                                                     **overrides}))

    def test_config_rejects_inverted_hysteresis_band(self):
        with pytest.raises(ValueError, match="down band"):
            AutoscalerConfig(up_miss=0.05, down_miss=0.10)
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalerConfig(min_replicas=0)

    def test_scales_up_on_miss_pressure(self):
        scaler = self.make()
        fleet = [ScalerStub("r0")]
        fleet[0].observe(completed=20, missed=10)
        assert scaler.evaluate(10.0, fleet) == ("up", None)

    def test_cooldown_blocks_back_to_back_actions(self):
        scaler = self.make()
        fleet = [ScalerStub("r0")]
        fleet[0].observe(20, 10)
        assert scaler.evaluate(10.0, fleet) == ("up", None)
        fleet[0].observe(20, 10)          # still melting down, but...
        assert scaler.evaluate(20.0, fleet) is None   # ...inside cooldown
        fleet[0].observe(20, 10)
        assert scaler.evaluate(70.0, fleet) == ("up", None)

    def test_interval_gates_evaluations(self):
        scaler = self.make()
        fleet = [ScalerStub("r0")]
        fleet[0].observe(20, 10)
        assert scaler.evaluate(1.0, fleet) is None    # too soon to look

    def test_band_between_thresholds_never_flaps(self):
        # signals sitting inside the hysteresis band (above down, below
        # up) must produce no action no matter how long they persist
        scaler = self.make(cooldown_ms=0.0)
        fleet = [ScalerStub("r0", load=4.0), ScalerStub("r1", load=4.0)]
        for step in range(1, 20):
            fleet[0].observe(completed=20, missed=1)   # 5% miss: mid-band
            assert scaler.evaluate(10.0 * step, fleet) is None

    def test_scale_down_needs_consecutive_calm_checks(self):
        scaler = self.make(cooldown_ms=0.0)
        fleet = [ScalerStub("r0", load=0.5), ScalerStub("r1", load=0.0)]
        t = [0.0]

        def check(calm):
            t[0] += 10.0
            if calm:
                fleet[0].observe(completed=20, missed=0)
            else:
                fleet[0].observe(completed=20, missed=1)   # mid-band
            return scaler.evaluate(t[0], fleet)

        assert check(True) is None        # calm x1
        assert check(True) is None        # calm x2
        assert check(False) is None       # busy: streak resets
        assert check(True) is None
        assert check(True) is None
        decision = check(True)            # calm x3 in a row
        assert decision is not None and decision[0] == "down"
        # the least-loaded replica is the drain victim
        assert decision[1].name == "r1"

    def test_scale_down_respects_min_replicas(self):
        scaler = self.make(cooldown_ms=0.0, down_checks=1)
        fleet = [ScalerStub("r0", load=0.0)]
        for step in range(1, 6):
            fleet[0].observe(completed=20, missed=0)
            assert scaler.evaluate(10.0 * step, fleet) is None

    def test_scale_up_respects_max_replicas(self):
        scaler = self.make(cooldown_ms=0.0, max_replicas=2)
        fleet = [ScalerStub("r0"), ScalerStub("r1")]
        fleet[0].observe(20, 10)
        assert scaler.evaluate(10.0, fleet) is None

    def test_router_applies_scale_up_under_overload(self, base, spec,
                                                    feasible_rate):
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0,
                              queue_capacity=16)

        def factory(i):
            ladder = TRNLadder.from_base(base, spec, num_classes=5)
            return Replica(f"r{i}", ladder, config)

        scaler = Autoscaler(factory, AutoscalerConfig(
            max_replicas=3, check_interval_ms=1.0, cooldown_ms=2.0,
            up_load=4.0))
        trace = poisson_trace(400, 6.0 * feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 1, config)
        result = Router(replicas, make_policy("jsq"),
                        autoscaler=scaler).run(trace)

        snap = result.metrics.snapshot()
        assert snap["cluster"]["counters"]["scale_ups"] >= 1
        assert len(snap["cluster"]["replicas"]) > 1
        # the new capacity actually took traffic
        grown = [n for n in snap["cluster"]["per_replica_routed"]
                 if n != "r0"]
        assert grown and all(
            snap["cluster"]["per_replica_routed"][n] > 0 for n in grown)
        # conservation still holds with mid-run topology changes
        agg = result.metrics.aggregate().counters
        assert agg["completed"].value + agg["dropped"].value \
            == agg["admitted"].value


class TestClusterMetrics:
    def test_histogram_merge_requires_identical_binning(self):
        a = LatencyHistogram(lo_ms=0.01, hi_ms=10.0)
        b = LatencyHistogram(lo_ms=0.01, hi_ms=20.0)
        with pytest.raises(ValueError, match="different bins"):
            a.merge(b)

    def test_histogram_merge_is_bin_exact(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        both = LatencyHistogram()
        for i, v in enumerate((0.1, 0.5, 1.0, 2.0, 4.0, 8.0)):
            (a if i % 2 else b).observe(v)
            both.observe(v)
        a.merge(b)
        assert a.count == both.count
        for q in (0.5, 0.9, 0.99):
            assert a.quantile(q) == both.quantile(q)

    def test_snapshot_nests_cluster_aggregate_and_replicas(self, base, spec,
                                                           feasible_rate):
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0)
        trace = poisson_trace(60, feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 2, config)
        result = Router(replicas, make_policy("round-robin")).run(trace)

        snap = result.metrics.snapshot()
        assert set(snap) == {"cluster", "aggregate", "replicas"}
        assert set(snap["replicas"]) == {"r0", "r1"}
        total = sum(s["counters"]["completed"]
                    for s in snap["replicas"].values())
        assert snap["aggregate"]["counters"]["completed"] == total
        # snapshots are deep copies: mutating one cannot corrupt the live
        # metrics
        snap["cluster"]["counters"]["arrived"] = -1
        assert result.metrics.snapshot()["cluster"]["counters"]["arrived"] \
            == len(trace)

    def test_report_is_printable(self, base, spec, feasible_rate):
        config = ServerConfig(deadline_ms=2.0, execute=False, seed=0)
        trace = poisson_trace(40, feasible_rate, 2.0, rng=0)
        replicas = homogeneous_replicas(base, spec, 2, config)
        result = Router(replicas, make_policy("jsq")).run(trace)
        report = result.metrics.report()
        assert "cluster: 2 replicas" in report
        assert "r0" in report and "r1" in report


class TestCounterHelpers:
    def test_counter_increment_by_value(self):
        c = Counter("n")
        c.increment()
        c.increment(4)
        assert c.value == 5
