"""Golden digests of the metrics surfaces: snapshots and reports, bytewise.

Three seeded scenarios cover every recording path of
:class:`repro.serve.ServerMetrics` and :class:`repro.cluster.ClusterMetrics`:
a tenant-tagged single server, a three-replica deadline-aware p2c fleet with
telemetry attached, and a single server under a chaos scenario with
resilience and online re-estimation. Each scenario is reduced to one SHA-256
over its ``snapshot()`` (``json.dumps(..., sort_keys=True)``) and its
``report()``; the telemetered fleet also digests the OpenMetrics exposition
and the sampled series of the families listed in ``FLEET_FAMILIES``.

The chaos scenario runs twice, once per re-estimation method. The ``"svr"``
run refits :class:`repro.estimators.SVR` inside the serving loop, so its
digest also covers the re-estimation controller's snapshot: every fitted
scale at full precision. A change to the solver's floating-point operations
shows up there.

The digests were recorded from the implementation that kept plain counters
beside the telemetry families. A refactor of the metrics store must leave
every one of them unchanged: histogram sums depend on summation order, so a
change in how latencies are accumulated or merged shows up here even when
every count agrees. The one exception is the fleet's stored series,
re-recorded when the fleet stopped re-sampling on replica clocks behind its
last sample: 42 samples, every series rewinding in time, became 21 monotone
ones with the same last values, while the fleet snapshot and the OpenMetrics
half of ``fleet_telemetry`` stayed byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from conftest import make_tiny_net
from repro.cluster import Router, homogeneous_replicas, make_policy
from repro.faults import build_scenario
from repro.obs import Telemetry, to_openmetrics
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import (
    ConstantRate,
    TenantClass,
    TenantMix,
    WeightedFairAdmission,
    generate_trace,
)

#: every telemetry family the fleet scenario produced when the digests
#: were recorded; families added later are left out of the digest
FLEET_FAMILIES = (
    "cluster_autoscaler_mean_load",
    "cluster_autoscaler_miss_rate",
    "cluster_healthy_replicas",
    "cluster_replicas",
    "cluster_requests_total",
    "cluster_routed_total",
    "cluster_scale_events_total",
    "kernel_latency_ms",
    "ladder_rebuild_total",
    "netcut_estimate_scale",
    "netcut_reestimate_total",
    "serve_admission_share",
    "serve_arrival_rate_rps",
    "serve_batch_size",
    "serve_batch_stops_total",
    "serve_breaker_transitions_total",
    "serve_engine_events_total",
    "serve_fair_share",
    "serve_latency_ms",
    "serve_queue_depth",
    "serve_queue_wait_ms",
    "serve_recent_p99_ms",
    "serve_requests_total",
    "serve_rung_index",
    "serve_tenant_requests_total",
)

GOLDEN = {
    "tenant_server":
        "531946df3cb004332dcf449f7c109f9e9e59fbd34879f813e8fb21130076d2c7",
    "fleet":
        "ccdf5b49da5a93a0632decd1946c3498ddc5e0157ffc9fb84fd74323b47fb0e7",
    "fleet_telemetry":
        "2e25814b91a33450b947162e2410b81f14395daa6b213d3f10708233faba8d73",
    "chaos_online":
        "04ada1de122eba75376776ca4b1100583bad86193153fb30bf3cbdd76992326a",
    "chaos_online_svr":
        "87404a1b6bd3fba9949c3e12cd8a204c5d7f8808be7c8058707da1c2c96ef3a9",
}


def tenant_mix(deadline_ms: float) -> TenantMix:
    return TenantMix([
        TenantClass("interactive", deadline_ms=deadline_ms, weight=3.0,
                    share=0.3, priority=1),
        TenantClass("batch", deadline_ms=4 * deadline_ms, weight=1.0,
                    share=0.7),
    ])


def sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def surface(metrics) -> tuple[str, str]:
    return json.dumps(metrics.snapshot(), sort_keys=True), metrics.report()


def tenant_server(device) -> str:
    ladder = TRNLadder.from_base(make_tiny_net(), device, num_classes=5)
    deadline = round(1.5 * ladder.rungs[0].estimate_ms(1), 4)
    mix = tenant_mix(deadline)
    trace = generate_trace(ConstantRate(25000), 60.0, tenants=mix, rng=0)
    config = ServerConfig(deadline_ms=deadline, execute=False, seed=0,
                          queue_capacity=16,
                          admission_policy=WeightedFairAdmission(
                              mix, watermark=0.25))
    return sha(*surface(Server(ladder, config).run_trace(trace).metrics))


def fleet(device) -> tuple[str, str]:
    mix = tenant_mix(0.1)
    telemetry = Telemetry(sample_interval_ms=1.0)
    config = ServerConfig(deadline_ms=0.1, execute=False, seed=0)
    replicas = homogeneous_replicas(make_tiny_net(), device, 3, config,
                                    num_classes=5, telemetry=telemetry)
    trace = generate_trace(ConstantRate(50000), 20.0, tenants=mix, rng=1)
    result = Router(replicas, make_policy("p2c-deadline", 0),
                    telemetry=telemetry).run(trace)
    pinned = Telemetry()
    pinned.families = {name: telemetry.families[name]
                       for name in FLEET_FAMILIES}
    series = {f"{name}{suffix}" for name in FLEET_FAMILIES
              for suffix in ("", "_count", "_mean", "_p99")}
    stored = {name: points for name, points
              in telemetry.store.snapshot().items() if name in series}
    return (sha(*surface(result.metrics)),
            sha(to_openmetrics(pinned), json.dumps(stored, sort_keys=True)))


def chaos_online(device, method: str = "ratio") -> tuple:
    ladder = TRNLadder.from_base(make_tiny_net(blocks=4), device,
                                 num_classes=5)
    full = ladder.rungs[0].estimate_ms(1)
    deadline = round(2.5 * full, 4)
    mix = tenant_mix(deadline)
    trace = generate_trace(ConstantRate(0.7e3 / full), 1000 * full,
                           tenants=mix, rng=2)
    scenario = build_scenario("mixed", trace[-1].arrival_ms, seed=0,
                              rungs=(ladder.rungs[0].name,))
    config = ServerConfig(
        deadline_ms=deadline, execute=False, seed=0,
        admission_policy=WeightedFairAdmission(mix, watermark=0.25),
        resilience=True, online_reestimation=True,
        reestimate_cooldown_ms=2.0 * full, reestimate_min_samples=6,
        reestimate_max_samples=12, reestimate_method=method)
    server = Server(ladder, config, faults=scenario.injector())
    metrics = server.run_trace(trace).metrics
    return surface(metrics), server.engine.reestimator


def test_tenant_server_surface_is_pinned(tiny_device):
    assert tenant_server(tiny_device) == GOLDEN["tenant_server"]


def test_fleet_surface_and_telemetry_are_pinned(tiny_device):
    metrics, telemetry = fleet(tiny_device)
    assert metrics == GOLDEN["fleet"]
    assert telemetry == GOLDEN["fleet_telemetry"]


def test_chaos_online_surface_is_pinned(tiny_device):
    parts, _ = chaos_online(tiny_device)
    assert sha(*parts) == GOLDEN["chaos_online"]


def test_chaos_online_svr_fits_are_pinned(tiny_device):
    parts, controller = chaos_online(tiny_device, "svr")
    # at least one applied fit took the SVR branch (it needs >= 4 samples;
    # every applied fit consumed at least reestimate_min_samples of them)
    assert any(f.method == "svr" and f.samples >= 4
               for f in controller.fits)
    fits = json.dumps(controller.snapshot(), sort_keys=True)
    assert sha(*parts, fits) == GOLDEN["chaos_online_svr"]
