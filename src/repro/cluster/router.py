"""The cluster router: deadline-aware dispatch over a replica fleet.

One global event loop over the shared virtual clock: arrivals are taken
in time order, and every replica that can start work before an arrival
(its clock is behind and it has load) is advanced to the arrival
instant, so queue depths, breaker states and fault windows are exactly
what a real dispatcher would observe at that moment; stepping an idle
replica, or one still mid-batch, would do nothing. Then the autoscaler
gets a chance to act, and the routing policy commits the request to one
replica — or to nothing, in which case the request is dropped at cluster
level with a ``no-replica`` reason instead of crashing the loop. After
the last arrival every replica drains to completion, so the conservation
law ``completed + dropped == admitted`` holds fleet-wide at shutdown.
"""

from __future__ import annotations

from repro.serve.request import REJECTED, Request, Response

from .autoscaler import Autoscaler
from .metrics import ClusterMetrics, ScaleEvent
from .policies import RoutingPolicy
from .replica import Replica

__all__ = ["Router", "ClusterResult"]


class ClusterResult:
    """Everything one cluster run produced."""

    def __init__(self, responses: list[Response], metrics: ClusterMetrics,
                 replicas: list[Replica]):
        self.responses = responses
        self.metrics = metrics
        self.replicas = replicas

    @property
    def completed(self) -> list[Response]:
        return [r for r in self.responses if r.status == "completed"]

    @property
    def rejected(self) -> list[Response]:
        """Refused before execution: replica admission or no-replica."""
        return [r for r in self.responses if r.status == "rejected"]

    @property
    def missed(self) -> list[Response]:
        """Completed responses that overran their deadline."""
        return [r for r in self.completed if not r.deadline_met]

    @property
    def miss_rate(self) -> float:
        """Deadline misses as a fraction of completed requests, fleet-wide."""
        done = self.completed
        return len(self.missed) / len(done) if done else 0.0


class Router:
    """Dispatch a request trace across replicas under one virtual clock.

    ``replicas`` is the starting fleet (heterogeneous is fine — each
    replica carries its own device spec and ladder); ``policy`` decides
    placement; ``autoscaler`` (optional) may grow or drain the fleet
    mid-run; ``tracer`` (optional, e.g. :class:`repro.obs.Tracer`)
    receives one ``route`` span per dispatched request plus cluster-level
    ``drop`` and ``scale`` spans — per-replica engine spans arrive
    through each replica's own tagged tracer.

    Like the engine it drives, a router is single-use: one
    :meth:`run` per instance.
    """

    def __init__(self, replicas: list[Replica], policy: RoutingPolicy,
                 autoscaler: Autoscaler | None = None, tracer=None,
                 telemetry=None):
        self.replicas = list(replicas)
        self.policy = policy
        self.autoscaler = autoscaler
        self.tracer = tracer
        self.telemetry = telemetry
        self.metrics = ClusterMetrics(self.replicas, telemetry=telemetry)
        self._spawned = len(self.replicas)
        if telemetry is not None:
            self._g_replicas = telemetry.gauge(
                "cluster_replicas", "fleet size").child(())
            self._g_healthy = telemetry.gauge(
                "cluster_healthy_replicas",
                "replicas accepting traffic").child(())
            self._g_miss = telemetry.gauge(
                "cluster_autoscaler_miss_rate",
                "fleet miss rate the autoscaler last saw").child(())
            self._g_load = telemetry.gauge(
                "cluster_autoscaler_mean_load",
                "mean per-replica load the autoscaler last saw").child(())
            telemetry.collector("cluster", self._collect_telemetry)

    def _collect_telemetry(self, now_ms: float) -> None:
        self._g_replicas.set(float(len(self.replicas)))
        # healthy() only *reads* breaker state (would_allow), so probing
        # the fleet at sample time cannot perturb the run
        self._g_healthy.set(float(len(self.routable(now_ms))))
        if self.autoscaler is not None:
            miss_rate, mean_load = self.autoscaler.last_signals
            self._g_miss.set(miss_rate)
            self._g_load.set(mean_load)

    def routable(self, now_ms: float) -> list[Replica]:
        """Replicas that may receive new traffic at ``now_ms``."""
        return [r for r in self.replicas if r.healthy(now_ms)]

    def _autoscale(self, now_ms: float) -> None:
        if self.autoscaler is None:
            return
        decision = self.autoscaler.evaluate(now_ms, self.replicas)
        if decision is None:
            return
        action, victim = decision
        miss_rate, mean_load = self.autoscaler.last_signals
        if action == "up":
            replica = self.autoscaler.factory(self._spawned)
            self._spawned += 1
            # the new shard joins *now*: its clock starts at the current
            # virtual time, not at zero, so it cannot serve the past
            replica.clock_ms = now_ms
            self.replicas.append(replica)
            event = ScaleEvent(now_ms, "scale-up", replica.name,
                               miss_rate, mean_load)
        else:
            victim.draining = True
            event = ScaleEvent(now_ms, "scale-down", victim.name,
                               miss_rate, mean_load)
        self.metrics.record_scale(event)
        if self.tracer is not None:
            self.tracer.instant("scale", "cluster", now_ms,
                                action=event.action, replica=event.replica)

    def run(self, trace: list[Request]) -> ClusterResult:
        """Dispatch a whole trace and drain the fleet; trace-order result.

        The router owns the run's sampling clock: it restarts the
        telemetry's gate, and after every replica has drained it takes
        the one closing sample at the fleet's final clock (the last
        arrival or the latest replica clock, whichever is later).
        """
        cluster_rejects: dict[int, Response] = {}
        now = 0.0
        if self.telemetry is not None:
            self.telemetry.start_run()
        for req in sorted(trace, key=lambda r: (r.arrival_ms, r.rid)):
            now = req.arrival_ms
            for replica in self.replicas:
                # routed requests never arrive after `now`: an idle
                # replica, or one at or past `now`, would do nothing
                if replica.clock_ms < now and replica.load:
                    replica.advance(now)
            self._autoscale(now)
            if self.telemetry is not None:
                self.telemetry.maybe_sample(now)
            self.metrics.counters["arrived"].increment()
            target = self.policy.choose(self.routable(now), req, now)
            if target is None:
                # drop-not-crash: nothing can take the request
                cluster_rejects[req.rid] = Response(
                    req.rid, REJECTED, req.arrival_ms, req.abs_deadline_ms,
                    reject_reason="no-replica", tenant=req.tenant)
                self.metrics.counters["no_replica"].increment()
                if self.tracer is not None:
                    self.tracer.instant("drop", "cluster", now, rid=req.rid,
                                        reason="no-replica")
            else:
                target.submit(req)
                self.metrics.record_routed(target.name)
                if self.tracer is not None:
                    self.tracer.instant("route", "cluster", now, rid=req.rid,
                                        replica=target.name,
                                        policy=self.policy.name)
        for replica in self.replicas:
            replica.finish()
        if self.telemetry is not None:
            self.telemetry.sample(
                max([now] + [r.clock_ms for r in self.replicas]))
        responses: dict[int, Response] = dict(cluster_rejects)
        for replica in self.replicas:
            responses.update(replica.responses)
        ordered = [responses[r.rid] for r in trace if r.rid in responses]
        return ClusterResult(ordered, self.metrics, self.replicas)
