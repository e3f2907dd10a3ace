"""Cluster metrics: routing counters plus a per-replica roll-up.

The cluster layer records only what single-node metrics cannot know —
routing, requests no replica could take, autoscaler actions — as its own
children of labeled telemetry families. Everything latency-shaped stays
in each replica's :class:`repro.serve.ServerMetrics`; the roll-up folds
those replica by replica, dropping the ``replica`` label, and
:meth:`ClusterMetrics.snapshot` nests cluster, aggregate and replicas.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass

from repro.obs.telemetry import ChildSum, FamilyView, Telemetry
from repro.serve.metrics import ServerMetrics

__all__ = ["ScaleEvent", "ClusterMetrics"]


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, in virtual time."""

    time_ms: float
    action: str                 # "scale-up" or "scale-down"
    replica: str
    miss_rate: float
    mean_load: float


class ClusterMetrics:
    """Routing/scaling counters over the router's live replica list,
    stored like :class:`repro.serve.ServerMetrics` in ``telemetry``'s
    families (or a private telemetry's)."""

    FAMILIES = (
        ("cluster_requests_total", "counter",
         "cluster-level routing events", ("event",)),
        ("cluster_routed_total", "counter",
         "requests dispatched per replica", ("replica",)),
        ("cluster_scale_events_total", "counter", "autoscaler actions",
         ("action",)),
    )

    def __init__(self, replicas: list, telemetry=None):
        self.replicas = replicas
        self.telemetry = telemetry
        self._view = view = FamilyView(telemetry or Telemetry(),
                                       self.FAMILIES)
        scale = view.children["cluster_scale_events_total"]
        self.counters = {
            e: view.child("cluster_requests_total", e)
            for e in ("arrived", "routed", "no_replica")}
        self.counters["scale_ups"] = ChildSum(scale, "scale-up")
        self.counters["scale_downs"] = ChildSum(scale, "scale-down")
        self.scale_events: list[ScaleEvent] = []

    def record_routed(self, replica: str) -> None:
        self.counters["routed"].increment()
        self._view.child("cluster_routed_total", replica).increment()

    def record_scale(self, event: ScaleEvent) -> None:
        self._view.child("cluster_scale_events_total",
                         event.action).increment()
        self.scale_events.append(event)

    @property
    def per_replica(self) -> dict[str, int]:
        """Requests routed to each replica, in first-routed order."""
        return {name: c.value for (name,), c
                in self._view.children["cluster_routed_total"].items()}

    def merged_series(self, name: str) -> dict:
        """One fleet-wide series per label set, summed across replicas
        (see :meth:`repro.obs.telemetry.TimeSeriesStore.merged`)."""
        if self.telemetry is None:
            raise ValueError("cluster was run without telemetry")
        return self.telemetry.store.merged(name, drop_label="replica")

    def aggregate(self) -> ServerMetrics:
        """All replicas' serving metrics folded into one ServerMetrics;
        deadline and rung inventory follow the first replica (one
        deadline class, on one ladder, per run)."""
        deadline = (self.replicas[0].metrics.deadline_ms
                    if self.replicas else float("nan"))
        total = ServerMetrics(deadline)
        if self.replicas:
            total.ladder = self.replicas[0].metrics.ladder
        for replica in self.replicas:
            total.merge(replica.metrics)
        total.events.sort(key=lambda e: e.time_ms)
        return total

    def snapshot(self) -> dict:
        """Cluster counters, the aggregate, and the per-replica breakdown."""
        return copy.deepcopy({
            "cluster": {
                "counters": {n: c.value for n, c in self.counters.items()},
                "per_replica_routed": self.per_replica,
                "scale_events": [asdict(e) for e in self.scale_events],
                "replicas": [r.name for r in self.replicas],
            },
            "aggregate": self.aggregate().snapshot(),
            "replicas": {r.name: r.metrics.snapshot()
                         for r in self.replicas},
        })

    def report(self) -> str:
        """Human-readable cluster block: routing, roll-up, per-replica."""
        c = {n: counter.value for n, counter in self.counters.items()}
        lines = [
            f"cluster: {len(self.replicas)} replicas, {c['arrived']} "
            f"arrived, {c['routed']} routed, {c['no_replica']} unroutable",
        ]
        if c["scale_ups"] or c["scale_downs"]:
            lines.append(f"autoscaler: {c['scale_ups']} scale-ups / "
                         f"{c['scale_downs']} scale-downs")
            for e in self.scale_events:
                lines.append(f"  t={e.time_ms:9.2f} ms  {e.action:10s} "
                             f"{e.replica} (miss {100 * e.miss_rate:.1f}%, "
                             f"load {e.mean_load:.1f})")
        if self.per_replica:
            routed = ", ".join(f"{name}: {n}"
                               for name, n in self.per_replica.items())
            lines.append(f"routed to: {routed}")
        lines.append("-- aggregate --")
        lines.append(self.aggregate().report())
        for replica in self.replicas:
            lines.append(f"-- {replica.name} ({replica.spec.name}) --")
            lines.append(replica.metrics.report())
        return "\n".join(lines)
