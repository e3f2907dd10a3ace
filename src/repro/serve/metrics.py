"""Serving metrics: a view over labeled telemetry families.

Every recording lands in exactly one place, a child of a labeled family
in a :class:`repro.obs.Telemetry`; every read-out of
:class:`ServerMetrics` queries those children.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.obs.telemetry import ChildSum, FamilyView, Telemetry

__all__ = ["ServerMetrics"]


@dataclass
class DegradationEvent:
    """One ladder transition, recorded for post-hoc analysis."""

    time_ms: float
    direction: str          # "degrade", "upgrade" or "rebuild"
    from_rung: str
    to_rung: str


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class ServerMetrics:
    """All counters and histograms of one serving run, as telemetry children.

    ``telemetry`` holds the families and is what the engine samples;
    without one they live in a private telemetry nothing samples, and
    snapshots are identical either way. ``labels`` adds fixed labels (e.g.
    ``{"replica": "r1"}``) to every series. Tenant-tagged requests also
    feed per-tenant children: *whose* deadline a busy server sacrifices.
    """

    #: (name, kind, help, labels before the extra labels) of every family
    FAMILIES = (
        ("serve_requests_total", "counter", "requests by life-cycle event",
         ("event",)),
        ("serve_engine_events_total", "counter",
         "engine-internal events (batches, retries, transitions)", ("event",)),
        ("serve_tenant_requests_total", "counter",
         "per-tenant requests by life-cycle event", ("tenant", "event")),
        ("serve_breaker_transitions_total", "counter",
         "circuit-breaker transitions by rung and new state",
         ("rung", "state")),
        ("serve_latency_ms", "histogram", "end-to-end response latency",
         ("rung",)),
        ("serve_queue_wait_ms", "histogram",
         "time between arrival and batch start", ()),
        ("serve_batch_size", "histogram", "formed micro-batch occupancy", ()),
        ("serve_batch_stops_total", "counter",
         "why micro-batch growth stopped", ("stop",)),
        ("kernel_latency_ms", "histogram", "per-fused-kernel wall-clock "
         "latency of compiled forwards", ("kernel", "rung")),
        ("netcut_reestimate_total", "counter",
         "drift-triggered online latency re-estimations", ()),
        ("ladder_rebuild_total", "counter", "ladder re-syntheses (serving "
         "rung re-selected) after online re-estimation", ()),
        ("netcut_estimate_scale", "gauge", "online latency calibration "
         "scale per rung (1.0 = deployment artifact's table)", ("rung",)),
        ("serve_queue_depth", "gauge", "EDF queue depth", ()),
        ("serve_rung_index", "gauge", "ladder cursor (0 = most accurate)", ()),
        ("serve_recent_p99_ms", "gauge", "p99 latency over the recent window",
         ()),
        ("serve_arrival_rate_rps", "gauge", "recent offered arrival rate", ()),
        ("serve_admission_share", "gauge",
         "tenant share of the recent admission window", ("tenant",)),
        ("serve_fair_share", "gauge",
         "tenant weighted-fair admission guarantee", ("tenant",)),
        ("serve_response_latency_ms", "histogram",
         "end-to-end response latency over every rung", ()),
        ("serve_service_ms", "histogram",
         "service time of each completed response's batch", ()),
        ("serve_tenant_latency_ms_total", "counter",
         "per-tenant summed response latency", ("tenant",)),
    )
    TENANT_COUNTERS = ("arrived", "admitted", "rejected", "completed",
                       "deadline_miss", "dropped")
    ENGINE_EVENTS = ("batch", "timeout", "retry", "fault", "degrade",
                     "upgrade")

    def __init__(self, deadline_ms: float, telemetry=None,
                 labels: dict | None = None):
        self.deadline_ms = deadline_ms
        self.telemetry = telemetry
        self._view = view = FamilyView(telemetry or Telemetry(),
                                       self.FAMILIES, labels)
        self.suffix = view.suffix
        # this run's child of a family at some label values, bound on first
        # use; the engine reaches its telemetry-only families through it
        self.child = child = view.child
        req = {e: child("serve_requests_total", e)
               for e in self.TENANT_COUNTERS}
        eng = {e: child("serve_engine_events_total", e)
               for e in self.ENGINE_EVENTS}
        self.queue_wait = child("serve_queue_wait_ms")
        self._batch_size = child("serve_batch_size")
        breakers = view.children["serve_breaker_transitions_total"]
        self.counters = {
            "arrived": req["arrived"], "admitted": req["admitted"],
            "rejected": req["rejected"], "completed": req["completed"],
            "deadline_miss": req["deadline_miss"], "batches": eng["batch"],
            "degrade_events": eng["degrade"], "upgrade_events": eng["upgrade"],
            "dropped": req["dropped"], "timeouts": eng["timeout"],
            "retries": eng["retry"],
            "breaker_opens": ChildSum(breakers, "open"),
            "breaker_closes": ChildSum(breakers, "closed"),
            "fault_events": eng["fault"],
            "reestimates": child("netcut_reestimate_total"),
            "ladder_rebuilds": child("ladder_rebuild_total")}
        self.latency = child("serve_response_latency_ms")
        self.service = child("serve_service_ms")
        self.events: list[DegradationEvent] = []
        # rung inventory (name/builder/estimate/accuracy per rung), set by
        # the engine from TRNLadder.snapshot() at construction time
        self.ladder: list[dict] = []

    def _tenant_event(self, tenant: str | None, event: str) -> None:
        if tenant is not None:
            self.child("serve_tenant_requests_total", tenant,
                       event).increment()

    # -- recording ----------------------------------------------------------
    def record_arrival(self, tenant: str | None = None) -> None:
        self.counters["arrived"].increment()
        self._tenant_event(tenant, "arrived")

    def record_rejection(self, tenant: str | None = None) -> None:
        self.counters["rejected"].increment()
        self._tenant_event(tenant, "rejected")

    def record_admission(self, tenant: str | None = None) -> None:
        self.counters["admitted"].increment()
        self._tenant_event(tenant, "admitted")

    def record_batch(self, size: int) -> None:
        self.counters["batches"].increment()
        self._batch_size.observe(size)

    def record_drop(self, tenant: str | None = None) -> None:
        """One admitted request dropped un-executed (drain or dead rungs)."""
        self.counters["dropped"].increment()
        self._tenant_event(tenant, "dropped")

    def record_breaker(self, to_state: str, rung: str = "") -> None:
        """One circuit-breaker transition (opens and closes counted)."""
        self.child("serve_breaker_transitions_total", rung,
                   to_state).increment()

    def record_response(self, response) -> None:
        """Record one COMPLETED response (rejections use record_rejection)."""
        self.counters["completed"].increment()
        missed = not response.deadline_met
        if missed:
            self.counters["deadline_miss"].increment()
        latency = response.latency_ms
        self.latency.observe(latency)
        self.child("serve_latency_ms", response.rung or "").observe(latency)
        self.queue_wait.observe(max(response.queue_ms, 0.0))
        self.service.observe(response.service_ms)
        tenant = response.tenant
        if tenant is not None:
            self._tenant_event(tenant, "completed")
            if missed:
                self._tenant_event(tenant, "deadline_miss")
            self.child("serve_tenant_latency_ms_total",
                       tenant).increment(latency)

    def record_transition(self, time_ms: float, direction: str,
                          from_rung: str, to_rung: str) -> None:
        """One ladder move: a degrade/upgrade, or a re-estimation rebuild."""
        key = {"degrade": "degrade_events", "upgrade": "upgrade_events",
               "rebuild": "ladder_rebuilds"}[direction]
        self.counters[key].increment()
        self.events.append(
            DegradationEvent(time_ms, direction, from_rung, to_rung))

    def merge(self, other: "ServerMetrics") -> None:
        """Fold another run's counters, histograms and transitions in.

        Labels match without the extra labels: merging replicas drops
        ``replica``, and adds histogram sums replica by replica.
        """
        self._view.fold(other._view)
        self.events.extend(other.events)

    # -- read-out -----------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        """Deadline misses as a fraction of completed requests."""
        return _rate(self.counters["deadline_miss"].value,
                     self.counters["completed"].value)

    @property
    def mean_batch_size(self) -> float:
        return self._batch_size.mean_ms

    @property
    def per_rung(self) -> dict[str, int]:
        """Completed responses per serving rung, in first-served order."""
        return {rung: hist.count for (rung,), hist
                in self._view.children["serve_latency_ms"].items() if rung}

    @property
    def tenants(self) -> dict[str, dict]:
        """Per-tenant counts and latency sum, in first-seen order."""
        out: dict[str, dict] = {}
        events = self._view.children["serve_tenant_requests_total"]
        for (tenant, event), counter in events.items():
            out.setdefault(tenant, dict.fromkeys(self.TENANT_COUNTERS, 0))[
                event] = counter.value
        sums = self._view.children["serve_tenant_latency_ms_total"]
        for tenant, bucket in out.items():
            total = sums.get((tenant,))
            bucket["latency_sum_ms"] = 0.0 if total is None else total.value
        return out

    def tenant_miss_rate(self, tenant: str) -> float:
        """Deadline misses of one tenant as a fraction of its completions."""
        bucket = self.tenants.get(tenant, {"deadline_miss": 0, "completed": 0})
        return _rate(bucket["deadline_miss"], bucket["completed"])

    def snapshot(self) -> dict:
        """The metrics surface as one JSON-able, deep-copied dict (no
        telemetry-only families, so traced and untraced runs compare equal)."""
        return copy.deepcopy({
            "deadline_ms": self.deadline_ms,
            "counters": {n: c.value for n, c in self.counters.items()},
            "miss_rate": self.miss_rate,
            "mean_batch_size": self.mean_batch_size,
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "service": self.service.snapshot(),
            "per_rung": self.per_rung,
            "ladder": list(self.ladder),
            "tenants": {name: dict(b, miss_rate=_rate(b["deadline_miss"],
                                                      b["completed"]))
                        for name, b in sorted(self.tenants.items())},
            "transitions": [(e.time_ms, e.direction, e.from_rung, e.to_rung)
                            for e in self.events],
        })

    def report(self) -> str:
        """Human-readable metrics block (what ``repro serve`` prints)."""
        snap = self.snapshot()
        c = snap["counters"]
        lat = snap["latency"]
        lines = [
            f"deadline {self.deadline_ms:.3f} ms",
            f"requests: {c['arrived']} arrived, {c['admitted']} admitted, "
            f"{c['rejected']} rejected, {c['completed']} completed",
            f"deadline misses: {c['deadline_miss']} "
            f"(miss rate {100 * snap['miss_rate']:.2f}%)",
            f"latency ms: p50 {lat['p50_ms']:.3f}  p95 {lat['p95_ms']:.3f}  "
            f"p99 {lat['p99_ms']:.3f}  max {lat['max_ms']:.3f}",
            f"batches: {c['batches']} "
            f"(mean occupancy {snap['mean_batch_size']:.2f})",
            f"ladder: {c['degrade_events']} degrade / "
            f"{c['upgrade_events']} upgrade events",
        ]
        if any(c[k] for k in ("dropped", "timeouts", "retries",
                              "breaker_opens", "fault_events")):
            lines.append(
                f"resilience: {c['dropped']} dropped, {c['timeouts']} "
                f"timeouts, {c['retries']} retries, breaker "
                f"{c['breaker_opens']} opens / {c['breaker_closes']} "
                f"closes, {c['fault_events']} fault events")
        if c["reestimates"]:
            lines.append(
                f"online netcut: {c['reestimates']} re-estimations, "
                f"{c['ladder_rebuilds']} ladder rebuilds")
        if snap["per_rung"]:
            served = ", ".join(f"{name}: {n}"
                               for name, n in snap["per_rung"].items())
            lines.append(f"served by: {served}")
        for name, b in snap["tenants"].items():
            mean = (b["latency_sum_ms"] / b["completed"]
                    if b["completed"] else float("nan"))
            lines.append(
                f"tenant {name}: {b['arrived']} arrived, "
                f"{b['admitted']} admitted, {b['rejected']} rejected, "
                f"{b['completed']} completed; miss rate "
                f"{100 * b['miss_rate']:.2f}%, mean latency {mean:.3f} ms")
        return "\n".join(lines)
