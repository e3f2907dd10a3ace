"""Tests for the observability stack (repro.obs).

Covers request tracing through a served trace (JSONL determinism,
Chrome-trace schema, span accounting), the estimator-drift monitor, the
labeled telemetry families and their exposition, alerting, the run store,
and the histogram/snapshot regressions in repro.serve.metrics.
"""

import gc
import json
import math
import os
import subprocess
import sys
import weakref
from bisect import bisect_right
from dataclasses import asdict
from itertools import accumulate

import numpy as np
import pytest

from conftest import make_tiny_net
from repro.obs import (
    DriftMonitor,
    LatencyHistogram,
    Span,
    TraceBuffer,
    Tracer,
    chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.serve import (
    Server,
    ServerConfig,
    ServerMetrics,
    TRNLadder,
    poisson_trace,
)


@pytest.fixture(scope="module")
def device():
    from repro.device.spec import DeviceSpec

    return DeviceSpec(
        name="test-device", peak_gflops=10.0, bandwidth_gbps=1.0,
        launch_overhead_us=5.0, occupancy_flops=1e4, noise_std=0.005,
        straggler_prob=0.0, event_overhead_us=2.0)


@pytest.fixture(scope="module")
def ladder(device):
    return TRNLadder.from_base(make_tiny_net(), device, num_classes=5)


def left_alive(run) -> list[str]:
    """What ``run`` built that outlives it with the cyclic collector off.

    ``run`` returns ``{name: weakref}`` for the objects it built and
    dropped; with ``gc`` disabled only reference counting can free them,
    so any name returned is held by a reference cycle (or a leak).
    """
    gc.collect()
    gc.disable()
    try:
        refs = run()
        return sorted(name for name, ref in refs.items()
                      if ref() is not None)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# tracing primitives
# ---------------------------------------------------------------------------
class TestTracer:
    def test_buffer_bounded_with_dropped_count(self):
        buf = TraceBuffer(capacity=3)
        for i in range(5):
            buf.append(Span("e", "t", float(i)))
        assert len(buf) == 3
        assert buf.dropped == 2
        assert [s.ts_ms for s in buf] == [2.0, 3.0, 4.0]

    def test_buffer_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_counts_survive_eviction(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.instant("enqueue", "queue", float(i))
        assert tracer.count("enqueue") == 5
        assert len(tracer.spans("enqueue")) == 2
        snap = tracer.snapshot()
        assert snap == {"buffered": 2, "dropped": 3,
                        "by_name": {"enqueue": 5}}

    def test_clear_resets_everything(self):
        tracer = Tracer()
        tracer.span("forward", "serve", 1.0, 0.5, rid=0)
        tracer.clear()
        assert tracer.spans() == [] and tracer.count("forward") == 0

    def test_jsonl_round_trips(self):
        tracer = Tracer()
        tracer.instant("admit", "serve", 1.5, rid=3)
        tracer.span("forward", "serve", 1.5, 0.25, size=2)
        lines = to_jsonl(tracer).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"name": "admit", "cat": "serve", "ts_ms": 1.5,
                         "dur_ms": 0.0, "rid": 3}
        assert json.loads(lines[1])["args"] == {"size": 2}


class TestChromeTrace:
    def test_schema_validates(self):
        tracer = Tracer()
        tracer.instant("enqueue", "queue", 0.5, rid=0)
        tracer.span("forward", "serve", 1.0, 0.3, rung="r0")
        doc = chrome_trace(tracer)
        json.dumps(doc)                       # serializable
        events = doc["traceEvents"]
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["dur"] == pytest.approx(300.0)   # 0.3 ms in µs
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["ts"] == pytest.approx(500.0)

    def test_categories_become_thread_tracks(self):
        tracer = Tracer()
        tracer.instant("enqueue", "queue", 0.0)
        tracer.instant("respond", "serve", 1.0)
        doc = chrome_trace(tracer)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert names == {"queue", "serve"}


# ---------------------------------------------------------------------------
# tracing + drift through a served trace
# ---------------------------------------------------------------------------
class TestTracedServing:
    def _run(self, ladder, seed=0, requests=150, capacity=65536):
        rate = 1.3e3 / ladder.rungs[0].estimate_ms(1)
        deadline = 1.2 * ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(requests, rate, deadline, rng=seed)
        tracer = Tracer(capacity=capacity)
        drift = DriftMonitor()
        server = Server(ladder, ServerConfig(deadline_ms=deadline,
                                             execute=False, seed=seed),
                        tracer=tracer, drift=drift)
        result = server.run_trace(trace)
        return result, tracer, drift

    def test_span_accounting_matches_metrics(self, ladder):
        result, tracer, _ = self._run(ladder)
        c = result.metrics.counters
        assert tracer.count("enqueue") == c["admitted"].value
        assert tracer.count("admit") == c["admitted"].value
        assert tracer.count("respond") == c["admitted"].value \
            == c["completed"].value
        assert tracer.count("drop") == c["rejected"].value
        assert tracer.count("batch") == tracer.count("forward") \
            == c["batches"].value
        transitions = c["degrade_events"].value + c["upgrade_events"].value
        assert tracer.count("degrade") + tracer.count("upgrade") \
            == transitions

    def test_drops_are_traced_with_reason(self, ladder):
        # rate far above capacity: admission control must reject some
        full = ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(150, 40e3 / full, 0.9 * full, rng=0)
        tracer = Tracer()
        server = Server(ladder, ServerConfig(deadline_ms=0.9 * full,
                                             execute=False, seed=0),
                        tracer=tracer)
        result = server.run_trace(trace)
        rejected = result.metrics.counters["rejected"].value
        assert rejected > 0
        drops = tracer.spans("drop")
        assert len(drops) == rejected
        assert all(s.args["reason"] in ("unmeetable-deadline", "queue-full")
                   for s in drops)

    def test_same_seed_runs_export_identical_jsonl(self, ladder, tmp_path):
        _, t1, _ = self._run(ladder, seed=3)
        _, t2, _ = self._run(ladder, seed=3)
        assert to_jsonl(t1) == to_jsonl(t2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert write_jsonl(t1, p1) == write_jsonl(t2, p2) > 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_chrome_export_of_served_trace(self, ladder, tmp_path):
        _, tracer, _ = self._run(ladder)
        path = tmp_path / "serve.trace.json"
        n = write_chrome_trace(tracer, path)
        assert n == len(tracer.spans())
        doc = json.loads(path.read_text())
        # one event per span + process metadata + one per category track
        cats = {s.cat for s in tracer.spans()}
        assert len(doc["traceEvents"]) == n + 1 + len(cats)

    def test_unbiased_estimator_stays_silent(self, ladder):
        _, _, drift = self._run(ladder)
        assert drift.observations > 0
        assert not drift.drifting
        assert len(drift.events) == 0


# ---------------------------------------------------------------------------
# drift monitor
# ---------------------------------------------------------------------------
class TestDriftMonitor:
    def test_fires_on_biased_estimator(self):
        mon = DriftMonitor(threshold=0.25, window=16, min_observations=8)
        rng = np.random.default_rng(0)
        event = None
        for i in range(20):
            obs = 1.5 * (1 + rng.normal(0, 0.01))   # 50% under-estimate
            event = event or mon.observe(1.0, obs, time_ms=float(i),
                                         rung="r0")
        assert event is not None
        assert event.rel_error > 0.25
        assert event.bias == pytest.approx(0.5, abs=0.05)
        assert event.rung == "r0"
        assert mon.drifting

    def test_silent_on_unbiased_noise(self):
        mon = DriftMonitor(threshold=0.25, window=16, min_observations=8)
        rng = np.random.default_rng(0)
        for i in range(200):
            assert mon.observe(1.0, 1.0 + rng.normal(0, 0.02)) is None
        assert not mon.drifting
        assert mon.rolling_error < 0.05

    def test_cooldown_spaces_events(self):
        mon = DriftMonitor(threshold=0.1, window=8, min_observations=4,
                           cooldown=8)
        for i in range(32):
            mon.observe(1.0, 2.0, time_ms=float(i))
        assert len(mon.events) == 4     # every `cooldown` observations

    def test_needs_min_observations(self):
        mon = DriftMonitor(threshold=0.1, window=32, min_observations=16)
        for _ in range(15):
            assert mon.observe(1.0, 3.0) is None
        assert mon.observe(1.0, 3.0) is not None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DriftMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(window=0)
        with pytest.raises(ValueError):
            DriftMonitor(events_capacity=0)

    def test_degenerate_observations_skip_and_count(self):
        """A zero/NaN estimate must not crash the serving hot path."""
        mon = DriftMonitor(threshold=0.1, window=8, min_observations=2)
        for bad in [(0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0),
                    (float("inf"), 1.0), (1.0, float("nan")),
                    (1.0, float("inf"))]:
            assert mon.observe(*bad) is None
        assert mon.observations == 0           # nothing entered the window
        assert mon.skipped == 6
        assert mon.snapshot()["skipped"] == 6
        # good observations still work after the degenerate ones
        for i in range(4):
            mon.observe(1.0, 2.0, time_ms=float(i))
        assert mon.drifting
        assert mon.observations == 4

    def test_events_are_bounded(self):
        """A sustained miscalibration cannot grow events without bound."""
        mon = DriftMonitor(threshold=0.1, window=4, min_observations=2,
                           cooldown=2, events_capacity=5)
        for i in range(100):
            mon.observe(1.0, 2.0, time_ms=float(i))
        assert len(mon.events) == 5            # capped by events_capacity
        assert mon.events_total == 50          # first at obs 2, then every 2
        assert mon.snapshot()["events_total"] == 50
        assert len(mon.snapshot()["events"]) == 5
        # the retained events are the most recent ones
        assert mon.events[-1].time_ms == 99.0

    def test_cooldown_at_window_boundary(self):
        """cooldown == window: each event rides a fully fresh window."""
        mon = DriftMonitor(threshold=0.1, window=8, min_observations=8,
                           cooldown=8)
        events = [i for i in range(64)
                  if mon.observe(1.0, 2.0, time_ms=float(i)) is not None]
        # first event exactly when the window fills, then every window
        assert events == [7, 15, 23, 31, 39, 47, 55, 63]
        assert all(e.window == 8 for e in mon.events)

    def test_nan_readout_before_min_observations(self):
        """Empty-window read-outs are NaN, not zero (zero would read as
        'perfectly calibrated' to a dashboard)."""
        mon = DriftMonitor(threshold=0.1, window=8, min_observations=4)
        assert math.isnan(mon.rolling_error)
        assert math.isnan(mon.bias)
        assert not mon.drifting                 # NaN never alarms
        snap = mon.snapshot()
        assert math.isnan(snap["rolling_error"]) and math.isnan(snap["bias"])
        # one observation in: read-outs become finite, still below min_obs
        mon.observe(1.0, 2.0)
        assert mon.rolling_error == 1.0
        assert not mon.drifting                 # gated by min_observations

    def test_virtual_clock_rewind(self):
        """The monitor is observation-counted, not clock-driven: a rewound
        time_ms (fresh engine, new trace at t=0) must not wedge it."""
        mon = DriftMonitor(threshold=0.1, window=4, min_observations=2,
                           cooldown=4)
        for i in range(8):
            mon.observe(1.0, 2.0, time_ms=float(100 + i))
        before = mon.events_total
        assert before > 0
        # clock rewinds to zero: events keep firing on observation counts
        # and record the caller's (rewound) times verbatim
        for i in range(8):
            mon.observe(1.0, 2.0, time_ms=float(i))
        assert mon.events_total > before
        assert mon.events[-1].time_ms < 100.0

    def test_reset_window_clears_evidence_not_history(self):
        mon = DriftMonitor(threshold=0.1, window=4, min_observations=2)
        for i in range(4):
            mon.observe(1.0, 2.0, time_ms=float(i))
        assert mon.events_total == 1 and mon.drifting
        mon.reset_window()
        assert math.isnan(mon.rolling_error) and not mon.drifting
        assert mon.events_total == 1            # the event log survives
        assert mon.observations == 4            # lifetime count survives
        # the next event needs min_observations of fresh evidence
        assert mon.observe(1.0, 2.0) is None
        assert mon.observe(1.0, 2.0) is not None

    def test_snapshot_and_report(self):
        mon = DriftMonitor(threshold=0.1, window=4, min_observations=2)
        for i in range(4):
            mon.observe(1.0, 2.0, time_ms=float(i), rung="cut3")
        snap = mon.snapshot()
        assert snap["drifting"] and snap["events"]
        assert "DRIFTING" in mon.report() and "cut3" in mon.report()


# ---------------------------------------------------------------------------
# satellite regressions in repro.serve.metrics
# ---------------------------------------------------------------------------
class TestHistogramClamps:
    def test_all_samples_below_lo_clamp_to_observed_range(self):
        h = LatencyHistogram(lo_ms=1.0, hi_ms=100.0)
        for ms in (1e-4, 2e-4, 5e-4):
            h.observe(ms)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) <= h.lo_ms
            assert h.quantile(q) == pytest.approx(h.max_ms)

    def test_overflow_clamps_to_observed_max(self):
        h = LatencyHistogram(lo_ms=1e-3, hi_ms=1.0)
        h.observe(0.5)
        h.observe(123.0)
        assert h.quantile(1.0) == 123.0
        assert h.quantile(0.99) <= 123.0

    def test_interior_quantiles_unchanged(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(0)
        samples = rng.lognormal(0.0, 0.5, size=2000)
        for ms in samples:
            h.observe(float(ms))
        assert h.quantile(0.5) == pytest.approx(
            float(np.quantile(samples, 0.5)), rel=0.15)


class TestHistogramQuantile:
    @staticmethod
    def cumulative_bisection(h, q):
        """The reference: bisect the rank into the cumulative counts."""
        if h.count == 0:
            return float("nan")
        i = bisect_right(list(accumulate(h.counts)), q * (h.count - 1))
        if i == 0:
            return min(h.lo_ms, h.max_ms)
        if i > h.n_bins:
            return h.max_ms
        lo = h.lo_ms * h._ratio ** (i - 1)
        return min(max(lo * math.sqrt(h._ratio), h.min_ms), h.max_ms)

    @staticmethod
    def random_histogram(rng):
        n = int(rng.choice([0, 1, 2, 7, 60, 400]))
        samples = 10.0 ** rng.uniform(-3.0, 4.0, size=n)
        kind = rng.random(n)
        samples[kind < 0.1] = rng.uniform(0.0, 1e-3)        # underflow
        samples[(kind >= 0.1) & (kind < 0.2)] = rng.uniform(1e4, 1e6)
        samples[kind > 0.97] = 0.0
        h = LatencyHistogram()
        for ms in samples.tolist():
            h.observe(ms)
        return h

    def test_quantile_equals_the_cumulative_bisection(self):
        rng = np.random.default_rng(0)
        for _ in range(600):
            h = self.random_histogram(rng)
            if rng.random() < 0.4:
                h.merge(self.random_histogram(rng))
            for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
                got, want = h.quantile(q), self.cumulative_bisection(h, q)
                assert got == want or (math.isnan(got) and math.isnan(want))


class TestSnapshotIsolation:
    def test_mutating_snapshot_leaves_live_metrics_intact(self):
        m = ServerMetrics(deadline_ms=1.0)
        m.record_arrival()
        m.record_transition(1.0, "degrade", "a", "b")
        snap = m.snapshot()
        snap["counters"]["arrived"] = 999
        snap["per_rung"]["ghost"] = 1
        snap["transitions"].clear()
        snap["latency"]["p50_ms"] = -1.0
        fresh = m.snapshot()
        assert fresh["counters"]["arrived"] == 1
        assert fresh["per_rung"] == {}
        assert len(fresh["transitions"]) == 1
        assert m.counters["arrived"].value == 1


# ---------------------------------------------------------------------------
# labeled telemetry: families, the time-series store, sampling
# ---------------------------------------------------------------------------

class TestMetricFamilies:
    def test_labeled_children_are_created_on_first_use(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        fam = tele.counter("requests", "demo", ("tenant",))
        fam.labels(tenant="a").increment()
        fam.labels(tenant="a").increment(2)
        fam.labels(tenant="b").increment()
        values = {dict(k)["tenant"]: c.value for k, c in fam.children()}
        assert values == {"a": 3, "b": 1}
        # positional access resolves to the same child
        assert fam.child(("a",)).value == 3

    def test_label_schema_is_enforced(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        fam = tele.gauge("depth", "demo", ("rung",))
        with pytest.raises(ValueError, match="expects labels"):
            fam.labels(tenant="a")
        with pytest.raises(ValueError, match="label"):
            fam.child(())

    def test_family_registration_is_idempotent_but_schema_checked(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        fam = tele.counter("events", "demo", ("kind",))
        assert tele.counter("events", "demo", ("kind",)) is fam
        with pytest.raises(ValueError, match="already registered"):
            tele.gauge("events", "demo", ("kind",))
        with pytest.raises(ValueError, match="already registered"):
            tele.counter("events", "demo", ("other",))


    def test_get_or_create_is_idempotent(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        tele.counter("a").child(()).increment(2)
        tele.counter("a").child(()).increment()
        tele.gauge("g").child(()).set(4.5)
        tele.histogram("h").child(()).observe(1.0)
        families = tele.snapshot()["families"]
        assert families["a"]["children"] == [{"labels": {}, "value": 3}]
        assert families["g"]["children"][0]["value"] == 4.5
        assert families["h"]["children"][0]["value"]["count"] == 1


class TestTimeSeriesStore:
    def test_ring_buffer_bounds_each_series(self):
        from repro.obs import TimeSeriesStore

        store = TimeSeriesStore(capacity=4)
        for t in range(10):
            store.record("m", None, float(t), float(t))
        pts = store.series("m")
        assert len(pts) == 4
        assert pts[0] == (6.0, 6.0)
        assert store.latest("m") == 9.0

    def test_delta_baselines_young_series_at_zero(self):
        from repro.obs import TimeSeriesStore

        store = TimeSeriesStore()
        store.record("c", None, 5.0, 7.0)
        # only 5 ms of history inside a 100 ms window: counters start at 0
        assert store.delta("c", None, 100.0, 10.0) == 7.0
        store.record("c", None, 50.0, 12.0)
        assert store.delta("c", None, 20.0, 60.0) == 5.0
        # no point inside the window: no evidence, not zero
        assert store.delta("c", None, 2.0, 200.0) is None

    def test_window_mean_skips_nan_points(self):
        from repro.obs import TimeSeriesStore

        store = TimeSeriesStore()
        store.record("g", None, 1.0, float("nan"))
        store.record("g", None, 2.0, 4.0)
        store.record("g", None, 3.0, 8.0)
        assert store.window_mean("g", None, 10.0, 3.0) == 6.0
        assert store.window_mean("g", None, 0.5, 1.0) is None

    def test_merged_sums_across_a_label_with_carry_forward(self):
        from repro.obs import TimeSeriesStore

        store = TimeSeriesStore()
        # r0 samples at t=1,3; r1 samples at t=2 only: at t=3 r1's last
        # known value must still contribute
        store.record("c", {"replica": "r0", "event": "done"}, 1.0, 1.0)
        store.record("c", {"replica": "r1", "event": "done"}, 2.0, 10.0)
        store.record("c", {"replica": "r0", "event": "done"}, 3.0, 2.0)
        merged = store.merged("c", drop_label="replica")
        pts = merged[(("event", "done"),)]
        assert pts == [(1.0, 1.0), (2.0, 11.0), (3.0, 12.0)]


class TestTelemetrySampling:
    def test_maybe_sample_gates_on_the_interval(self):
        from repro.obs import Telemetry

        tele = Telemetry(sample_interval_ms=5.0)
        tele.gauge("g").child(()).set(1.0)
        assert tele.maybe_sample(0.0)
        assert not tele.maybe_sample(4.9)
        assert tele.maybe_sample(5.0)
        assert tele.samples_taken == 2
        # a clock behind the last sample (a replica sampling ahead of the
        # router) is "not yet", never a new run
        assert not tele.maybe_sample(0.0)
        assert not tele.maybe_sample(9.9)
        # a restarted run samples on its first call, wherever its clock is
        tele.start_run()
        assert tele.maybe_sample(0.0)
        assert tele.samples_taken == 3

    def test_collectors_run_before_each_sample_and_are_keyed(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        g = tele.gauge("depth").child(())
        calls = []
        tele.collector("engine", lambda now: (calls.append(now),
                                              g.set(now * 2)))
        tele.sample(3.0)
        assert calls == [3.0]
        assert tele.store.latest("depth") == 6.0
        # re-registering under the same key replaces the stale closure
        tele.collector("engine", lambda now: g.set(-1.0))
        tele.sample(4.0)
        assert calls == [3.0]
        assert tele.store.latest("depth") == -1.0

    def test_a_method_collector_does_not_keep_its_owner_alive(self):
        from repro.obs import Telemetry

        class Owner:
            def __init__(self, gauge):
                self.gauge = gauge

            def collect(self, now_ms):
                self.gauge.set(now_ms)

        tele = Telemetry()
        owner = Owner(tele.gauge("g").child(()))
        tele.collector("owner", owner.collect)
        tele.sample(1.0)
        assert tele.store.latest("g") == 1.0
        ref = weakref.ref(owner)
        del owner
        assert ref() is None
        # a freed owner's collector is dropped, not called
        tele.sample(2.0)
        assert tele.store.latest("g") == 1.0

    def test_histograms_sample_as_count_mean_p99(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        h = tele.histogram("lat_ms", "demo").child(())
        for ms in (1.0, 2.0, 3.0):
            h.observe(ms)
        tele.sample(1.0)
        assert tele.store.latest("lat_ms_count") == 3
        assert tele.store.latest("lat_ms_mean") == pytest.approx(2.0)
        assert tele.store.latest("lat_ms_p99") >= 2.0


# ---------------------------------------------------------------------------
# exposition: OpenMetrics text + JSON
# ---------------------------------------------------------------------------

class TestExposition:
    def make_surface(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        c = tele.counter("requests_total", "served requests", ("tenant",))
        c.labels(tenant="a").increment(3)
        c.labels(tenant="b").increment(1)
        tele.gauge("queue_depth", "queue fill").child(()).set(4.0)
        h = tele.histogram("latency_ms", "per-request latency")
        for ms in (0.5, 1.0, 2.0):
            h.child(()).observe(ms)
        tele.sample(1.0)
        return tele

    def test_openmetrics_text_shape(self):
        from repro.obs import to_openmetrics

        text = to_openmetrics(self.make_surface())
        assert text.endswith("# EOF\n")
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{tenant="a"} 3' in text
        assert "# TYPE latency_ms summary" in text
        assert 'latency_ms{quantile="0.99"}' in text
        assert "latency_ms_count 3" in text
        assert "queue_depth 4" in text

    def test_exposition_is_deterministic(self):
        from repro.obs import to_json, to_openmetrics

        a, b = self.make_surface(), self.make_surface()
        assert to_openmetrics(a) == to_openmetrics(b)
        assert json.dumps(to_json(a), sort_keys=True) \
            == json.dumps(to_json(b), sort_keys=True)

    def test_json_export_carries_metrics_and_series(self):
        from repro.obs import to_json

        payload = to_json(self.make_surface())
        assert set(payload) == {"metrics", "series"}
        fams = payload["metrics"]["families"]
        assert fams["requests_total"]["children"][0]["labels"] \
            == {"tenant": "a"}
        assert payload["series"]["queue_depth"][0]["points"] == [[1.0, 4.0]]

    def test_label_values_are_escaped(self):
        from repro.obs import Telemetry, to_openmetrics

        tele = Telemetry()
        tele.counter("c", "", ("k",)).labels(k='sa"w\\n').increment()
        text = to_openmetrics(tele)
        assert 'c{k="sa\\"w\\\\n"} 1' in text


class TestJsonlNonFinite:
    def test_nan_and_inf_span_args_become_null(self):
        tracer = Tracer()
        tracer.instant("x", "cat", 1.0, bad=float("nan"),
                       worse=float("inf"), fine=2.0)
        line = to_jsonl(tracer)
        parsed = json.loads(line)          # strict: would reject bare NaN
        assert parsed["args"] == {"bad": None, "worse": None, "fine": 2.0}
        assert "NaN" not in line and "Infinity" not in line


# ---------------------------------------------------------------------------
# SLO burn-rate alerting
# ---------------------------------------------------------------------------

class TestBurnRateAlerts:
    def storm_run(self, ladder):
        from repro.faults import build_scenario
        from repro.obs import AlertEngine, Telemetry, default_slo_rules

        full = ladder.rungs[0].estimate_ms(1)
        deadline = round(5.0 * full, 3)
        trace = poisson_trace(1200, 0.5e3 / full, deadline, rng=2)
        scenario = build_scenario("straggler-storm",
                                  trace[-1].arrival_ms * 0.5, seed=0)
        engine = AlertEngine(default_slo_rules(deadline, miss_budget=0.05,
                                               fast_ms=8.0, slow_ms=24.0))
        telemetry = Telemetry(sample_interval_ms=1.0)
        telemetry.attach_alerts(engine)
        config = ServerConfig(deadline_ms=deadline, execute=False, seed=2,
                              adaptive=False)
        server = Server(ladder, config, faults=scenario.injector(),
                        telemetry=telemetry)
        return server.run_trace(trace), engine

    def test_storm_fires_and_resolves_both_rules(self, ladder):
        result, engine = self.storm_run(ladder)
        assert result.metrics.miss_rate > 0.05
        by_rule = {}
        for e in engine.events:
            by_rule.setdefault(e.rule, []).append(e.state)
        assert by_rule == {"slo-miss-rate": ["firing", "resolved"],
                           "slo-p99": ["firing", "resolved"]}
        assert engine.active == []
        # firing strictly precedes resolution in virtual time
        for rule in by_rule:
            times = [e.time_ms for e in engine.events if e.rule == rule]
            assert times[0] < times[1]

    def test_alert_timeline_is_deterministic(self, ladder):
        _, a = self.storm_run(ladder)
        _, b = self.storm_run(ladder)
        assert [asdict(e) for e in a.events] \
            == [asdict(e) for e in b.events]

    def test_rules_validate_their_shape(self):
        from repro.obs import AlertEngine, BurnRateRule

        with pytest.raises(ValueError, match="fast_ms"):
            BurnRateRule("r", "gauge", 1.0, fast_ms=60.0, slow_ms=20.0,
                         series="s")
        with pytest.raises(ValueError, match="ratio"):
            BurnRateRule("r", "ratio", 0.1, fast_ms=5.0, slow_ms=20.0)
        rule = BurnRateRule("r", "gauge", 1.0, fast_ms=5.0, slow_ms=20.0,
                            series="s")
        with pytest.raises(ValueError, match="unique"):
            AlertEngine([rule, rule])

    def test_ratio_rule_needs_both_window_signals_to_fire(self):
        from repro.obs import AlertEngine, BurnRateRule, Telemetry

        rule = BurnRateRule("miss", "ratio", 0.1, fast_ms=5.0, slow_ms=20.0,
                            numerator="miss_total", denominator="done_total")
        tele = Telemetry(sample_interval_ms=1.0)
        engine = AlertEngine([rule])
        tele.attach_alerts(engine)
        miss = tele.counter("miss_total").child(())
        done = tele.counter("done_total").child(())
        # burn above threshold, but only 3 ms of history: the slow window
        # still sees the same ratio (zero baseline), so this fires only
        # once both windows agree — evaluate directly to check gating
        done.increment(10)
        miss.increment(5)
        tele.sample(1.0)
        assert engine.active == ["miss"]


# ---------------------------------------------------------------------------
# the run store
# ---------------------------------------------------------------------------

class TestRunStore:
    def surface(self):
        from repro.obs import Telemetry

        tele = Telemetry()
        tele.counter("done_total", "x", ("tenant",)) \
            .labels(tenant="a").increment(5)
        tele.gauge("depth").child(()).set(2.0)
        h = tele.histogram("lat_ms").child(())
        for ms in (1.0, 3.0):
            h.observe(ms)
        tele.sample(1.0)
        tele.sample(2.0)
        return tele

    def test_round_trip(self, tmp_path):
        from repro.obs import RunStore

        path = str(tmp_path / "rs.sqlite")
        with RunStore(path) as store:
            rid = store.add_run("test.run", meta={"seed": 3},
                                telemetry=self.surface(),
                                artifacts={"payload": {"x": {"y": 2.5}}},
                                summary={"extra": 9.0})
        with RunStore(path) as store:
            rows = store.runs()
            assert [r["id"] for r in rows] == [rid]
            assert rows[0]["kind"] == "test.run"
            assert rows[0]["meta"] == {"seed": 3}
            summary = store.summary(rid)
            assert summary['done_total{"tenant": "a"}'] == 5.0
            assert summary["depth"] == 2.0
            assert summary["lat_ms_count"] == 2.0
            assert summary["extra"] == 9.0
            assert store.series(rid, "depth") == [(1.0, 2.0), (2.0, 2.0)]
            assert "done_total" in store.series_names(rid)
            assert store.artifacts(rid) == {"payload": {"x": {"y": 2.5}}}

    def test_compare_ranks_biggest_relative_movers_first(self, tmp_path):
        from repro.obs import RunStore

        with RunStore(str(tmp_path / "rs.sqlite")) as store:
            a = store.add_run("t", summary={"same": 1.0, "big": 1.0,
                                            "small": 100.0},
                              artifacts={"p": {"leaf": 2.0}})
            b = store.add_run("t", summary={"same": 1.0, "big": 3.0,
                                            "small": 101.0},
                              artifacts={"p": {"leaf": 4.0}})
            rows = store.compare(a, b)
        keys = [r["key"] for r in rows]
        assert keys[0] == "big"                      # +200%
        assert keys[1] == "p:leaf"                   # +100%
        assert keys.index("big") < keys.index("small")
        by_key = {r["key"]: r for r in rows}
        assert by_key["big"]["delta"] == 2.0
        assert by_key["same"]["rel"] == 0.0

    def test_compare_unknown_run_raises(self, tmp_path):
        from repro.obs import RunStore

        with RunStore(str(tmp_path / "rs.sqlite")) as store:
            rid = store.add_run("t", summary={"x": 1.0})
            with pytest.raises(KeyError):
                store.compare(rid, rid + 1)


# ---------------------------------------------------------------------------
# serve + cluster integration
# ---------------------------------------------------------------------------

class TestServeTelemetry:
    def run_pair(self, ladder):
        from repro.obs import Telemetry

        full = ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(300, 1.3e3 / full, 1.0, rng=0)
        config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
        plain = Server(ladder, config).run_trace(trace)
        telemetry = Telemetry(sample_interval_ms=1.0)
        metered = Server(ladder, config,
                         telemetry=telemetry).run_trace(trace)
        return plain, metered, telemetry

    def test_families_mirror_server_metrics_exactly(self, ladder):
        plain, metered, telemetry = self.run_pair(ladder)
        fam = telemetry.families["serve_requests_total"]
        mirrored = {dict(k)["event"]: c.value for k, c in fam.children()}
        for event in ("arrived", "admitted", "rejected", "completed",
                      "deadline_miss", "dropped"):
            assert mirrored[event] == metered.metrics.counters[event].value

    def test_telemetry_does_not_change_the_serving_outcome(self, ladder):
        plain, metered, _ = self.run_pair(ladder)
        assert metered.metrics.snapshot() == plain.metrics.snapshot()

    def test_sampled_series_cover_the_run(self, ladder):
        _, _, telemetry = self.run_pair(ladder)
        depth = telemetry.store.series("serve_queue_depth", ())
        assert len(depth) > 10
        times = [t for t, _ in depth]
        assert times == sorted(times)
        # the closing sample lands at or after the last arrival
        assert telemetry.store.latest("serve_requests_total",
                                      (("event", "arrived"),)) == 300

    def test_breaker_rung_label(self, device):
        # a breaker transition carries the rung that tripped it
        m = ServerMetrics(deadline_ms=1.0)
        from repro.obs import Telemetry

        tele = Telemetry()
        m2 = ServerMetrics(deadline_ms=1.0, telemetry=tele)
        m2.record_breaker("open", rung="cut3")
        fam = tele.families["serve_breaker_transitions_total"]
        labels = [dict(k) for k, _ in fam.children()]
        assert {"rung": "cut3", "state": "open"} in labels
        # and the unlabeled counter still counts (back-compat surface)
        assert m2.counters["breaker_opens"].value == 1
        m.record_breaker("open")
        assert m.counters["breaker_opens"].value == 1

    def test_finished_resilient_server_is_freed_without_gc(self, ladder):
        # the breakers' listener, the batcher's hook and the telemetry's
        # collector must not reach back into the engine
        from repro.obs import Telemetry

        def run():
            telemetry = Telemetry(sample_interval_ms=1.0)
            config = ServerConfig(deadline_ms=1.0, execute=False, seed=0,
                                  resilience=True)
            server = Server(ladder, config, telemetry=telemetry)
            server.run_trace(poisson_trace(200, 2e3, 1.0, rng=0))
            assert server.engine.breakers
            return {"server": weakref.ref(server),
                    "engine": weakref.ref(server.engine),
                    "telemetry": weakref.ref(telemetry)}

        assert left_alive(run) == []

    def test_rerun_on_shared_telemetry_restarts_its_series(self, ladder):
        # the families are the metrics store, so a second run on the same
        # telemetry binds fresh children: each run's snapshot stays its
        # own, and the exposed counters restart instead of accumulating
        from repro.obs import Telemetry

        full = ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(200, 1.3e3 / full, 1.0, rng=0)
        config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
        telemetry = Telemetry(sample_interval_ms=1.0)
        server = Server(ladder, config, telemetry=telemetry)
        first = server.run_trace(trace)
        before = first.metrics.snapshot()
        second = server.run_trace(trace)
        assert first.metrics.snapshot() == before == second.metrics.snapshot()
        requests = telemetry.families["serve_requests_total"]
        assert requests.labels(event="arrived").value == 200
        # the second run restarts the sampling gate: its first point sits
        # at its own first event (the first batch finish), not one
        # interval past the first run's closing sample
        times = [t for t, _ in telemetry.store.series(
            "serve_requests_total", (("event", "arrived"),))]
        restart = next(i for i in range(1, len(times))
                       if times[i] < times[i - 1])
        first_event = min(r.finish_ms for r in second.completed)
        assert times[0] == times[restart] == first_event


class TestClusterTelemetry:
    def test_merged_series_sums_replica_counters(self, device):
        from repro.cluster import Router, homogeneous_replicas, make_policy
        from repro.obs import Telemetry

        tele = Telemetry(sample_interval_ms=1.0)
        base = make_tiny_net()
        config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
        replicas = homogeneous_replicas(base, device, 3, config,
                                        num_classes=5, telemetry=tele)
        trace = poisson_trace(300, 3e4, 1.0, rng=0)
        router = Router(replicas, make_policy("p2c-deadline", 0),
                        telemetry=tele)
        result = router.run(trace)

        merged = tele.store.merged("serve_requests_total",
                                   drop_label="replica")
        completed = merged[(("event", "completed"),)]
        per_replica = sum(
            r.metrics.counters["completed"].value for r in replicas)
        assert completed[-1][1] == per_replica
        assert result.metrics.counters["routed"].value == 300
        # cluster-level gauges were collected on the shared clock
        assert tele.store.latest("cluster_replicas", ()) == 3.0
        assert tele.store.latest("cluster_requests_total",
                                 (("event", "routed"),)) == 300

    def test_fleet_samples_on_one_monotone_clock(self, device):
        # replica engines sample at batch finishes ahead of the router's
        # arrival clock; those instants must not re-sample or rewind
        from repro.cluster import Router, homogeneous_replicas, make_policy
        from repro.obs import Telemetry

        interval = 1.0
        tele = Telemetry(sample_interval_ms=interval)
        config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
        replicas = homogeneous_replicas(make_tiny_net(), device, 3, config,
                                        num_classes=5, telemetry=tele)
        trace = poisson_trace(600, 3e4, 1.0, rng=0)
        Router(replicas, make_policy("p2c-deadline", 0),
               telemetry=tele).run(trace)

        snapshot = tele.store.snapshot()
        series = [s["points"] for rows in snapshot.values() for s in rows]
        assert series
        for points in series:
            times = [t for t, _ in points]
            assert times == sorted(times)
        instants = sorted({t for points in series for t, _ in points})
        assert len(instants) == tele.samples_taken
        steps = [b - a for a, b in zip(instants, instants[1:])]
        # every step but the closing sample's spans a full interval
        assert all(step >= interval for step in steps[:-1])
        span = instants[-1] - instants[0]
        assert tele.samples_taken <= span / interval + 2
        # the closing sample holds every counter's final value
        for name, fam in tele.families.items():
            if fam.kind != "counter":
                continue
            for labels, child in fam.children():
                assert tele.store.latest(name, labels) == child.value

    def test_finished_fleet_is_freed_without_gc(self, device):
        from repro.cluster import Router, homogeneous_replicas, make_policy
        from repro.obs import Telemetry

        def run():
            tele = Telemetry(sample_interval_ms=1.0)
            config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
            replicas = homogeneous_replicas(make_tiny_net(), device, 3,
                                            config, num_classes=5,
                                            telemetry=tele)
            router = Router(replicas, make_policy("p2c-deadline", 0),
                            telemetry=tele)
            router.run(poisson_trace(300, 3e4, 1.0, rng=0))
            refs = {"router": weakref.ref(router),
                    "telemetry": weakref.ref(tele)}
            for r in replicas:
                refs[f"engine {r.name}"] = weakref.ref(r)
            return refs

        assert left_alive(run) == []

    def test_merged_series_requires_telemetry(self, device):
        from repro.cluster import ClusterMetrics, Replica

        base = make_tiny_net()
        config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)
        ladder = TRNLadder.from_base(base, device, num_classes=5)
        metrics = ClusterMetrics([Replica("r0", ladder, config)])
        with pytest.raises(ValueError, match="telemetry"):
            metrics.merged_series("serve_requests_total")


class TestKernelTelemetry:
    def test_engine_kernel_timing_fills_the_kernel_family(self, ladder):
        from repro.obs import Telemetry

        full = ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(40, 0.5e3 / full, 5.0, rng=0,
                              image_size=8, render=True)
        telemetry = Telemetry(sample_interval_ms=1.0)
        config = ServerConfig(deadline_ms=5.0, execute=True, seed=0,
                              kernel_timing=True)
        result = Server(ladder, config, telemetry=telemetry).run_trace(trace)
        assert result.metrics.counters["completed"].value > 0

        fam = telemetry.families["kernel_latency_ms"]
        children = list(fam.children())
        assert children
        rungs = {dict(k)["rung"] for k, _ in children}
        assert rungs <= {r.name for r in ladder.rungs}
        for key, hist in children:
            snap = hist.snapshot()
            assert snap["count"] > 0
            assert snap["mean_ms"] > 0

    def test_kernel_timing_off_keeps_the_family_empty(self, ladder):
        from repro.obs import Telemetry

        full = ladder.rungs[0].estimate_ms(1)
        trace = poisson_trace(20, 0.5e3 / full, 5.0, rng=0,
                              image_size=8, render=True)
        telemetry = Telemetry(sample_interval_ms=1.0)
        config = ServerConfig(deadline_ms=5.0, execute=True, seed=0)
        Server(ladder, config, telemetry=telemetry).run_trace(trace)
        assert list(telemetry.families["kernel_latency_ms"].children()) == []


class TestExpositionBytesStableAcrossHashSeeds:
    def test_openmetrics_and_jsonl_bytes_survive_hash_randomization(
            self, tmp_path):
        # same idiom as the workload recording test: two interpreters with
        # different PYTHONHASHSEED must emit byte-identical telemetry
        # exposition and span JSONL — sorted output, no dict-order leaks
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys\n"
            "sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
            "from conftest import make_tiny_net\n"
            "from repro.device.spec import DeviceSpec\n"
            "from repro.obs import Telemetry, Tracer, to_jsonl, "
            "to_openmetrics\n"
            "from repro.serve import Server, ServerConfig, TRNLadder\n"
            "from repro.workload import poisson_trace\n"
            "spec = DeviceSpec(name='d', peak_gflops=10.0,\n"
            "    bandwidth_gbps=1.0, launch_overhead_us=5.0,\n"
            "    occupancy_flops=1e4, noise_std=0.005, straggler_prob=0.0,\n"
            "    event_overhead_us=2.0)\n"
            "ladder = TRNLadder.from_base(make_tiny_net(), spec,\n"
            "                             num_classes=5)\n"
            "trace = poisson_trace(200, 1.3e3 / ladder.rungs[0]"
            ".estimate_ms(1), 1.0, rng=0)\n"
            "tele, tracer = Telemetry(), Tracer()\n"
            "config = ServerConfig(deadline_ms=1.0, execute=False, seed=0)\n"
            "Server(ladder, config, tracer=tracer,\n"
            "       telemetry=tele).run_trace(trace)\n"
            "with open(sys.argv[1], 'w') as fh:\n"
            "    fh.write(to_openmetrics(tele))\n"
            "    fh.write(to_jsonl(tracer))\n"
        ) % (os.path.join(repo, "src"), os.path.join(repo, "tests"))

        def run(hashseed: str, name: str) -> bytes:
            path = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            subprocess.run([sys.executable, "-c", code, str(path)],
                           env=env, check=True, capture_output=True)
            return path.read_bytes()

        first = run("0", "a.txt")
        second = run("31337", "b.txt")
        assert first == second
        assert b"# EOF" in first
