"""Labeled time-series telemetry over the serving stack's virtual clock.

This module is the one store of the serving stack's metrics: the
primitives (:class:`Counter`, :class:`Gauge`, :class:`LatencyHistogram`),
the label model and the time dimension:

- :class:`MetricFamily` — one named metric with a fixed label schema
  (``serve_requests_total{event=...,tenant=...}``); children are created
  lazily per label combination, Prometheus-style.
- :class:`FamilyView` — the children one component binds and writes;
  :class:`repro.serve.ServerMetrics` and
  :class:`repro.cluster.ClusterMetrics` are views of this kind, and
  folding views drops their extra labels (the fleet roll-up).
- :class:`TimeSeriesStore` — bounded ring buffers of ``(t_ms, value)``
  points per (metric, labels) key, sampled on the *virtual* clock so a
  run's evolution is deterministic and replayable; counters get windowed
  deltas, gauges windowed means, and any series can be merged across one
  label (how :class:`repro.cluster.ClusterMetrics` folds replicas).
- :class:`Telemetry` — the registry tying it together: family creation,
  keyed sample-time collectors (queue depth, ladder cursor, fair-share
  gauges), interval-gated :meth:`~Telemetry.maybe_sample`, and an
  optional :class:`repro.obs.alerts.AlertEngine` evaluated at every
  sample.
- :func:`to_openmetrics` / :func:`to_json` — Prometheus/OpenMetrics text
  exposition (summary-style histograms) and a JSON export of the same
  surface plus the stored series.

Everything here is deliberately serve-agnostic: the serving stack
imports telemetry, never the reverse.
"""

from __future__ import annotations

import inspect
import math
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import islice

__all__ = [
    "ChildSum",
    "Counter",
    "FamilyView",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "TimeSeriesStore",
    "Telemetry",
    "to_openmetrics",
    "to_json",
]

LabelKey = tuple[tuple[str, str], ...]


# -- primitives (canonical home; serve/cluster re-export) --------------------

@dataclass
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def increment(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A named value that goes up and down (queue depth, current rung, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LatencyHistogram:
    """Streaming histogram over log-spaced bins (default 1 µs .. 10 s).

    Quantiles are estimated as the geometric midpoint of the bin holding
    the requested rank, which bounds the relative error by the bin ratio
    (~12% at 20 bins/decade) without retaining samples.
    """

    def __init__(self, lo_ms: float = 1e-3, hi_ms: float = 1e4,
                 bins_per_decade: int = 20):
        self.lo_ms = lo_ms
        self.hi_ms = hi_ms
        decades = math.log10(hi_ms / lo_ms)
        self.n_bins = int(round(decades * bins_per_decade))
        self._ratio = (hi_ms / lo_ms) ** (1.0 / self.n_bins)
        self._log_ratio = math.log(self._ratio)
        # two extra bins catch under/overflow
        self.counts = [0] * (self.n_bins + 2)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def _bin(self, ms: float) -> int:
        if ms < self.lo_ms:
            return 0
        if ms >= self.hi_ms:
            return self.n_bins + 1
        return 1 + int(math.log(ms / self.lo_ms) / self._log_ratio)

    def observe(self, ms: float) -> None:
        """Record one latency sample (milliseconds)."""
        self.counts[self._bin(ms)] += 1
        self.count += 1
        self.total_ms += ms
        if ms < self.min_ms:
            self.min_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else float("nan")

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one (cluster roll-up).

        Bin-exact because both histograms share the log-spaced layout;
        histograms with different bounds or resolutions cannot be merged
        without re-binning, so that is rejected.
        """
        if (other.lo_ms, other.hi_ms, other.n_bins) != \
                (self.lo_ms, self.hi_ms, self.n_bins):
            raise ValueError("cannot merge histograms with different bins")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total_ms += other.total_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) in milliseconds.

        The under/overflow bins have no geometric midpoint (their inner
        edge is the only boundary known), so they clamp to ``lo_ms`` and
        ``max_ms`` respectively — further bounded by the observed
        min/max, which keeps the estimate sane when every sample falls
        outside the binned range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        # the first bin whose cumulative count passes the rank: walk down
        # from the highest occupied bin (the one holding max_ms) while
        # the count below the bin still passes it
        rank = q * (self.count - 1)
        counts = self.counts
        i = self._bin(self.max_ms)
        below = self.count - counts[i]
        while below > rank:
            i -= 1
            below -= counts[i]
        if i == 0:                              # underflow: all < lo_ms
            return min(self.lo_ms, self.max_ms)
        if i > self.n_bins:                     # overflow: clamp to max
            return self.max_ms
        lo = self.lo_ms * self._ratio ** (i - 1)
        return min(max(lo * math.sqrt(self._ratio), self.min_ms),
                   self.max_ms)

    def snapshot(self) -> dict:
        """Summary statistics as a plain dict."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "min_ms": float("nan") if empty else self.min_ms,
            "max_ms": float("nan") if empty else self.max_ms,
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
        }


# -- the label model ---------------------------------------------------------

class MetricFamily:
    """One named metric with a fixed label schema and lazy children.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; children
    are one primitive per distinct label-value combination, created on
    first touch::

        requests = telemetry.counter("serve_requests_total",
                                     "requests by life-cycle event",
                                     labelnames=("event", "tenant"))
        requests.labels(event="arrived", tenant="batch").increment()

    ``labels()`` returns the live child, so hot paths should resolve a
    child once and keep the bound handle rather than re-resolving per
    event.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "_children")

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: tuple[str, ...] = ()):
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}

    def _make(self):
        if self.kind == "counter":
            return Counter(self.name)
        if self.kind == "gauge":
            return Gauge(self.name)
        return LatencyHistogram()

    def labels(self, **labelvalues):
        """The child for this label combination (created on first use)."""
        try:
            key = tuple(str(labelvalues[n]) for n in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}") from exc
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}")
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def child(self, values: tuple[str, ...] = ()):
        """Positional-label variant of :meth:`labels` (hot-path friendly)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label "
                f"values, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make()
        return child

    def children(self):
        """Iterate ``(label_key, child)`` with label_key name/value pairs."""
        for values, child in self._children.items():
            yield tuple(zip(self.labelnames, values)), child

    def snapshot(self) -> dict:
        """The family as one JSON-able dict (children keyed by labels)."""
        out = {"kind": self.kind, "help": self.help,
               "labelnames": list(self.labelnames), "children": []}
        for key, child in sorted(self.children()):
            value = child.snapshot() if self.kind == "histogram" \
                else child.value
            out["children"].append({"labels": dict(key), "value": value})
        return out


class FamilyView:
    """One component's own children of a set of telemetry families.

    A serving component (one server, one replica, one router) declares
    its families once (``spec`` rows of ``(name, kind, help,
    labelnames)``) and writes through the children it binds; whatever it
    reads back (counts, breakdowns, roll-ups) iterates those children in
    the order it bound them. ``labels`` are fixed extra labels appended
    to every family's schema (a cluster replica passes
    ``{"replica": name}``); every component sharing one telemetry must
    use the same extra label *keys*, or family schemas would disagree.

    Binding installs a fresh child: a component built on a telemetry
    that already holds its label set (the next run of one server)
    restarts those series, as a restarted process would, rather than
    reading an earlier run's counts.
    """

    def __init__(self, telemetry: "Telemetry", spec,
                 labels: dict | None = None):
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        names = tuple(sorted(labels))
        self.extra = tuple(labels[n] for n in names)
        self.suffix = ",".join(f"{n}={labels[n]}" for n in names)
        self.families = {
            name: getattr(telemetry, kind)(name, help, labelnames + names)
            for name, kind, help, labelnames in spec}
        self.children: dict[str, dict] = {name: {} for name in self.families}

    def child(self, name: str, *values: str):
        """The bound child of family ``name`` at label ``values`` (extra
        labels excluded), created on first use."""
        own = self.children[name]
        child = own.get(values)
        if child is None:
            family = self.families[name]
            child = own[values] = family._children[values + self.extra] = \
                family._make()
        return child

    def fold(self, other: "FamilyView") -> None:
        """Add another view's counters and histograms into this one.

        Children match on their label values without the extra labels,
        so folding replicas' views into one drops the ``replica`` label.
        Gauges are instantaneous readings and do not fold.
        """
        for name, children in other.children.items():
            kind = other.families[name].kind
            if kind == "gauge":
                continue
            for values, child in children.items():
                mine = self.child(name, *values)
                if kind == "histogram":
                    mine.merge(child)
                else:
                    mine.increment(child.value)


class ChildSum:
    """A read-only counter over a view's children of one family.

    Its value sums the children whose last label value is ``last`` (a
    breaker state, a scaling action), including children bound later.
    """

    __slots__ = ("_children", "_last")

    def __init__(self, children: dict, last: str):
        self._children = children
        self._last = last

    @property
    def value(self) -> int:
        return sum(c.value for key, c in self._children.items()
                   if key[-1] == self._last)


# -- the time dimension ------------------------------------------------------

class TimeSeriesStore:
    """Bounded ring buffers of ``(t_ms, value)`` per (metric, labels) key.

    Appends must be in non-decreasing virtual time per key (see
    :meth:`record`); reads never mutate. ``capacity`` bounds each
    series, so memory is O(series x capacity) no matter how long a run
    goes on.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 2:
            raise ValueError("series capacity must be >= 2")
        self.capacity = capacity
        self._series: dict[tuple[str, LabelKey], deque] = {}

    @staticmethod
    def _key(name: str, labels: dict | LabelKey | None) -> tuple:
        if labels is None:
            labels = ()
        if isinstance(labels, dict):
            labels = tuple(sorted((str(k), str(v))
                                  for k, v in labels.items()))
        return (name, tuple(labels))

    def bind(self, name: str, labels):
        """The ``append`` of one series' ring buffer (created on first bind).

        A writer that records the same series again and again (the
        sampler) binds it once and appends ``(t_ms, value)`` points
        through the handle, skipping the per-point key lookup.
        """
        key = self._key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = deque(maxlen=self.capacity)
        return series.append

    def record(self, name: str, labels, t_ms: float, value: float) -> None:
        """Append one point to the series (creating it on first touch).

        ``t_ms`` must not be earlier than the series' last point:
        :meth:`delta`, :meth:`window_mean` and :meth:`merged` read each
        series as a step function in time order. The sampler keeps this
        because one run has one sampling clock (see
        :meth:`Telemetry.maybe_sample`).
        """
        self.bind(name, labels)((t_ms, value))

    def names(self) -> list[str]:
        """Distinct metric names, sorted."""
        return sorted({name for name, _ in self._series})

    def keys(self, name: str) -> list[LabelKey]:
        """All label combinations recorded under ``name``, sorted."""
        return sorted(k for n, k in self._series if n == name)

    def series(self, name: str, labels=None) -> list[tuple[float, float]]:
        """The points of one exact (name, labels) series (empty if unknown)."""
        return list(self._series.get(self._key(name, labels), ()))

    def latest(self, name: str, labels=None) -> float | None:
        pts = self._series.get(self._key(name, labels))
        return pts[-1][1] if pts else None

    def delta(self, name: str, labels, window_ms: float,
              now_ms: float) -> float | None:
        """Counter increase over the trailing window ending at ``now_ms``.

        The baseline is the last point at or before ``now - window``; a
        series younger than the window baselines at zero (counters start
        at zero). Returns ``None`` when the series has no point inside
        the window — no evidence, not zero evidence.
        """
        pts = self._series.get(self._key(name, labels))
        if not pts:
            return None
        cutoff = now_ms - window_ms
        latest = None
        baseline = 0.0
        for t, v in pts:
            if t > now_ms:
                break
            if t <= cutoff:
                baseline = v
            else:
                latest = v
        if latest is None:
            return None
        return latest - baseline

    def window_mean(self, name: str, labels, window_ms: float,
                    now_ms: float) -> float | None:
        """Mean of the gauge points inside the trailing window."""
        pts = self._series.get(self._key(name, labels))
        if not pts:
            return None
        cutoff = now_ms - window_ms
        total, n = 0.0, 0
        for t, v in pts:
            if cutoff < t <= now_ms and v == v:   # skip NaN points
                total += v
                n += 1
        return total / n if n else None

    def merged(self, name: str, drop_label: str
               ) -> dict[LabelKey, list[tuple[float, float]]]:
        """Sum series across one label (step-function carry-forward).

        The cross-replica roll-up: every series of ``name`` that carries
        ``drop_label`` is grouped by its remaining labels, and within a
        group the values are summed at the union of all timestamps, each
        source contributing its last-known value between its own samples.
        Series without the label pass through unchanged.
        """
        groups: dict[LabelKey, list[deque]] = {}
        for (n, key), pts in self._series.items():
            if n != name:
                continue
            rest = tuple(kv for kv in key if kv[0] != drop_label)
            groups.setdefault(rest, []).append(pts)
        out: dict[LabelKey, list[tuple[float, float]]] = {}
        for rest, sources in groups.items():
            times = sorted({t for pts in sources for t, _ in pts})
            seqs = [list(pts) for pts in sources]
            merged = []
            cursors = [0] * len(seqs)
            last = [0.0] * len(seqs)
            for t in times:
                for i, seq in enumerate(seqs):
                    while cursors[i] < len(seq) and seq[cursors[i]][0] <= t:
                        last[i] = seq[cursors[i]][1]
                        cursors[i] += 1
                merged.append((t, sum(last)))
            out[rest] = merged
        return out

    def snapshot(self) -> dict:
        """Every series as ``{name: [{labels, points}, ...]}`` (JSON-able)."""
        out: dict[str, list] = {}
        for (name, key), pts in sorted(self._series.items()):
            out.setdefault(name, []).append(
                {"labels": dict(key),
                 "points": [[t, v] for t, v in pts]})
        return out


# -- the registry ------------------------------------------------------------

class Telemetry:
    """Labeled metric families + virtual-clock sampling + alerting.

    One ``Telemetry`` instance is the monitoring surface of one serving
    stack (a server, a cluster, a benchmark run). Components create
    families idempotently (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram`), register keyed *collectors* — callables invoked
    at sample time to refresh derived gauges — and the serving loop
    drives :meth:`maybe_sample` on its virtual clock, which snapshots
    every family into the :class:`TimeSeriesStore` and evaluates the
    attached :class:`~repro.obs.alerts.AlertEngine`; the loop that owns
    the run restarts the gate (:meth:`start_run`) and takes the closing
    sample.
    """

    def __init__(self, sample_interval_ms: float = 1.0,
                 capacity: int = 2048):
        if sample_interval_ms <= 0:
            raise ValueError("sample_interval_ms must be positive")
        self.sample_interval_ms = sample_interval_ms
        self.store = TimeSeriesStore(capacity)
        self.families: dict[str, MetricFamily] = {}
        self.alerts = None
        self._collectors: dict[str, object] = {}
        # per family: the bound appends of its children's series
        self._bound: dict[MetricFamily, list] = {}
        self._last_sample_ms: float | None = None
        self.samples_taken = 0

    # -- family creation (idempotent, schema-checked) ------------------------
    def _family(self, name: str, kind: str, help: str,
                labelnames: tuple[str, ...]) -> MetricFamily:
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = MetricFamily(
                name, kind, help, labelnames)
        elif fam.kind != kind or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}; cannot re-register as {kind} "
                f"with {tuple(labelnames)}")
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames)

    # -- collectors ----------------------------------------------------------
    def collector(self, key: str, fn) -> None:
        """Register (or replace) a sample-time callback ``fn(now_ms)``.

        Keyed replacement is what keeps repeated runs sane: a fresh
        engine registering under the same key supersedes the dead one
        instead of piling up stale closures. A bound method is held
        weakly, so a collector never keeps a finished run's engine or
        router alive: once its owner is freed, the collector is dropped.
        """
        self._collectors[key] = weakref.WeakMethod(fn) \
            if inspect.ismethod(fn) else lambda: fn

    # -- alerting ------------------------------------------------------------
    def attach_alerts(self, engine) -> None:
        """Evaluate this :class:`~repro.obs.alerts.AlertEngine` per sample."""
        self.alerts = engine

    # -- sampling ------------------------------------------------------------
    def start_run(self) -> None:
        """Restart the sampling gate: a run's first :meth:`maybe_sample`
        samples, whatever clock the previous run ended at."""
        self._last_sample_ms = None

    def maybe_sample(self, now_ms: float) -> bool:
        """Sample iff ``now_ms`` is at least one interval past the run's
        last sample.

        A clock behind that point means "not yet", never a new run: a
        fleet's replica engines sample at batch finishes ahead of the
        router's arrival clock. The loop that owns the run
        (:meth:`repro.serve.Engine.run`, :meth:`repro.cluster.Router.run`)
        owns the clock: it calls :meth:`start_run` first and takes the
        one closing :meth:`sample`, so every stored series stays in
        non-decreasing time.
        """
        last = self._last_sample_ms
        if last is not None and now_ms - last < self.sample_interval_ms:
            return False
        self.sample(now_ms)
        return True

    def _bind(self, fam: MetricFamily) -> list:
        """The bound appends of ``fam``'s series, in ``fam._children``
        order, after binding the children added since the last sample."""
        appends = self._bound.setdefault(fam, [])
        bind = self.store.bind
        for values in islice(fam._children, len(appends), None):
            labels = tuple(zip(fam.labelnames, values))
            appends.append(
                tuple(bind(fam.name + suffix, labels)
                      for suffix in ("_count", "_mean", "_p99"))
                if fam.kind == "histogram" else bind(fam.name, labels))
        return appends

    def sample(self, now_ms: float) -> None:
        """Record every family into the store; collectors run first.

        Each child's series is bound once, by the first sample that sees
        the child, so the store creates its series in the order the
        families and their children were created. A child a
        :class:`FamilyView` re-binds keeps its label values, and with
        them its series.
        """
        for key in sorted(self._collectors):
            fn = self._collectors[key]()
            if fn is None:
                del self._collectors[key]
            else:
                fn(now_ms)
        for fam in self.families.values():
            children = fam._children
            appends = self._bound.get(fam)
            if appends is None or len(appends) < len(children):
                appends = self._bind(fam)
            if fam.kind == "histogram":
                for (count, mean, p99), hist in zip(appends,
                                                    children.values()):
                    n = hist.count
                    count((now_ms, n))
                    mean((now_ms, hist.mean_ms if n else 0.0))
                    p99((now_ms, hist.quantile(0.99) if n else 0.0))
            else:
                for append, child in zip(appends, children.values()):
                    append((now_ms, child.value))
        self._last_sample_ms = now_ms
        self.samples_taken += 1
        if self.alerts is not None:
            self.alerts.evaluate(now_ms, self.store)

    # -- read-out ------------------------------------------------------------
    def snapshot(self) -> dict:
        out = {
            "sample_interval_ms": self.sample_interval_ms,
            "samples_taken": self.samples_taken,
            "families": {name: fam.snapshot()
                         for name, fam in sorted(self.families.items())},
        }
        if self.alerts is not None:
            out["alerts"] = self.alerts.snapshot()
        return out


# -- exposition --------------------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _labels_text(labels: LabelKey, extra: tuple = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _num(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def to_openmetrics(telemetry: Telemetry) -> str:
    """Render every family in the Prometheus/OpenMetrics text format.

    Counters and gauges expose one sample per child; histograms expose
    summary-style ``quantile`` samples plus ``_sum``/``_count`` (the
    fixed-memory log-binned histogram reads out quantiles, not
    cumulative buckets). Families and children are emitted in sorted
    order, so the exposition is byte-deterministic for a given state.
    """
    lines: list[str] = []
    for name in sorted(telemetry.families):
        fam = telemetry.families[name]
        if fam.help:
            lines.append(f"# HELP {name} {fam.help}")
        kind = "summary" if fam.kind == "histogram" else fam.kind
        lines.append(f"# TYPE {name} {kind}")
        for labels, child in sorted(fam.children()):
            if fam.kind == "histogram":
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f"{name}"
                        f"{_labels_text(labels, (('quantile', q),))} "
                        f"{_num(child.quantile(q))}")
                lines.append(f"{name}_sum{_labels_text(labels)} "
                             f"{_num(child.total_ms)}")
                lines.append(f"{name}_count{_labels_text(labels)} "
                             f"{child.count}")
            else:
                lines.append(f"{name}{_labels_text(labels)} "
                             f"{_num(child.value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_json(telemetry: Telemetry) -> dict:
    """The whole telemetry surface — families and stored series — as JSON."""
    return {"metrics": telemetry.snapshot(),
            "series": telemetry.store.snapshot()}
