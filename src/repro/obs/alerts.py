"""Multi-window SLO burn-rate alerting over the telemetry store.

The classic SRE burn-rate pattern, on virtual time: an alert fires only
when *both* a fast window (catches the spike quickly) and a slow window
(proves it is not a blip) show the SLO budget being consumed faster than
allowed, and resolves as soon as the fast window is clean again — so
firing is prompt, resolution is prompt, and a single stray bad sample
cannot page.

Two rule kinds cover the serving SLOs:

- ``ratio`` — an error-budget rule over two counter series (deadline
  misses over completions): the windowed miss *rate* is compared against
  ``burn_factor x objective``.
- ``gauge`` — a latency-budget rule over one gauge series (the engine's
  windowed p99): the windowed mean is compared the same way.

Everything is deterministic: rules read only the
:class:`repro.obs.telemetry.TimeSeriesStore`, which is sampled on the
virtual clock, so the same seeded run fires and resolves the same alerts
at the same virtual times, every time. Firing/resolved transitions are
recorded as :class:`AlertEvent`\\ s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["BurnRateRule", "AlertEvent", "AlertEngine",
           "default_slo_rules"]


@dataclass(frozen=True)
class BurnRateRule:
    """One SLO and the windows that guard it.

    ``objective`` is the budget (max acceptable miss-rate fraction, or
    p99 milliseconds); the alert fires while both windowed signals
    exceed ``burn_factor * objective``. ``labels`` restricts the rule to
    one exact label combination of the underlying series (empty = the
    unlabeled series).
    """

    name: str
    kind: str                       # "ratio" or "gauge"
    objective: float
    fast_ms: float
    slow_ms: float
    burn_factor: float = 1.0
    numerator: str = ""             # ratio: numerator counter series
    denominator: str = ""           # ratio: denominator counter series
    series: str = ""                # gauge: the series name
    numerator_labels: tuple = ()    # sorted ((k, v), ...) restrictions —
    denominator_labels: tuple = ()  # a counter family's children are
    labels: tuple = ()              # distinct store series per label set

    def __post_init__(self):
        if self.kind not in ("ratio", "gauge"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.objective <= 0:
            raise ValueError("objective must be positive")
        if self.fast_ms <= 0 or self.slow_ms < self.fast_ms:
            raise ValueError("need 0 < fast_ms <= slow_ms")
        if self.kind == "ratio" and not (self.numerator
                                         and self.denominator):
            raise ValueError("ratio rules need numerator and denominator")
        if self.kind == "gauge" and not self.series:
            raise ValueError("gauge rules need a series name")

    @property
    def threshold(self) -> float:
        return self.burn_factor * self.objective


@dataclass(frozen=True)
class AlertEvent:
    """One firing or resolved transition, in virtual time."""

    time_ms: float
    rule: str
    state: str                      # "firing" or "resolved"
    fast: float
    slow: float
    threshold: float


@dataclass
class _RuleState:
    firing: bool = False
    since_ms: float = field(default=float("nan"))


class AlertEngine:
    """Evaluate burn-rate rules against the time-series store.

    Driven by :meth:`repro.obs.telemetry.Telemetry.sample` (attach with
    ``telemetry.attach_alerts(engine)``), or call :meth:`evaluate`
    directly after a run. State machine per rule: *fire* when fast AND
    slow windows both exceed the threshold, *resolve* when the fast
    window is back under it (the slow window is allowed to stay dirty —
    it remembers the incident, it should not prolong the page).
    """

    def __init__(self, rules: list[BurnRateRule]):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique")
        self.rules = list(rules)
        self.events: list[AlertEvent] = []
        self._states = {r.name: _RuleState() for r in self.rules}

    def _signal(self, rule: BurnRateRule, store, now_ms: float,
                window_ms: float) -> float | None:
        if rule.kind == "ratio":
            num = store.delta(rule.numerator, rule.numerator_labels,
                              window_ms, now_ms)
            den = store.delta(rule.denominator, rule.denominator_labels,
                              window_ms, now_ms)
            if num is None or den is None or den <= 0:
                return None
            return num / den
        return store.window_mean(rule.series, rule.labels, window_ms, now_ms)

    def evaluate(self, now_ms: float, store) -> list[AlertEvent]:
        """One evaluation pass; returns the transitions it produced."""
        produced = []
        for rule in self.rules:
            state = self._states[rule.name]
            fast = self._signal(rule, store, now_ms, rule.fast_ms)
            slow = self._signal(rule, store, now_ms, rule.slow_ms)
            thr = rule.threshold
            if not state.firing:
                if (fast is not None and slow is not None
                        and fast > thr and slow > thr):
                    state.firing = True
                    state.since_ms = now_ms
                    produced.append(AlertEvent(now_ms, rule.name, "firing",
                                               fast, slow, thr))
            elif fast is not None and fast <= thr:
                state.firing = False
                produced.append(AlertEvent(now_ms, rule.name, "resolved",
                                           fast, slow if slow is not None
                                           else float("nan"), thr))
        self.events.extend(produced)
        return produced

    @property
    def active(self) -> list[str]:
        """Names of the rules currently firing, sorted."""
        return sorted(name for name, s in self._states.items() if s.firing)

    def snapshot(self) -> dict:
        return {
            "rules": [{"name": r.name, "kind": r.kind,
                       "objective": r.objective, "fast_ms": r.fast_ms,
                       "slow_ms": r.slow_ms, "burn_factor": r.burn_factor}
                      for r in self.rules],
            "active": self.active,
            "events": [asdict(e) for e in self.events],
        }

    def report(self) -> str:
        lines = [f"alerts: {len(self.rules)} rules, "
                 f"{len(self.events)} transitions, "
                 f"active: {', '.join(self.active) or 'none'}"]
        for e in self.events:
            lines.append(f"  t={e.time_ms:9.2f} ms  {e.state.upper():8s} "
                         f"{e.rule} (fast {e.fast:.4f} / slow {e.slow:.4f} "
                         f"vs {e.threshold:.4f})")
        return "\n".join(lines)


def default_slo_rules(deadline_ms: float, miss_budget: float = 0.05,
                      p99_factor: float = 1.0, fast_ms: float = 20.0,
                      slow_ms: float = 60.0, labels: dict | None = None
                      ) -> list[BurnRateRule]:
    """The canonical serving SLO rules over the engine's labeled series.

    - ``slo-miss-rate`` — deadline misses over completions above
      ``miss_budget``;
    - ``slo-p99`` — the engine's windowed p99 gauge above
      ``p99_factor x deadline_ms``.

    Windows default to fast 20 ms / slow 60 ms of *virtual* time, sized
    for the repo's canonical few-hundred-millisecond traces; production
    rules would be minutes/hours, the mechanics are identical.
    ``labels`` pins the rules to one replica's series in a cluster.
    """
    def key(**kv) -> tuple:
        merged = dict(labels or {})
        merged.update(kv)
        return tuple(sorted((str(k), str(v)) for k, v in merged.items()))

    return [
        BurnRateRule(
            "slo-miss-rate", "ratio", miss_budget, fast_ms, slow_ms,
            numerator="serve_requests_total",
            denominator="serve_requests_total",
            numerator_labels=key(event="deadline_miss"),
            denominator_labels=key(event="completed")),
        BurnRateRule(
            "slo-p99", "gauge", p99_factor * deadline_ms, fast_ms, slow_ms,
            series="serve_recent_p99_ms", labels=key()),
    ]
