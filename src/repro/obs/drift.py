"""Estimator-drift monitoring: is the latency model still telling the truth?

Every serving decision — admission, batch growth, ladder transitions —
trusts the estimator's predicted service time. The paper quantifies
estimator error *offline* (Fig. 9); :class:`DriftMonitor` tracks it
*online*: each completed request feeds its predicted latency and observed
service time into a rolling window of signed relative errors, and when the
windowed mean absolute error exceeds a threshold a structured
:class:`DriftEvent` fires (with a cooldown so a sustained miscalibration
produces a stream of events at window granularity, not one per request).
The events are exported through metrics snapshots, traced as ``drift``
spans, and — with ``ServerConfig(online_reestimation=True)`` — consumed by
:class:`repro.netcut.online.ReestimationController`, which re-fits the
latency tables from the live observations and rebuilds the TRN ladder.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

__all__ = ["DriftEvent", "DriftMonitor"]


@dataclass(frozen=True)
class DriftEvent:
    """One threshold crossing of the rolling estimator error."""

    time_ms: float              # virtual time of the triggering observation
    rung: str | None            # TRN serving when the drift was detected
    rel_error: float            # windowed mean |observed - predicted| / predicted
    bias: float                 # windowed mean signed error (sign = direction)
    window: int                 # observations in the window at firing time
    threshold: float


class DriftMonitor:
    """Streaming relative-error tracker over (predicted, observed) pairs.

    Parameters
    ----------
    threshold:
        Windowed mean absolute relative error above which a
        :class:`DriftEvent` fires. The default 0.25 sits far above the
        device's run-to-run noise but well below a systematically wrong
        estimate (a 2x bias shows up as ~0.5-1.0).
    window:
        Observations in the rolling window.
    min_observations:
        Observations required before the monitor may fire (a fresh window
        of noise should not alarm).
    cooldown:
        Minimum observations between events (default: ``window``, so each
        event reflects substantially fresh evidence).
    events_capacity:
        Retained events. A sustained miscalibration on a long-running
        server fires one event per cooldown forever; only the most recent
        ``events_capacity`` are kept (``events_total`` keeps the true
        count for snapshots).
    """

    def __init__(self, threshold: float = 0.25, window: int = 64,
                 min_observations: int = 32, cooldown: int | None = None,
                 events_capacity: int = 256):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if events_capacity < 1:
            raise ValueError("events_capacity must be >= 1")
        self.threshold = threshold
        self.window = window
        self.min_observations = min(min_observations, window)
        self.cooldown = window if cooldown is None else cooldown
        self._errors: deque[float] = deque(maxlen=window)
        # running sums keep observe() O(1); recomputing over the window
        # per observation is measurable on the serving hot path
        self._abs_sum = 0.0
        self._signed_sum = 0.0
        self._observations = 0
        self._skipped = 0
        # start past the cooldown: the first event is gated only by
        # min_observations
        self._since_event = self.cooldown
        self.events: deque[DriftEvent] = deque(maxlen=events_capacity)
        self.events_total = 0

    # -- feeding -------------------------------------------------------------
    def observe(self, predicted_ms: float, observed_ms: float,
                time_ms: float = 0.0,
                rung: str | None = None) -> DriftEvent | None:
        """Feed one (prediction, observation) pair; returns an event or None.

        Degenerate pairs (non-positive or non-finite prediction,
        non-finite observation — e.g. a zero estimate out of a freshly
        re-fit estimator) are skipped and counted rather than raised:
        this runs on the serving hot path mid-request, where one bad
        estimate must not crash the server. The skip count is surfaced
        in :meth:`snapshot`.
        """
        # coerce once: callers pass numpy scalars (sampled service times),
        # and numpy-scalar arithmetic pays ufunc dispatch on every op below
        predicted_ms = float(predicted_ms)
        observed_ms = float(observed_ms)
        if (not math.isfinite(predicted_ms) or predicted_ms <= 0
                or not math.isfinite(observed_ms)):
            self._skipped += 1
            return None
        err = (observed_ms - predicted_ms) / predicted_ms
        if len(self._errors) == self.window:
            evicted = self._errors[0]
            self._abs_sum -= abs(evicted)
            self._signed_sum -= evicted
        self._errors.append(err)
        self._abs_sum += abs(err)
        self._signed_sum += err
        self._observations += 1
        self._since_event += 1
        if (len(self._errors) < self.min_observations
                or self._since_event < self.cooldown):
            return None
        err = self.rolling_error
        if err <= self.threshold:
            return None
        event = DriftEvent(time_ms, rung, err, self.bias,
                           len(self._errors), self.threshold)
        self.events.append(event)
        self.events_total += 1
        self._since_event = 0
        return event

    def reset_window(self) -> None:
        """Discard the rolling error window (the event log survives).

        Called after the estimator itself changes — e.g. an online
        re-estimation rewrote the latency tables — so stale pre-change
        errors cannot re-fire an event against predictions that no longer
        exist. The next event is again gated by ``min_observations`` of
        fresh evidence.
        """
        self._errors.clear()
        self._abs_sum = 0.0
        self._signed_sum = 0.0
        self._since_event = self.cooldown

    # -- read-out ------------------------------------------------------------
    @property
    def observations(self) -> int:
        """Total (predicted, observed) pairs fed so far."""
        return self._observations

    @property
    def skipped(self) -> int:
        """Degenerate (predicted, observed) pairs skipped so far."""
        return self._skipped

    @property
    def rolling_error(self) -> float:
        """Windowed mean absolute relative error."""
        if not self._errors:
            return float("nan")
        return self._abs_sum / len(self._errors)

    @property
    def bias(self) -> float:
        """Windowed mean signed relative error (+: estimator too low)."""
        if not self._errors:
            return float("nan")
        return self._signed_sum / len(self._errors)

    @property
    def drifting(self) -> bool:
        """Whether the current window sits above the threshold."""
        return (len(self._errors) >= self.min_observations
                and self.rolling_error > self.threshold)

    def snapshot(self) -> dict:
        """Monitor state as a plain dict (what :meth:`report` prints)."""
        return {"observations": self._observations,
                "skipped": self._skipped,
                "rolling_error": self.rolling_error,
                "bias": self.bias,
                "threshold": self.threshold,
                "drifting": self.drifting,
                "events_total": self.events_total,
                "events": [asdict(e) for e in self.events]}

    def report(self) -> str:
        s = self.snapshot()
        status = "DRIFTING" if s["drifting"] else "ok"
        lines = [f"estimator drift: {status}  "
                 f"(rolling error {100 * s['rolling_error']:.2f}%, "
                 f"bias {100 * s['bias']:+.2f}%, "
                 f"threshold {100 * self.threshold:.0f}%, "
                 f"{s['observations']} observations, "
                 f"{s['skipped']} skipped, "
                 f"{s['events_total']} events)"]
        for e in self.events:
            lines.append(f"  t={e.time_ms:9.2f} ms  drift on "
                         f"{e.rung or '?'}: error "
                         f"{100 * e.rel_error:.1f}% "
                         f"(bias {100 * e.bias:+.1f}%)")
        return "\n".join(lines)
