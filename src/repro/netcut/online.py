"""Online NetCut: drift-triggered re-estimation and live ladder rebuild.

NetCut's Algorithm 1 selects the deepest TRN whose *estimated* latency
meets the deadline — but in the serving stack those estimates are frozen
into the deployment artifact, while the device underneath keeps changing
(thermal throttling, contention, plain mis-profiling). The
:class:`repro.obs.DriftMonitor` already detects the divergence; this
module closes the loop:

1. every executed batch's ``(batch size, predicted, observed)`` service
   time is recorded per rung (:meth:`ReestimationController.record`);
2. when a :class:`~repro.obs.drift.DriftEvent` fires, the controller
   re-fits each rung's latency belief from the live observations — the
   same ratio form :class:`repro.estimators.ProfilerEstimator` uses over
   profiler tables, or a pooled :class:`repro.estimators.SVR` fit that
   interpolates the slowdown across the latency axis — and rewrites the
   rungs' latency tables in place (:meth:`repro.serve.ladder.TRNRung.
   recalibrate`);
3. the ladder is re-synthesised incrementally: rungs re-sorted by their
   updated estimates (:meth:`repro.serve.ladder.TRNLadder.resort`) and
   the serving rung re-selected by the same greedy rule Algorithm 1 uses
   offline (:func:`select_rung` — the deepest rung whose calibrated
   estimate meets the deadline).

Hysteresis keeps a single drift event from thrashing the ladder: a
virtual-time cooldown between applied re-estimations, a minimum count of
fresh observations per fit, and a minimum relative scale change below
which a fit is discarded as noise. Everything runs on the virtual clock
inside the serving loop and is deterministic for a fixed seed.

The module deliberately imports nothing from :mod:`repro.serve` — it
operates on the rung/ladder protocol (``estimate_ms``, ``recalibrate``,
``resort``, ``select``), so it works identically on a plain
:class:`~repro.serve.ladder.TRNLadder` and on one wrapped in
:class:`repro.faults.FaultedRung` proxies.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["OnlineFit", "ReestimationController", "fit_scales",
           "select_rung"]

# calibration scales are clamped into this band: a fit that claims a
# 100x slowdown (or speedup) is evidence of a broken fit, not a broken
# device, and must not wedge the planner into rejecting all traffic
_SCALE_FLOOR = 0.05
_SCALE_CEIL = 20.0


@dataclass(frozen=True)
class OnlineFit:
    """One applied re-estimation: what changed and where the ladder went."""

    time_ms: float
    method: str                      # "ratio" or "svr"
    scales: dict                     # rung -> new estimate_scale
    previous: dict                   # rung -> scale before this fit
    samples: int                     # observations consumed by the fit
    rebuilt: bool                    # did the serving rung change?
    from_rung: str
    to_rung: str


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def fit_scales(samples: dict[str, list[tuple[int, float, float]]],
               current: dict[str, float],
               method: str = "ratio") -> dict[str, float]:
    """Re-fit per-rung calibration scales from live observations.

    ``samples`` maps rung name to ``(batch_size, predicted_ms,
    observed_ms)`` triples where ``predicted_ms`` already includes the
    rung's *current* scale; the returned scales therefore multiply the
    current belief (``new = current * observed/predicted``) — rewriting
    the whole latency table through one factor, exactly the ratio form
    the paper's profiler estimator uses per layer.

    ``method="ratio"`` takes the per-rung median ratio (robust to the
    device's straggler tail). ``method="svr"`` pools every observation
    into one ε-SVR of log-ratio over log-predicted latency — rungs share
    evidence, so a throttle observed on two rungs transfers to the rungs
    that were not serving while it ramped. Rungs with no observations get
    the pooled median ratio in both methods (a device-wide slowdown is
    the common case — thermal throttling hits every rung).
    """
    if method not in ("ratio", "svr"):
        raise ValueError(f"unknown re-estimation method {method!r}")
    # each rung's usable (predicted, observed) pairs, in arrival order
    pairs: dict[str, list[tuple[float, float]]] = {}
    for name, triples in samples.items():
        kept = [(predicted, observed)
                for _batch, predicted, observed in triples
                if predicted > 0 and observed > 0
                and math.isfinite(predicted) and math.isfinite(observed)]
        if kept:
            pairs[name] = kept
    ratios = {name: [observed / predicted for predicted, observed in kept]
              for name, kept in pairs.items()}
    pooled = [r for rung_ratios in ratios.values() for r in rung_ratios]
    if not pooled:
        return dict(current)
    fallback = _median(pooled)

    def clamp(scale: float) -> float:
        return min(max(scale, _SCALE_FLOOR), _SCALE_CEIL)

    if method == "svr" and len(pooled) >= 4:
        from repro.estimators.svr import SVR
        logs = {name: [math.log(predicted) for predicted, _ in kept]
                for name, kept in pairs.items()}
        x = [[lp] for rung_logs in logs.values() for lp in rung_logs]
        y = [math.log(r) for r in pooled]
        query = {name: sum(rung_logs) / len(rung_logs)
                 for name, rung_logs in logs.items()}
        svr = SVR(c=10.0, gamma=0.5, epsilon=1e-3, max_iter=200)
        svr.fit(np.asarray(x), np.asarray(y))
        out = {}
        for name, scale in current.items():
            if name in query:
                pred = float(svr.predict(
                    np.asarray([[query[name]]]))[0])
                ratio = math.exp(pred)
            else:
                ratio = fallback
            out[name] = clamp(scale * ratio)
        return out

    return {name: clamp(current.get(name, 1.0)
                        * _median(ratios.get(name, [fallback])))
            for name in current}


def select_rung(ladder, deadline_ms: float, margin: float = 1.0):
    """Algorithm 1's greedy selection over the ladder's live estimates.

    Walk the rungs most-accurate-first and return the first whose
    calibrated batch-1 estimate fits inside ``margin * deadline_ms`` —
    the deepest TRN the (re-estimated) latency model believes meets the
    deadline, exactly the offline loop in
    :func:`repro.netcut.algorithm.run_netcut` applied to the rungs at
    hand. Falls back to the fastest rung when nothing fits.
    """
    budget = margin * deadline_ms
    for rung in ladder.rungs:
        if rung.estimate_ms(1) <= budget:
            return rung
    return ladder.fastest


class ReestimationController:
    """Consume drift events; re-fit latency tables; rebuild the ladder.

    The serving engine feeds :meth:`record` once per executed batch and
    :meth:`maybe_reestimate` once per drift event; everything else —
    metrics counters, trace spans, resetting the drift window — stays in
    the engine, keeping this controller a pure planning component.

    Hysteresis parameters
    ---------------------
    cooldown_ms:
        Minimum virtual time between *applied* re-estimations.
    min_samples:
        Fresh observations (since the last applied fit) required before a
        fit may run.
    min_rel_change:
        A fit whose largest relative scale change is below this is
        discarded as noise — the ladder is not rebuilt over a 2% wobble.
    """

    def __init__(self, deadline_ms: float, *, cooldown_ms: float = 25.0,
                 min_samples: int = 8, method: str = "ratio",
                 margin: float = 1.0, min_rel_change: float = 0.05,
                 max_samples_per_rung: int = 64):
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if method not in ("ratio", "svr"):
            raise ValueError(f"unknown re-estimation method {method!r}")
        # a zero-length sample buffer would drop every observation while
        # the fresh count still grows: every fit would see no data
        if max_samples_per_rung < 1:
            raise ValueError("max_samples_per_rung must be at least 1")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if not cooldown_ms >= 0:
            raise ValueError("cooldown_ms must be non-negative")
        if not min_rel_change >= 0:
            raise ValueError("min_rel_change must be non-negative")
        if not margin > 0:
            raise ValueError("margin must be positive")
        self.deadline_ms = float(deadline_ms)
        self.cooldown_ms = float(cooldown_ms)
        self.min_samples = int(min_samples)
        self.method = method
        self.margin = float(margin)
        self.min_rel_change = float(min_rel_change)
        self.max_samples_per_rung = int(max_samples_per_rung)
        self._samples: dict[str, deque] = {}
        self._fresh = 0
        self._last_applied_ms = -math.inf
        self.fits: list[OnlineFit] = []
        self.counters = {"reestimates": 0, "rebuilds": 0,
                         "skipped_cooldown": 0, "skipped_samples": 0,
                         "skipped_minor": 0}

    # -- feeding -------------------------------------------------------------
    def record(self, rung: str, batch_size: int, predicted_ms: float,
               observed_ms: float) -> None:
        """One executed batch's predicted vs. observed service time."""
        predicted_ms = float(predicted_ms)
        observed_ms = float(observed_ms)
        if (not math.isfinite(predicted_ms) or predicted_ms <= 0
                or not math.isfinite(observed_ms) or observed_ms <= 0):
            return
        bucket = self._samples.get(rung)
        if bucket is None:
            bucket = self._samples[rung] = \
                deque(maxlen=self.max_samples_per_rung)
        bucket.append((int(batch_size), predicted_ms, observed_ms))
        self._fresh += 1

    # -- the loop closure ----------------------------------------------------
    def maybe_reestimate(self, ladder, event, now_ms: float):
        """React to one drift event; returns an :class:`OnlineFit` or None.

        Applies the hysteresis gates, re-fits the scales, rewrites every
        rung's latency table, re-sorts the ladder and re-runs the greedy
        rung selection. ``None`` means a gate held (nothing changed).
        """
        if now_ms - self._last_applied_ms < self.cooldown_ms:
            self.counters["skipped_cooldown"] += 1
            return None
        if self._fresh < self.min_samples:
            self.counters["skipped_samples"] += 1
            return None
        current = {r.name: r.estimate_scale for r in ladder.rungs}
        samples = {name: list(bucket)
                   for name, bucket in self._samples.items()}
        scales = fit_scales(samples, current, self.method)
        change = max((abs(scales[n] / current[n] - 1.0) for n in current),
                     default=0.0)
        if change < self.min_rel_change:
            self.counters["skipped_minor"] += 1
            return None
        consumed = self._fresh
        for rung in ladder.rungs:
            rung.recalibrate(scales[rung.name])
        before = ladder.current
        ladder.resort()
        chosen = select_rung(ladder, self.deadline_ms, self.margin)
        rebuilt = chosen is not before
        if rebuilt:
            ladder.select(chosen)
        fit = OnlineFit(now_ms, self.method, scales, current, consumed,
                        rebuilt, before.name, chosen.name)
        self.fits.append(fit)
        self.counters["reestimates"] += 1
        if rebuilt:
            self.counters["rebuilds"] += 1
        self._last_applied_ms = now_ms
        self._samples.clear()
        self._fresh = 0
        return fit

    # -- read-out ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Controller state, every fit included, as a plain JSON-able
        dict."""
        return {"deadline_ms": self.deadline_ms,
                "method": self.method,
                "counters": dict(self.counters),
                "pending_samples": self._fresh,
                "fits": [asdict(f) for f in self.fits]}

    def report(self) -> str:
        c = self.counters
        lines = [f"online netcut ({self.method}): "
                 f"{c['reestimates']} re-estimations, "
                 f"{c['rebuilds']} ladder rebuilds "
                 f"(skipped: {c['skipped_cooldown']} cooldown, "
                 f"{c['skipped_samples']} samples, "
                 f"{c['skipped_minor']} minor)"]
        for f in self.fits:
            worst = max(f.scales.values())
            arrow = f"{f.from_rung} -> {f.to_rung}" if f.rebuilt \
                else f"kept {f.to_rung}"
            lines.append(f"  t={f.time_ms:9.2f} ms  refit from "
                         f"{f.samples} batches, max scale {worst:.2f}x, "
                         f"{arrow}")
        return "\n".join(lines)
