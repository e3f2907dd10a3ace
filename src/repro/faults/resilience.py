"""Serving resilience primitives: circuit breakers.

The serving engine keeps one :class:`CircuitBreaker` per TRN rung. A rung
that keeps timing out or hard-failing is taken out of rotation (*open*)
instead of burning deadline budget on every batch; after a virtual-time
cooldown the breaker lets exactly one probe batch through (*half-open*) —
success closes it, another failure re-opens it. Every transition is a
structured :class:`BreakerEvent` (the resilience counterpart of
:class:`repro.obs.DriftEvent`) and, when a tracer is attached to the
engine, a ``breaker`` trace span.

Nothing here imports :mod:`repro.serve`; the engine imports *us*, and a
breaker knows its rung only by name, so it is unit-testable in isolation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

__all__ = ["RungFailureError", "BreakerEvent", "CircuitBreaker"]

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class RungFailureError(RuntimeError):
    """A TRN rung hard-failed to execute (fault-injected or real)."""

    def __init__(self, rung_name: str):
        super().__init__(f"rung {rung_name!r} failed to execute")
        self.rung_name = rung_name


@dataclass(frozen=True)
class BreakerEvent:
    """One circuit-breaker state transition, in virtual time."""

    time_ms: float
    rung: str
    from_state: str
    to_state: str
    reason: str                 # "timeout", "failure", "probe-ok", "cooldown"


class CircuitBreaker:
    """Per-rung failure accounting with open/half-open/closed states.

    Parameters
    ----------
    rung:
        Name of the rung this breaker guards (stamped into events).
    threshold:
        Consecutive failures (timeouts or hard failures) that open the
        breaker from the closed state. A half-open probe re-opens on its
        first failure.
    cooldown_ms:
        Virtual time the breaker stays open before :meth:`allow` lets a
        probe through (half-open).
    listener:
        Optional callable receiving each :class:`BreakerEvent` as it
        happens (the engine uses this to trace and count transitions).
    """

    def __init__(self, rung: str, threshold: int = 3,
                 cooldown_ms: float = 25.0, listener=None):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_ms <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.rung = rung
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.listener = listener
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms = -math.inf
        self.events: list[BreakerEvent] = []

    def _transition(self, now_ms: float, to_state: str, reason: str) -> None:
        event = BreakerEvent(now_ms, self.rung, self.state, to_state, reason)
        self.state = to_state
        self.events.append(event)
        if self.listener is not None:
            self.listener(event)

    # -- the state machine ---------------------------------------------------
    def allow(self, now_ms: float) -> bool:
        """May the engine schedule a batch on this rung at ``now_ms``?

        Closed: always. Open: only once the cooldown has elapsed, which
        transitions to half-open — the caller's next batch *is* the probe.
        Half-open: the probe slot is taken, wait for its verdict.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now_ms >= self.opened_at_ms + self.cooldown_ms:
                self._transition(now_ms, HALF_OPEN, "cooldown")
                return True
            return False
        return False                      # half-open: probe in flight

    def would_allow(self, now_ms: float) -> bool:
        """Side-effect-free availability check (routing, not scheduling).

        Unlike :meth:`allow`, never transitions the state machine: an open
        breaker past its cooldown reads as available without arming the
        half-open probe, so a cluster router can poll any number of
        replicas for health without consuming probe slots. A half-open
        breaker reads unavailable — its one probe is already in flight.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now_ms >= self.opened_at_ms + self.cooldown_ms
        return False

    def record_success(self, now_ms: float) -> None:
        """The rung served a batch fine; close from any state."""
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(now_ms, CLOSED, "probe-ok")

    def record_failure(self, now_ms: float, reason: str = "failure") -> None:
        """A timeout or hard failure on this rung."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self.opened_at_ms = now_ms
            self._transition(now_ms, OPEN, reason)
        elif self.state == CLOSED \
                and self.consecutive_failures >= self.threshold:
            self.opened_at_ms = now_ms
            self._transition(now_ms, OPEN, reason)

    def snapshot(self) -> dict:
        return {"rung": self.rung, "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "transitions": [asdict(e) for e in self.events]}
