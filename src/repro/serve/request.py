"""Request/response types for the deadline-aware inference server.

All timestamps are in **milliseconds of virtual time**. The serving stack
is a discrete-event simulation over the repository's simulated devices, so
nothing here ever reads a wall clock — traces, schedules and metrics are
fully deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Request", "Response", "COMPLETED", "REJECTED", "DROPPED"]

#: Terminal request states. A completed request may still have missed its
#: deadline (``Response.deadline_met`` is False); rejection happens at
#: admission time, before any compute is spent; a *dropped* request was
#: admitted but never executed — the engine drained it at shutdown, or
#: every rung able to run it had failed.
COMPLETED = "completed"
REJECTED = "rejected"
DROPPED = "dropped"


@dataclass
class Request:
    """One inference request against the server.

    ``x`` is a single un-batched sample (shape equal to the network input
    shape) or ``None`` when the server runs in timing-only mode.
    ``deadline_ms`` is the *relative* latency budget; the absolute deadline
    is ``arrival_ms + deadline_ms``. ``tenant`` names the request class
    (see :mod:`repro.workload.tenancy`); ``None`` means untagged
    single-class traffic, which every policy treats as before.
    """

    rid: int
    arrival_ms: float
    deadline_ms: float
    x: np.ndarray | None = None
    tenant: str | None = None

    @property
    def abs_deadline_ms(self) -> float:
        """Absolute virtual-time deadline of this request."""
        return self.arrival_ms + self.deadline_ms


@dataclass
class Response:
    """Outcome of one request: where it ran, when, and whether it made it."""

    rid: int
    status: str                       # COMPLETED or REJECTED
    arrival_ms: float
    abs_deadline_ms: float
    rung: str | None = None           # TRN that served the request
    start_ms: float = float("nan")    # batch execution start
    finish_ms: float = float("nan")   # batch execution end
    batch_size: int = 0
    output: np.ndarray | None = None
    reject_reason: str | None = None
    tenant: str | None = None

    @property
    def queue_ms(self) -> float:
        """Time spent waiting before execution started."""
        return self.start_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        """Batch execution time the request was part of."""
        return self.finish_ms - self.start_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end response time (queueing + service)."""
        return self.finish_ms - self.arrival_ms

    @property
    def deadline_met(self) -> bool:
        """Whether the request completed within its deadline."""
        return self.status == COMPLETED and self.finish_ms <= self.abs_deadline_ms
