"""Deadline-aware inference serving on top of NetCut's TRN ladder.

NetCut picks the deepest TRN that meets a hard deadline *at deploy time*;
this subpackage closes the loop at *serve time*: a bounded
earliest-deadline-first queue with admission control, a micro-batcher that
coalesces requests while every member's deadline still holds, and a
degradation scheduler that steps down the TRN ladder when queue pressure
(observed p99 vs. the deadline) threatens misses and climbs back when
pressure subsides. All timing runs on the simulated devices in
:mod:`repro.device` over virtual time, so serving runs are deterministic
and wall-clock-free.

Entry points: :class:`Server` / :class:`ServerConfig` (the facade),
:class:`TRNLadder` (build from networks, deployment artifacts or a base
network), and :func:`poisson_trace` (synthetic traffic). Observability —
request tracing and estimator-drift monitoring — plugs in through
``Server(..., tracer=..., drift=...)``; see :mod:`repro.obs`.
"""

from .batcher import MicroBatcher
from .engine import Engine, ServerConfig
from .ladder import HysteresisController, TRNLadder, TRNRung
from .metrics import ServerMetrics
from .queue import EDFQueue
from .request import COMPLETED, REJECTED, Request, Response
from .server import Server, ServingResult

# the trace makers live in repro.workload; re-exported here for
# compatibility
from repro.workload.generators import (
    offered_load,
    poisson_trace,
    uniform_trace,
)

__all__ = [
    "Server",
    "ServerConfig",
    "ServingResult",
    "Engine",
    "TRNLadder",
    "TRNRung",
    "HysteresisController",
    "MicroBatcher",
    "EDFQueue",
    "Request",
    "Response",
    "COMPLETED",
    "REJECTED",
    "ServerMetrics",
    "poisson_trace",
    "uniform_trace",
    "offered_load",
]
