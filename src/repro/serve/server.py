"""The Server facade: a TRN ladder behind a deadline-aware front door.

This is the user-facing entry point of :mod:`repro.serve`::

    ladder = TRNLadder.from_base(base, xavier(), num_classes=5)
    server = Server(ladder, ServerConfig(deadline_ms=0.9))
    result = server.run_trace(poisson_trace(1000, rate_rps=2500,
                                            deadline_ms=0.9))
    print(result.metrics.report())

Each :meth:`Server.run_trace` call is an independent, fully deterministic
run: the ladder's latency beliefs, rung order and cursor are restored to
the deployment tables (see :meth:`TRNLadder.restore`), every
rung's measurement RNG is reseeded from the config seed, and fresh metrics
are collected — so the same (ladder, config, trace) triple always yields
identical schedules, transitions and numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .engine import Engine, ServerConfig
from .ladder import TRNLadder
from .metrics import ServerMetrics
from .request import Request, Response

__all__ = ["Server", "ServerConfig", "ServingResult"]


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    responses: list[Response]
    metrics: ServerMetrics
    final_rung: str
    config: ServerConfig = field(repr=False, default=None)

    @property
    def completed(self) -> list[Response]:
        return [r for r in self.responses if r.status == "completed"]

    @property
    def rejected(self) -> list[Response]:
        return [r for r in self.responses if r.status == "rejected"]

    @property
    def dropped(self) -> list[Response]:
        """Admitted but never executed (drained or every rung failed)."""
        return [r for r in self.responses if r.status == "dropped"]

    @property
    def missed(self) -> list[Response]:
        """Completed responses that overran their deadline."""
        return [r for r in self.completed if not r.deadline_met]


class Server:
    """Deadline-aware inference server over a TRN ladder.

    ``tracer`` and ``drift`` attach observability without touching the
    serving logic: pass a :class:`repro.obs.Tracer` to record request
    spans and a :class:`repro.obs.DriftMonitor` to watch predicted vs.
    observed service times (see :mod:`repro.obs`). Both are shared across
    :meth:`run_trace` calls — clear them between runs if per-run traces
    are wanted.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is where each run's
    metrics live: labeled families sampled on the virtual clock (see
    :mod:`repro.obs.telemetry`). Like the tracer it is shared across
    runs; each run restarts its own series' counts, and the points
    already sampled stay in the store.

    ``faults`` (a :class:`repro.faults.FaultInjector`) subjects every run
    to its chaos scenario: the ladder is served through fault-perturbed
    rung proxies and the injector's virtual clock is driven by the engine.
    The injector is rewound at the start of each run, so the same
    (ladder, config, trace, faults) quadruple replays identically —
    usually paired with ``ServerConfig(resilience=True)`` so the engine
    fights back.
    """

    def __init__(self, ladder: TRNLadder,
                 config: ServerConfig | None = None,
                 tracer=None, drift=None, faults=None, telemetry=None):
        self.ladder = ladder
        self.config = config or ServerConfig()
        self.tracer = tracer
        self.drift = drift
        self.faults = faults
        self.telemetry = telemetry
        self.engine = None    # the engine of the most recent run_trace

    def run_trace(self, trace: list[Request], stop_ms: float | None = None,
                  **overrides) -> ServingResult:
        """Replay a request trace through a fresh engine.

        Keyword overrides patch the server config for this run only, e.g.
        ``server.run_trace(trace, adaptive=False)`` to get the fixed-rung
        baseline of the same scenario. ``stop_ms`` shuts the engine down
        at that virtual time, draining the queue as drops.
        """
        config = replace(self.config, **overrides) if overrides \
            else self.config
        engine = Engine(self.ladder, config, tracer=self.tracer,
                        drift=self.drift, faults=self.faults,
                        telemetry=self.telemetry)
        # kept for post-run inspection (e.g. the online-NetCut
        # re-estimation controller's fit history on engine.reestimator)
        self.engine = engine
        responses = engine.run(trace, stop_ms=stop_ms)
        # read the cursor off the engine's ladder: under fault injection it
        # is a wrapped copy whose cursor the original never sees
        return ServingResult(responses, engine.metrics,
                             engine.ladder.current.name, config)
