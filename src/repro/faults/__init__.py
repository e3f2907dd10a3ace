"""Fault injection and serving resilience for the NetCut stack.

The paper's contract is a hard deadline on a real embedded device — and
real devices misbehave: scheduler preemption storms, thermal throttling,
a TRN whose weights fail to load, memory pressure eating the request
queue, an estimator that quietly goes stale. This subpackage supplies
both halves of surviving that:

- **Injection** (:class:`FaultInjector` + the :class:`FaultModel` family)
  perturbs the virtual-time device model underneath the serving stack —
  deterministically, from a seed — so chaos experiments replay
  bit-for-bit. :func:`build_scenario` instantiates the named built-in
  :data:`SCENARIOS`.
- **Resilience** (:class:`CircuitBreaker`, plus the
  engine wiring in :mod:`repro.serve.engine` behind
  ``ServerConfig(resilience=True)``): per-batch execution timeouts with
  retry on a faster rung, per-rung breakers that take a sick rung out of
  rotation and probe it back in, and a last-resort degrade-to-fastest
  path — the server sheds accuracy instead of missing deadlines or
  crashing.

Typical chaos experiment::

    scenario = build_scenario("straggler-storm", span_ms=200.0, seed=0)
    injector = scenario.injector()
    server = Server(injector.wrap(ladder),
                    ServerConfig(deadline_ms=0.9, resilience=True),
                    faults=injector)
    result = server.run_trace(trace)

``repro faults --scenario straggler-storm`` runs the same experiment from
the command line, resilience on vs. off.
"""

from .inject import FaultEvent, FaultInjector, FaultedRung
from .models import (
    EstimatorBias,
    FaultModel,
    QueueSaturation,
    RungFailure,
    StragglerStorm,
    ThermalThrottle,
)
from .resilience import (
    BreakerEvent,
    CircuitBreaker,
    RungFailureError,
)
from .scenario import SCENARIOS, ChaosScenario, build_scenario

__all__ = [
    "FaultModel",
    "StragglerStorm",
    "ThermalThrottle",
    "RungFailure",
    "QueueSaturation",
    "EstimatorBias",
    "FaultEvent",
    "FaultInjector",
    "FaultedRung",
    "RungFailureError",
    "BreakerEvent",
    "CircuitBreaker",
    "ChaosScenario",
    "SCENARIOS",
    "build_scenario",
]
