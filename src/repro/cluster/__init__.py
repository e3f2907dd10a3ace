"""Multi-replica scale-out serving for NetCut's TRN ladders.

One replica of the deadline-aware serving stack (:mod:`repro.serve`)
tops out at whatever its device plus its fastest TRN can sustain; this
subpackage scales the same stack *out*: a :class:`Router` dispatches
admitted requests across N :class:`Replica` shards — each an engine
with a name, over its own TRN ladder and device spec, so heterogeneous
fleets (a Xavier-class replica next to two slower Nano-class ones) are
first-class — under pluggable routing policies (:class:`RoundRobin`,
:class:`JoinShortestQueue`, and the deadline-aware power-of-two-choices
:class:`DeadlineAwareP2C`, which consults each replica's latency
estimate before committing, exactly the estimate-then-commit discipline
of NetCut's Algorithm 1). An :class:`Autoscaler` grows and drains the
fleet from rolling miss-rate and queue-depth signals with hysteresis.

Everything runs over the repository's virtual clock and composes with
the neighbouring subsystems: :mod:`repro.obs` tracers see per-replica
spans and a cluster-level metrics roll-up, and :mod:`repro.faults`
injectors can kill or degrade a single replica — the router routes
around it through the existing circuit breakers.

Typical run::

    replicas = homogeneous_replicas(base, xavier(), 3,
                                    ServerConfig(deadline_ms=0.9))
    router = Router(replicas, make_policy("p2c-deadline", seed=0))
    result = router.run(poisson_trace(5000, rate_rps=2e4, deadline_ms=0.9))
    print(result.metrics.report())

``repro cluster --replicas 3 --policy p2c-deadline`` runs the same
experiment from the command line.
"""

from .autoscaler import Autoscaler, AutoscalerConfig
from .metrics import ClusterMetrics, ScaleEvent
from .policies import (
    POLICIES,
    DeadlineAwareP2C,
    JoinShortestQueue,
    RoundRobin,
    RoutingPolicy,
    make_policy,
)
from .replica import Replica, ReplicaTracer, homogeneous_replicas
from .router import ClusterResult, Router

__all__ = [
    "Replica",
    "ReplicaTracer",
    "homogeneous_replicas",
    "Router",
    "ClusterResult",
    "RoutingPolicy",
    "RoundRobin",
    "JoinShortestQueue",
    "DeadlineAwareP2C",
    "POLICIES",
    "make_policy",
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterMetrics",
    "ScaleEvent",
]
