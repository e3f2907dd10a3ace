"""repro.workload: production traffic for the serving stack.

Four parts, one subsystem:

- :mod:`~repro.workload.generators` — composable arrival processes
  (diurnal cycles, flash crowds, Markov-modulated bursts and their
  superposition) sampled into :class:`repro.serve.Request` traces with
  Lewis–Shedler thinning; also the canonical home of ``poisson_trace``
  and ``uniform_trace`` (re-exported by :mod:`repro.serve`);
- :mod:`~repro.workload.tenancy` — per-tenant request classes with
  distinct deadlines, priorities and traffic shares, plus the
  weighted-fair admission policy the engine enforces under contention;
- :mod:`~repro.workload.recording` — versioned JSONL record/replay of
  request streams and their outcomes, byte-stable across
  ``PYTHONHASHSEED``;
- :mod:`~repro.workload.fluid` — an analytical queueing approximation
  over the same latency tables, for fleet sizes the discrete event loop
  cannot reach.
"""

from .generators import (
    ArrivalProcess,
    ConstantRate,
    DiurnalCycle,
    FlashCrowd,
    MarkovModulated,
    Superposition,
    WORKLOAD_KINDS,
    generate_trace,
    make_process,
    offered_load,
    poisson_trace,
    uniform_trace,
)
from .tenancy import (
    TenantClass,
    TenantMix,
    WeightedFairAdmission,
    default_tenants,
)
from .recording import (
    RecordedTrace,
    TRACE_KIND,
    TRACE_VERSION,
    load_trace,
    record_run,
    save_trace,
    verify_replay,
)
from .fluid import FluidModel, FluidPrediction, TenantPrediction
