"""Composable fault models: how real devices break the latency contract.

Each :class:`FaultModel` is a pure perturbation of the virtual-time device
model, active over a ``[start_ms, start_ms + duration_ms)`` window and
deterministic given a seed (seeding is centralised in
:class:`repro.faults.FaultInjector`, so a whole chaos scenario replays
bit-for-bit). A model can perturb four surfaces, each through one hook:

==================  =====================================================
hook                what it models
==================  =====================================================
service_factor      the *measured* latency of one batched inference
                    (straggler spikes, thermal throttling)
estimate_factor     the latency the *estimator believes* (miscalibration;
                    the device itself is fine, the planner is lying)
fails               hard rung failure — the TRN cannot execute at all
                    (weights failed to load, kernel launch error)
capacity_factor     usable queue capacity (memory pressure eating the
                    request buffer)
==================  =====================================================

Hooks default to the identity, so a model only overrides the surface it
perturbs and an injector composes any set of models multiplicatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FaultModel",
    "StragglerStorm",
    "ThermalThrottle",
    "RungFailure",
    "QueueSaturation",
    "EstimatorBias",
]


@dataclass
class FaultModel:
    """Base fault: an activation window plus an optional rung filter.

    ``rungs`` limits the fault to the named TRN rungs (``None`` = all).
    Subclasses override the hooks for the surface they perturb; every hook
    receives the current virtual time and must be a pure function of
    ``(now_ms, arguments, own RNG state)`` so scenarios replay exactly.
    """

    start_ms: float = 0.0
    duration_ms: float = math.inf
    rungs: tuple[str, ...] | None = None
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.rungs is not None:
            self.rungs = tuple(self.rungs)

    # -- lifecycle -----------------------------------------------------------
    def reseed(self, seed: int) -> None:
        """Give the fault a fresh deterministic RNG (injector-driven)."""
        self._rng = np.random.default_rng(int(seed))

    def active(self, now_ms: float) -> bool:
        """Whether the fault window covers ``now_ms``."""
        return self.start_ms <= now_ms < self.start_ms + self.duration_ms

    def applies_to(self, rung_name: str) -> bool:
        return self.rungs is None or rung_name in self.rungs

    # -- perturbation hooks (identity defaults) ------------------------------
    def service_factor(self, now_ms: float, rung_name: str,
                       batch_size: int) -> float:
        """Multiplier on one sampled (measured) service time."""
        return 1.0

    def estimate_factor(self, now_ms: float, rung_name: str) -> float:
        """Multiplier on the noise-free estimate the planner trusts."""
        return 1.0

    def fails(self, now_ms: float, rung_name: str) -> bool:
        """Whether the rung hard-fails at ``now_ms``."""
        return False

    def capacity_factor(self, now_ms: float) -> float:
        """Multiplier on the usable queue capacity."""
        return 1.0

    def describe(self) -> str:
        window = ("always" if math.isinf(self.duration_ms)
                  else f"[{self.start_ms:g}, "
                       f"{self.start_ms + self.duration_ms:g}) ms")
        scope = "all rungs" if self.rungs is None else ", ".join(self.rungs)
        return f"{type(self).__name__} {window} on {scope}"


@dataclass
class StragglerStorm(FaultModel):
    """Scheduler-preemption storm: straggler spikes become the common case.

    While active, each sampled service time is independently hit with
    probability ``prob`` by a multiplier drawn uniformly from
    ``[1 + scale/2, 1 + scale]`` — far beyond the device spec's background
    straggler behaviour (prob ~1%, scale ~0.25). This is the scenario the
    paper's 200-warm-up/800-run averaging protocol exists to survive
    offline; online, a server has to survive it per request.
    """

    prob: float = 0.35
    scale: float = 12.0

    def service_factor(self, now_ms: float, rung_name: str,
                       batch_size: int) -> float:
        if not (self.active(now_ms) and self.applies_to(rung_name)):
            return 1.0
        if self._rng.random() >= self.prob:
            return 1.0
        return 1.0 + self.scale * (0.5 + 0.5 * self._rng.random())


@dataclass
class ThermalThrottle(FaultModel):
    """Thermal throttling: clocks ramp down, everything gets slower.

    The slowdown ramps linearly from 1x at window start to ``factor`` over
    ``ramp_ms`` and holds there until the window closes (heat soak, then a
    fan or duty-cycle cap). Only *measured* times slow down — the
    estimator still believes the cool-device numbers, which is exactly the
    drift :class:`repro.obs.DriftMonitor` exists to catch.
    """

    factor: float = 2.0
    ramp_ms: float = 0.0

    def service_factor(self, now_ms: float, rung_name: str,
                       batch_size: int) -> float:
        if not (self.active(now_ms) and self.applies_to(rung_name)):
            return 1.0
        if self.ramp_ms <= 0:
            return self.factor
        progress = min(1.0, (now_ms - self.start_ms) / self.ramp_ms)
        return 1.0 + (self.factor - 1.0) * progress


@dataclass
class RungFailure(FaultModel):
    """Hard rung failure: the TRN cannot run at all during the window.

    Models a rung whose weights fail to (re)load or whose kernels abort.
    Executing the rung raises
    :class:`repro.faults.RungFailureError`; a resilient engine treats
    that as a circuit-breaker failure and retries on a faster rung.
    """

    def fails(self, now_ms: float, rung_name: str) -> bool:
        return self.active(now_ms) and self.applies_to(rung_name)


@dataclass
class QueueSaturation(FaultModel):
    """Memory pressure: only ``factor`` of the queue capacity is usable.

    While active, the engine treats the bounded EDF queue as if its
    capacity were ``max(1, floor(capacity * factor))`` — arrivals beyond
    that are rejected as ``queue-full`` instead of silently growing the
    backlog.
    """

    factor: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("capacity factor must be in (0, 1]")

    def capacity_factor(self, now_ms: float) -> float:
        return self.factor if self.active(now_ms) else 1.0


@dataclass
class EstimatorBias(FaultModel):
    """Estimator miscalibration: the planner's latency model is wrong.

    Multiplies the noise-free estimate by ``factor`` while leaving the
    measured times untouched. ``factor < 1`` makes the planner
    optimistic — admission admits unmeetable requests and the batcher
    over-grows batches; ``factor > 1`` makes it pessimistic — capacity is
    thrown away. Either way the drift monitor should fire.
    """

    factor: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.factor <= 0:
            raise ValueError("bias factor must be positive")

    def estimate_factor(self, now_ms: float, rung_name: str) -> float:
        if self.active(now_ms) and self.applies_to(rung_name):
            return self.factor
        return 1.0
