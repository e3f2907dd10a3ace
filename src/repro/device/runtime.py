"""Simulated latency *measurement*: the paper's warm-up + averaging protocol.

The paper reports inference latency on the Jetson Xavier as the average of
800 runs after 200 warm-up runs. This module layers run-to-run noise, rare
stragglers and a warm-up ramp on top of the deterministic model in
:mod:`repro.device.latency`, and implements exactly that protocol, so the
"ground truth" the estimators are scored against has realistic measurement
character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.graph import Network

from .latency import LatencyBreakdown, network_latency
from .spec import DeviceSpec, stable_seed

__all__ = ["MeasurementResult", "sample_runs", "measure_latency",
           "ServiceTimeSampler"]


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a latency measurement session."""

    network: str
    device: str
    mean_ms: float
    std_ms: float
    runs: int
    warmup: int

    def __str__(self) -> str:
        return (f"{self.network} on {self.device}: "
                f"{self.mean_ms:.4f} ± {self.std_ms:.4f} ms "
                f"({self.runs} runs, {self.warmup} warm-up)")


def sample_runs(base_ms: float, n: int, spec: DeviceSpec,
                rng: np.random.Generator,
                start_run: int = 0) -> np.ndarray:
    """Sample ``n`` consecutive run latencies starting at ``start_run``.

    Run ``k`` carries a warm-up multiplier
    ``1 + warmup_factor * exp(-k / warmup_decay_runs)``, multiplicative
    Gaussian noise, and an occasional straggler spike.
    """
    k = np.arange(start_run, start_run + n)
    warm = 1.0 + spec.warmup_factor * np.exp(-k / spec.warmup_decay_runs)
    noise = rng.normal(1.0, spec.noise_std, size=n)
    straggler = np.where(rng.random(n) < spec.straggler_prob,
                         1.0 + spec.straggler_scale * rng.random(n), 1.0)
    return base_ms * warm * np.clip(noise, 0.5, None) * straggler


def measure_latency(net: Network, spec: DeviceSpec,
                    rng: np.random.Generator | int | None = None,
                    warmup: int = 200, runs: int = 800,
                    fused: bool = True, precision: str = "fp32",
                    breakdown: LatencyBreakdown | None = None
                    ) -> MeasurementResult:
    """Measure a network with the paper's protocol (200 warm-up + 800 runs).

    A precomputed ``breakdown`` can be passed to avoid re-deriving the
    deterministic model when measuring many variants of the same network.
    The RNG defaults to a seed derived from the network name so repeated
    measurements of the same network are reproducible but different
    networks see independent noise.
    """
    if rng is None:
        rng = stable_seed(net.name, spec.name)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if breakdown is None:
        breakdown = network_latency(net, spec, fused=fused, precision=precision)
    base = breakdown.total_ms
    _ = sample_runs(base, warmup, spec, rng, start_run=0)
    samples = sample_runs(base, runs, spec, rng, start_run=warmup)
    return MeasurementResult(net.name, spec.name,
                             float(samples.mean()), float(samples.std()),
                             runs, warmup)


class ServiceTimeSampler:
    """Per-request measurement hook for the serving stack.

    Where :func:`measure_latency` aggregates a whole benchmarking session
    into one mean, a server needs the latency of *each individual* batched
    inference, with the device's warm-up ramp and straggler behaviour
    carried across consecutive requests. This class keeps a persistent run
    counter (so the first requests after a cold start really are slower),
    caches the deterministic per-batch-size baseline, and hands out one
    noisy sample per call.
    """

    def __init__(self, net: Network, spec: DeviceSpec,
                 rng: np.random.Generator | int = 0,
                 fused: bool = True, precision: str = "fp32"):
        self.net = net
        self.spec = spec
        self.fused = fused
        self.precision = precision
        self._base_ms: dict[int, float] = {}
        self.reseed(rng)

    def reseed(self, rng: np.random.Generator | int) -> None:
        """Restart from a cold device on a new RNG, keeping the latency table.

        The run counter goes back to 0, so the draws that follow equal a
        fresh sampler's seeded ``rng``. The per-batch baselines depend only
        on the network and the device, so they survive.
        """
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self._rng = rng
        self._runs = 0

    @property
    def runs(self) -> int:
        """How many inferences this sampler has timed so far."""
        return self._runs

    def base_ms(self, batch_size: int = 1) -> float:
        """Noise-free latency of one batched inference (cached)."""
        if batch_size not in self._base_ms:
            self._base_ms[batch_size] = network_latency(
                self.net, self.spec, fused=self.fused,
                precision=self.precision, batch_size=batch_size).total_ms
        return self._base_ms[batch_size]

    def sample_ms(self, batch_size: int = 1) -> float:
        """Draw the measured latency of the next batched inference.

        Bit for bit one run of :func:`sample_runs` at the current run
        index, drawn as scalars because a size-1 array per request costs
        more than the draw: the same RNG calls in the same order (the
        spike is drawn even without a straggler), and the warm-up factor
        from ``np.exp``, whose last bit ``math.exp`` does not always match.
        """
        spec, rng = self.spec, self._rng
        base = float(self.base_ms(batch_size))
        noise = rng.normal(1.0, spec.noise_std)
        straggles = rng.random() < spec.straggler_prob
        spike = rng.random()
        warm = 1.0 + spec.warmup_factor * float(
            np.exp(-self._runs / spec.warmup_decay_runs))
        self._runs += 1
        straggler = 1.0 + spec.straggler_scale * spike if straggles else 1.0
        return base * warm * max(noise, 0.5) * straggler

    def warm_up(self, runs: int = 50) -> None:
        """Advance past the cold-start ramp without recording samples."""
        self._runs += int(runs)
