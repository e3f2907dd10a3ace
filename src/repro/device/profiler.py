"""CUDA-event-style per-layer profiler.

The paper's profiler-based estimator builds one per-layer latency table per
original network by wrapping every layer in CUDA events. Recording an event
is not free: the paper observes that "in all cases, the summation of layers
is slightly more than the actual measured inference delay", which is why its
estimator works with the *ratio* of removed-layer time to total layer time
rather than raw sums. This module reproduces that artefact: every recorded
kernel latency includes the event overhead, so the table total exceeds the
end-to-end measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.graph import Network

from .latency import network_latency
from .runtime import measure_latency
from .spec import DeviceSpec, stable_seed

__all__ = ["LayerRecord", "LatencyTable", "profile_network"]


@dataclass(frozen=True)
class LayerRecord:
    """One row of a profiling table: a fused kernel and its recorded time."""

    anchor: str
    node_names: tuple[str, ...]
    recorded_ms: float


@dataclass(frozen=True)
class LatencyTable:
    """Per-layer profile of one network plus its end-to-end measurement."""

    network: str
    device: str
    records: tuple[LayerRecord, ...]
    end_to_end_ms: float

    @property
    def recorded_total_ms(self) -> float:
        """Sum of per-layer recorded latencies (exceeds ``end_to_end_ms``)."""
        return sum(r.recorded_ms for r in self.records)

    def recorded_for_nodes(self, names: set[str]) -> float:
        """Total recorded time of kernels anchored at the given nodes."""
        return sum(r.recorded_ms for r in self.records if r.anchor in names)

    def describe(self, top: int | None = None) -> str:
        """Human-readable per-layer table (what ``repro profile`` prints).

        One row per recorded kernel in execution order — anchor node,
        fused member count, recorded latency and its share of the recorded
        total — followed by the total-vs-end-to-end line that motivates
        the paper's ratio formula. ``top`` keeps only the slowest kernels.
        """
        total = self.recorded_total_ms
        rows = list(self.records)
        if top is not None:
            rows = sorted(rows, key=lambda r: -r.recorded_ms)[:top]
        lines = [f"{self.network} on {self.device}",
                 f"{'kernel (anchor)':28s} {'fused':>5s} "
                 f"{'recorded_ms':>12s} {'share':>7s}"]
        for r in rows:
            lines.append(f"{r.anchor:28s} {len(r.node_names):>5d} "
                         f"{r.recorded_ms:>12.5f} "
                         f"{100 * r.recorded_ms / total:>6.2f}%")
        lines.append(f"recorded total {total:.4f} ms  >  end-to-end "
                     f"{self.end_to_end_ms:.4f} ms "
                     f"(event overhead x{len(self.records)} kernels; "
                     "the ratio formula cancels it)")
        return "\n".join(lines)


def profile_network(net: Network, spec: DeviceSpec,
                    rng: np.random.Generator | int | None = None,
                    profile_runs: int = 100) -> LatencyTable:
    """Profile a network: per-kernel table + end-to-end measurement.

    Each kernel's recorded latency is its true model latency plus the
    CUDA-event overhead, averaged over ``profile_runs`` noisy runs.
    """
    if rng is None:
        rng = stable_seed("profile", net.name, spec.name)
    rng = np.random.default_rng(rng)
    breakdown = network_latency(net, spec)
    records = []
    overhead = spec.event_overhead_ms()
    for kernel in breakdown.kernels:
        noise = rng.normal(1.0, spec.noise_std, size=profile_runs).mean()
        recorded = (kernel.latency_ms + overhead) * max(noise, 0.5)
        records.append(LayerRecord(kernel.anchor, kernel.node_names,
                                   float(recorded)))
    measured = measure_latency(net, spec, rng=rng, breakdown=breakdown)
    return LatencyTable(net.name, spec.name, tuple(records),
                        measured.mean_ms)
