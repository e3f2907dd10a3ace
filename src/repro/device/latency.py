"""Analytic per-kernel latency model.

Each fused kernel's latency follows a roofline with launch overhead and an
occupancy ramp:

    t = launch + max(flops / (peak · occ(flops)),  bytes / bandwidth)

where ``occ(flops) = 1 − exp(−flops / occupancy_flops)`` penalises small
kernels. Early CNN layers (large spatial extent, few channels) tend to be
memory-bound and late layers compute-bound, so latency as a function of the
cutpoint is mildly non-linear — the behaviour the paper's RBF-SVR estimator
captures and its linear-regression baseline does not.

The model is *deterministic*; measurement noise and warm-up effects are
layered on top by :mod:`repro.device.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.compile import KernelGroup, fuse_kernels
from repro.nn.graph import Network

from .spec import DeviceSpec

__all__ = ["KernelCost", "LatencyBreakdown", "kernel_latency_ms",
           "network_latency"]


@dataclass(frozen=True)
class KernelCost:
    """Cost summary of one fused kernel."""

    anchor: str
    node_names: tuple[str, ...]
    flops: int
    bytes_moved: int
    latency_ms: float


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-kernel latencies of a network on a device."""

    network: str
    device: str
    kernels: tuple[KernelCost, ...]

    @property
    def total_ms(self) -> float:
        """End-to-end (noise-free) inference latency."""
        return sum(k.latency_ms for k in self.kernels)

    def kernels_for_nodes(self, names: set[str]) -> list[KernelCost]:
        """Kernels whose anchor node belongs to ``names``."""
        return [k for k in self.kernels if k.anchor in names]


def _dtype_bytes(precision: str) -> float:
    if precision == "fp32":
        return 4.0
    if precision == "fp16":
        return 2.0
    if precision == "int8":
        return 1.0
    raise ValueError(f"unknown precision {precision!r}")


def kernel_latency_ms(flops: float, bytes_moved: float, spec: DeviceSpec,
                      precision: str = "fp32") -> float:
    """Latency of a single kernel under the roofline-with-occupancy model."""
    _dtype_bytes(precision)  # validate the precision name
    peak = spec.peak_gflops * 1e9
    if precision == "int8":
        peak *= spec.int8_speedup
    occupancy = 1.0 - np.exp(-max(flops, 1.0) / spec.occupancy_flops)
    t_compute = flops / (peak * max(occupancy, 1e-6))
    t_memory = bytes_moved / (spec.bandwidth_gbps * 1e9)
    return spec.launch_overhead_ms() + 1e3 * max(t_compute, t_memory)


def _group_cost(net: Network, group: KernelGroup, precision: str,
                weight_cache_factor: float = 1.0,
                batch_size: int = 1) -> tuple[int, int]:
    """(flops, bytes) of a fused kernel group.

    The group reads its external inputs and weights and writes its final
    output; intermediate tensors within the group stay on-chip (that is the
    point of fusion). FLOPs of all member nodes are summed. Weight traffic
    is discounted by ``weight_cache_factor`` (cache residency).

    ``batch_size`` scales arithmetic and activation traffic; weights are
    read once per kernel regardless of batch, which (together with the
    amortised launch overhead and the occupancy ramp) is why micro-batching
    raises throughput on launch-bound embedded GPUs.
    """
    db = _dtype_bytes(precision)
    member = set(group.node_names)
    flops = 0
    weight_elems = 0
    in_elems = 0
    for name in group.node_names:
        node = net.nodes[name]
        flops += node.layer.flops(net.in_shapes(name))
        weight_elems += node.layer.param_count()
        for dep in node.inputs:
            if dep not in member:
                in_elems += int(np.prod(net.shape_of(dep)))
    out_elems = int(np.prod(net.shape_of(group.node_names[-1])))
    bytes_moved = int(db * batch_size * (in_elems + out_elems)
                      + db * weight_cache_factor * weight_elems)
    return batch_size * flops, bytes_moved


def network_latency(net: Network, spec: DeviceSpec, fused: bool = True,
                    precision: str = "fp32",
                    batch_size: int = 1) -> LatencyBreakdown:
    """Noise-free latency breakdown of a built network on a device.

    ``batch_size`` models one batched inference: each kernel processes the
    whole batch per launch, so latency grows sub-linearly in the batch
    (launch overhead and weight traffic are paid once, occupancy improves).
    """
    if not net.built:
        raise RuntimeError(f"network {net.name!r} must be built first")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    kernels = []
    for group in fuse_kernels(net, enabled=fused):
        flops, bytes_moved = _group_cost(net, group, precision,
                                         spec.weight_cache_factor,
                                         batch_size)
        ms = kernel_latency_ms(flops, bytes_moved, spec, precision)
        kernels.append(KernelCost(group.anchor, tuple(group.node_names),
                                  flops, bytes_moved, ms))
    return LatencyBreakdown(net.name, spec.name, tuple(kernels))
