"""Embedded-platform simulation: latency model, profiler, quantization.

This subpackage stands in for the paper's NVIDIA Jetson Xavier (inference
measurements) and Tesla K20m (training-time accounting). See DESIGN.md for
the calibration rationale. The latency model prices the fused kernels of
:func:`repro.nn.compile.fuse_kernels`; import the fusion rules from there.
"""

from .k20m import TrainingCostModel, k20m
from .latency import KernelCost, LatencyBreakdown, kernel_latency_ms, network_latency
from .profiles import DEVICE_PROFILES, agx_boosted, nano
from .profiler import LatencyTable, LayerRecord, profile_network
from .quantize import QuantizedNetwork, calibration_split, quantize_tensor
from .runtime import (
    MeasurementResult,
    ServiceTimeSampler,
    measure_latency,
    sample_runs,
)
from .spec import DeviceSpec, stable_seed
from .xavier import xavier

__all__ = [
    "DeviceSpec",
    "stable_seed",
    "xavier",
    "nano",
    "agx_boosted",
    "DEVICE_PROFILES",
    "k20m",
    "TrainingCostModel",
    "KernelCost",
    "LatencyBreakdown",
    "kernel_latency_ms",
    "network_latency",
    "LatencyTable",
    "LayerRecord",
    "profile_network",
    "MeasurementResult",
    "ServiceTimeSampler",
    "measure_latency",
    "sample_runs",
    "QuantizedNetwork",
    "calibration_split",
    "quantize_tensor",
]
