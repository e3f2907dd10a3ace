"""Device-agnostic network features for the analytical latency estimator.

The paper (§V-B2): "for a given network, the original network's latency,
the total number of: floating-point operations, parameters, layers, and
filter sizes will yield an accurate enough model to estimate the inference
latency." These five quantities are exactly what this module extracts. The
coarse granularity is deliberate — the paper contrasts it with Edgent's
per-layer-type regression, noting that a whole-network model stays valid
under optimizations like layer fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.graph import Network
from repro.nn.layers import WEIGHTED_TYPES, Conv2D, Dense, DepthwiseConv2D

__all__ = ["FEATURE_NAMES", "NetworkFeatures", "extract_features"]

#: Order of the feature vector components.
FEATURE_NAMES = ["base_latency_ms", "total_flops", "total_params",
                 "weighted_layers", "total_filter_size"]


@dataclass(frozen=True)
class NetworkFeatures:
    """The analytical estimator's feature vector for one (trimmed) network."""

    name: str
    base_latency_ms: float
    total_flops: int
    total_params: int
    weighted_layers: int
    total_filter_size: int

    def as_array(self) -> np.ndarray:
        """The feature vector in :data:`FEATURE_NAMES` order."""
        return np.array([self.base_latency_ms, self.total_flops,
                         self.total_params, self.weighted_layers,
                         self.total_filter_size], dtype=np.float64)


def _filter_size(layer) -> int:
    """Total filter entries of a weighted layer (kh·kw·filters flavour)."""
    if isinstance(layer, Conv2D):
        return layer.kernel[0] * layer.kernel[1] * layer.filters
    if isinstance(layer, DepthwiseConv2D):
        return layer.kernel[0] * layer.kernel[1]
    if isinstance(layer, Dense):
        return layer.units
    return 0


def extract_features(net: Network, base_latency_ms: float) -> NetworkFeatures:
    """Extract the five paper features from a built network.

    ``base_latency_ms`` is the measured latency of the *original* network
    the TRN was derived from (constant across all TRNs of one base network;
    it is what lets a single global model serve all seven architectures).
    """
    weighted = 0
    filter_size = 0
    for node in net.nodes.values():
        if isinstance(node.layer, WEIGHTED_TYPES):
            weighted += 1
            filter_size += _filter_size(node.layer)
    return NetworkFeatures(
        name=net.name,
        base_latency_ms=float(base_latency_ms),
        total_flops=net.total_flops(),
        total_params=net.total_params(),
        weighted_layers=weighted,
        total_filter_size=filter_size,
    )
