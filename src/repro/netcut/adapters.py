"""Latency-estimator adapters for the NetCut algorithm.

Algorithm 1 only needs one operation from an estimator: *given a base
network and a cutpoint, predict the TRN's inference latency*. The two
estimation approaches of the paper plug in through a common interface:

- :class:`ProfilerAdapter` profiles each base network once (per-layer CUDA-
  event-style tables) and applies the ratio formula.
- :class:`AnalyticalAdapter` extracts device-agnostic features from the
  candidate TRN and queries a fitted ε-SVR (or the linear baseline).
- :class:`OracleAdapter` returns the noise-free device-model latency; it is
  not part of the paper and exists for testing and for quantifying
  estimator headroom in the ablations.
"""

from __future__ import annotations

from repro.device.latency import network_latency
from repro.device.profiler import profile_network
from repro.device.spec import DeviceSpec
from repro.estimators.analytical import AnalyticalEstimator
from repro.estimators.features import extract_features
from repro.estimators.profile_based import ProfilerEstimator
from repro.nn.graph import Network
from repro.trim.removal import build_trn, removed_node_set
from repro.trim.search import Cutpoint, transfer_cut

__all__ = ["ProfilerAdapter", "AnalyticalAdapter", "OracleAdapter"]


class ProfilerAdapter:
    """Profiler-based estimation: one table per base network, built lazily.

    The table is profiled on the *transfer model* of the base network (all
    feature blocks kept, the new GAP/FC head attached) rather than on the
    pretraining network, so the head kernels in the table are exactly the
    ones every TRN will carry.
    """

    name = "profiler"

    def __init__(self, device: DeviceSpec, num_classes: int = 5):
        self.device = device
        self.num_classes = num_classes
        self._estimators: dict[str, ProfilerEstimator] = {}

    def estimator_for(self, base: Network) -> ProfilerEstimator:
        """The ratio estimator over ``base``'s table (profiled on first
        use)."""
        if base.name not in self._estimators:
            transfer = build_trn(base, transfer_cut(base), self.num_classes,
                                 name=base.name)
            table = profile_network(transfer, self.device)
            self._estimators[base.name] = ProfilerEstimator(transfer, table)
        return self._estimators[base.name]

    def estimate(self, base: Network, cutpoint: Cutpoint | None) -> float:
        """Estimated TRN latency in ms (``cutpoint=None`` = original net)."""
        estimator = self.estimator_for(base)
        if cutpoint is None:
            return estimator.table.end_to_end_ms
        return estimator.estimate(removed_node_set(base, cutpoint.cut_node))

    @property
    def tables_built(self) -> int:
        """How many per-network profiling tables exist so far."""
        return len(self._estimators)


class AnalyticalAdapter:
    """Analytical estimation: a fitted global model over network features."""

    def __init__(self, model: AnalyticalEstimator,
                 base_latencies_ms: dict[str, float],
                 num_classes: int = 5):
        """``base_latencies_ms`` maps base-network name to its measured
        latency (the first of the five paper features)."""
        self.model = model
        self.base_latencies_ms = dict(base_latencies_ms)
        self.num_classes = num_classes
        self.name = ("analytical" if getattr(model, "kernel", "rbf") != "linear-ols"
                     else "linear")

    def estimate(self, base: Network, cutpoint: Cutpoint | None) -> float:
        if base.name not in self.base_latencies_ms:
            raise KeyError(f"no base latency recorded for {base.name!r}")
        base_ms = self.base_latencies_ms[base.name]
        if cutpoint is None:
            return base_ms
        trn = build_trn(base, cutpoint.cut_node, self.num_classes)
        return self.model.predict_one(extract_features(trn, base_ms))


class OracleAdapter:
    """Noise-free device-model latency (testing / ablation only)."""

    name = "oracle"

    def __init__(self, device: DeviceSpec, num_classes: int = 5):
        self.device = device
        self.num_classes = num_classes

    def estimate(self, base: Network, cutpoint: Cutpoint | None) -> float:
        """``cutpoint=None`` prices the transfer model, as the other
        adapters do."""
        trn = build_trn(base, transfer_cut(base, cutpoint), self.num_classes)
        return network_latency(trn, self.device).total_ms
