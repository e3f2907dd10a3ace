"""BranchyNet-style early exiting (related work, §II).

BranchyNet (Teerapittayanon et al., 2016) attaches classifier heads at
intermediate points of a *single* network; at inference time a sample exits
at the first head whose prediction is confident enough, trading accuracy
for average latency at runtime. The NetCut paper positions layer removal as
complementary: TRNs are *static* trims selected across *multiple*
architectures at design time.

This module implements early exiting on top of the same substrates so the
two approaches can be compared head-to-head (see
``benchmarks/test_ext_related_work.py``): a :class:`BranchyNetwork` shares
one trunk with per-exit heads trained on the trunk's frozen features, and
its runtime semantics (entropy-threshold exiting) give an
average-latency/accuracy curve parameterised by the confidence threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.latency import network_latency
from repro.device.spec import DeviceSpec
from repro.metrics.angular import mean_angular_similarity
from repro.nn.graph import Network
from repro.train.features import record_gap_features
from repro.train.trainer import train_head_on_features
from repro.trim.blocks import block_boundaries
from repro.trim.removal import build_trn

__all__ = ["Exit", "BranchyNetwork", "build_branchy"]


def _entropy(p: np.ndarray) -> np.ndarray:
    return -np.sum(p * np.log(p + 1e-12), axis=-1)


@dataclass
class Exit:
    """One early-exit point: where it taps the trunk and its trained head."""

    node: str
    head: Network
    prefix_latency_ms: float
    head_latency_ms: float

    @property
    def exit_latency_ms(self) -> float:
        """Latency when a sample leaves through this exit."""
        return self.prefix_latency_ms + self.head_latency_ms


class BranchyNetwork:
    """A trunk network with early-exit heads and threshold-based routing."""

    def __init__(self, trunk: Network, exits: list[Exit]):
        if not exits:
            raise ValueError("need at least one exit")
        self.trunk = trunk
        self.exits = exits
        self.name = f"{trunk.name}[branchy x{len(exits)}]"

    def exit_predictions(self, x: np.ndarray,
                         batch_size: int = 128) -> list[np.ndarray]:
        """Per-exit predictions for every sample (one trunk pass)."""
        feats = record_gap_features(self.trunk, x,
                                    [e.node for e in self.exits],
                                    batch_size)
        return [e.head.forward(feats[e.node]) for e in self.exits]

    def route(self, x: np.ndarray, entropy_threshold: float
              ) -> tuple[np.ndarray, np.ndarray]:
        """Early-exit inference.

        Each sample leaves through the first exit whose prediction entropy
        falls below ``entropy_threshold``; samples that never qualify leave
        through the last exit. Returns ``(predictions, exit_indices)``.
        """
        per_exit = self.exit_predictions(x)
        n = x.shape[0]
        chosen = np.full(n, len(self.exits) - 1, dtype=int)
        preds = per_exit[-1].copy()
        undecided = np.ones(n, dtype=bool)
        for i, p in enumerate(per_exit[:-1]):
            confident = undecided & (_entropy(p) < entropy_threshold)
            chosen[confident] = i
            preds[confident] = p[confident]
            undecided &= ~confident
        return preds, chosen

    def evaluate(self, x: np.ndarray, y: np.ndarray,
                 entropy_threshold: float) -> tuple[float, float]:
        """(accuracy, mean latency in ms) at one confidence threshold."""
        preds, chosen = self.route(x, entropy_threshold)
        accuracy = mean_angular_similarity(preds, y)
        latency = float(np.mean(
            [self.exits[i].exit_latency_ms for i in chosen]))
        return accuracy, latency

    def tradeoff_curve(self, x: np.ndarray, y: np.ndarray,
                       thresholds: np.ndarray
                       ) -> list[tuple[float, float, float]]:
        """(threshold, accuracy, mean latency) for each threshold."""
        return [(float(t), *self.evaluate(x, y, float(t)))
                for t in thresholds]


def build_branchy(base: Network, device: DeviceSpec,
                  train_x: np.ndarray, train_y: np.ndarray,
                  exit_blocks: list[int] | None = None,
                  num_classes: int = 5, head_epochs: int = 50,
                  rng_seed: int = 0) -> BranchyNetwork:
    """Attach and train early exits on a pretrained base network.

    ``exit_blocks`` are indices into the base's feature blocks (default:
    quartile positions plus the final block). Exit heads use the same
    GAP + 2×FC/ReLU + FC/Softmax structure as TRN heads, trained on the
    trunk's frozen features. Exit latencies come from the device model:
    the trunk prefix up to the exit node plus that exit's head.
    """
    bounds = block_boundaries(base)
    if exit_blocks is None:
        quartiles = [len(bounds) // 4, len(bounds) // 2,
                     3 * len(bounds) // 4, len(bounds) - 1]
        exit_blocks = sorted(set(max(0, q) for q in quartiles))
    nodes = [bounds[i].output_node for i in exit_blocks]

    feats = record_gap_features(base, train_x, nodes)
    exits = []
    for node in nodes:
        head = train_head_on_features(feats[node], train_y, num_classes,
                                      epochs=head_epochs,
                                      rng=rng_seed).network
        # latency of the prefix + this head == latency of the equivalent TRN
        trn = build_trn(base, node, num_classes, rng=rng_seed)
        trn_ms = network_latency(trn, device).total_ms
        prefix_ms = network_latency(base.subgraph(node), device).total_ms
        exits.append(Exit(node, head, prefix_ms, trn_ms - prefix_ms))
    return BranchyNetwork(base, exits)
