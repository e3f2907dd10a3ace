"""Blockwise exhaustive exploration — the baseline NetCut accelerates.

This retrains and measures *every* blockwise TRN of every base network
(the paper's 148 candidates), producing the ground-truth trade-off data
behind Figures 4-7 and the training-time totals behind the 27× speedup
claim. Retraining is :func:`repro.train.retrain`, the paper's
frozen-feature phase, made fast by recording the GAP features of every
cutpoint in a single dataset pass per base network.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.data.synthetic import Dataset
from repro.device.k20m import TrainingCostModel
from repro.device.runtime import measure_latency
from repro.device.spec import DeviceSpec
from repro.nn.graph import Network
from repro.train.trainer import retrain
from repro.trim.search import (
    Cutpoint,
    enumerate_blockwise,
    enumerate_iterative,
    transfer_cut,
)

__all__ = ["TRNRecord", "Exploration", "explore_cutpoints", "explore_blockwise"]


@dataclass(frozen=True)
class TRNRecord:
    """One explored TRN: identity, cost and quality."""

    base_name: str
    trn_name: str
    cut_node: str
    blocks_removed: int | None
    layers_removed: int
    latency_ms: float
    accuracy: float
    train_hours: float
    feature_dim: int
    flops: int
    params: int


@dataclass
class Exploration:
    """A set of explored TRNs with query helpers and JSON persistence."""

    records: list[TRNRecord] = field(default_factory=list)

    def for_base(self, base_name: str) -> list[TRNRecord]:
        """Records of one base network, least-removed first."""
        rows = [r for r in self.records if r.base_name == base_name]
        return sorted(rows, key=lambda r: r.layers_removed)

    def originals(self) -> list[TRNRecord]:
        """The 0-blocks-removed record of every base network."""
        return [r for r in self.records if r.blocks_removed == 0]

    @property
    def networks_trained(self) -> int:
        return len(self.records)

    @property
    def total_train_hours(self) -> float:
        return sum(r.train_hours for r in self.records)

    def save(self, path: str) -> None:
        """Serialise to JSON."""
        with open(path, "w") as fh:
            json.dump([asdict(r) for r in self.records], fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "Exploration":
        """Load a previously saved exploration."""
        with open(path) as fh:
            rows = json.load(fh)
        return cls([TRNRecord(**row) for row in rows])


def explore_cutpoints(base: Network, cuts: list[Cutpoint],
                      train_data: Dataset, test_data: Dataset,
                      device: DeviceSpec,
                      cost_model: TrainingCostModel | None = None,
                      head_epochs: int = 50,
                      rng_seed: int = 0) -> list[TRNRecord]:
    """Retrain and measure a TRN for every cutpoint of one base network."""
    trns = retrain(base, [c.cut_node for c in cuts], train_data, test_data,
                   head_epochs, rng_seed)
    records = []
    for cut, (trn, accuracy) in zip(cuts, trns):
        records.append(TRNRecord(
            base_name=base.name, trn_name=trn.name, cut_node=cut.cut_node,
            blocks_removed=cut.blocks_removed,
            layers_removed=cut.layers_removed,
            latency_ms=measure_latency(trn, device).mean_ms,
            accuracy=accuracy,
            train_hours=cost_model.train_hours(trn) if cost_model else 0.0,
            feature_dim=trn.shape_of(cut.cut_node)[-1],
            flops=trn.total_flops(), params=trn.total_params()))
    return records


def explore_blockwise(bases: list[Network], train_data: Dataset,
                      test_data: Dataset, device: DeviceSpec,
                      cost_model: TrainingCostModel | None = None,
                      head_epochs: int = 50, include_original: bool = True,
                      iterative: bool = False,
                      rng_seed: int = 0) -> Exploration:
    """Exhaustively explore all (blockwise or iterative) cutpoints.

    With ``include_original=True`` the untrimmed transfer model of each base
    network is explored too (its record has ``blocks_removed=0``) — these
    are the off-the-shelf points of Fig. 1.
    """
    exploration = Exploration()
    for base in bases:
        cuts = (enumerate_iterative(base) if iterative
                else enumerate_blockwise(base))
        if include_original:
            # the degenerate cut keeping every feature block
            cuts = [Cutpoint(base.name, transfer_cut(base), 0, 0), *cuts]
        exploration.records.extend(explore_cutpoints(
            base, cuts, train_data, test_data, device, cost_model,
            head_epochs, rng_seed=rng_seed))
    return exploration
