"""NetCut: deadline-aware TRN exploration (paper Algorithm 1).

For each of the N trained off-the-shelf networks, the cutpoint is advanced
from the top of the network until the latency *estimate* first meets the
deadline; only that single TRN per network is retrained and evaluated, and
the most accurate feasible TRN wins. With 7 base networks this retrains at
most 7 networks instead of the 148 blockwise candidates — the paper's 95%
reduction and 27× exploration-time speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.device.k20m import TrainingCostModel
from repro.nn.graph import Network
from repro.trim.search import Cutpoint, enumerate_blockwise

__all__ = ["NetCutCandidate", "NetCutResult", "run_netcut"]

#: ``retrain(base, cutpoint_or_None) -> (trn_network, accuracy)``
RetrainFn = Callable[[Network, Cutpoint | None], tuple[Network, float]]
#: ``measure(trn_network) -> measured latency in ms``
MeasureFn = Callable[[Network], float]


@dataclass
class NetCutCandidate:
    """The TRN Algorithm 1 proposes for one base network.

    ``trn`` is the retrained network the accuracy, measured latency and
    training cost were taken from (``None`` for an infeasible base), so
    the proposal ships without a second retrain.
    """

    base_name: str
    trn_name: str
    cutpoint: Cutpoint | None           # None = original network feasible as-is
    estimated_latency_ms: float
    accuracy: float
    measured_latency_ms: float | None = None
    train_hours: float = 0.0
    feasible: bool = True
    trn: Network | None = field(default=None, repr=False, compare=False)

    @property
    def blocks_removed(self) -> int:
        """Removed feature blocks (0 when the original network is kept)."""
        return self.cutpoint.blocks_removed if self.cutpoint else 0


@dataclass
class NetCutResult:
    """Full outcome of one NetCut run."""

    deadline_ms: float
    estimator_name: str
    candidates: list[NetCutCandidate] = field(default_factory=list)

    @property
    def best(self) -> NetCutCandidate:
        """The winning TRN: highest accuracy among feasible candidates."""
        feasible = [c for c in self.candidates if c.feasible]
        if not feasible:
            raise RuntimeError("no candidate meets the deadline")
        return max(feasible, key=lambda c: c.accuracy)

    @property
    def best_measured(self) -> NetCutCandidate:
        """The deployable TRN: highest accuracy among feasible candidates
        whose *measured* latency meets the deadline.

        Estimates can put :attr:`best` just over the deadline; candidates
        run without a ``measure`` callback have no measurement and never
        qualify.
        """
        validated = [c for c in self.candidates
                     if c.feasible and c.measured_latency_ms is not None
                     and c.measured_latency_ms <= self.deadline_ms]
        if not validated:
            raise RuntimeError(f"no candidate's measured latency meets "
                               f"{self.deadline_ms} ms")
        return max(validated, key=lambda c: c.accuracy)

    @property
    def networks_trained(self) -> int:
        """How many networks Algorithm 1 retrained."""
        return sum(1 for c in self.candidates if c.feasible)


def run_netcut(bases: list[Network], deadline_ms: float, estimator,
               retrain: RetrainFn, measure: MeasureFn | None = None,
               base_latencies_ms: dict[str, float] | None = None,
               cost_model: TrainingCostModel | None = None) -> NetCutResult:
    """Execute Algorithm 1.

    Parameters
    ----------
    bases:
        The N pretrained, built off-the-shelf networks.
    deadline_ms:
        The application deadline (0.9 ms for the robotic hand).
    estimator:
        An adapter with ``estimate(base, cutpoint_or_None) -> ms`` (see
        :mod:`repro.netcut.adapters`).
    retrain:
        Callback that retrains a TRN and returns ``(trn, accuracy)``.
        Called exactly once per feasible base network (the point of
        NetCut); the candidate keeps the returned ``trn``, which is what
        :func:`repro.netcut.deploy` ships.
    measure:
        Optional ground-truth measurement of the retrained TRN, recorded
        for the Fig. 10 analysis and :attr:`NetCutResult.best_measured`.
    base_latencies_ms:
        Measured latencies of the original networks (line 3 of
        Algorithm 1). When omitted, the estimator's ``cutpoint=None``
        estimate is used.
    cost_model:
        Optional training-cost model for exploration-time accounting.
    """
    result = NetCutResult(deadline_ms, getattr(estimator, "name", "custom"))
    for base in bases:
        cuts = enumerate_blockwise(base)
        if base_latencies_ms and base.name in base_latencies_ms:
            est = base_latencies_ms[base.name]
        else:
            est = estimator.estimate(base, None)
        cut_index = 0
        chosen: Cutpoint | None = None
        feasible = True
        while est > deadline_ms:                 # lines 5-9 of Algorithm 1
            if cut_index >= len(cuts):
                feasible = False                 # even the stem misses
                break
            chosen = cuts[cut_index]
            est = estimator.estimate(base, chosen)
            cut_index += 1
        if not feasible:
            result.candidates.append(NetCutCandidate(
                base.name, f"{base.name}/infeasible", chosen, est,
                accuracy=float("nan"), feasible=False))
            continue
        trn, accuracy = retrain(base, chosen)    # line 10
        candidate = NetCutCandidate(base.name, trn.name, chosen, est,
                                    accuracy, trn=trn)
        if measure is not None:
            candidate.measured_latency_ms = measure(trn)
        if cost_model is not None:
            candidate.train_hours = cost_model.train_hours(trn)
        result.candidates.append(candidate)
    return result
