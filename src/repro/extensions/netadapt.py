"""NetAdapt-style iterative channel pruning (related work, §II).

NetAdapt (Yang et al., 2018) adapts a *single* pretrained network to a
latency budget: every iteration it generates one candidate per prunable
layer (removing just enough of that layer's filters to save a fixed latency
step), short-fine-tunes each candidate, keeps the best, and repeats until
the budget is met. The NetCut paper's critique is the exploration cost —
each iteration retrains as many candidates as there are layers — which this
implementation reproduces and accounts for in simulated GPU-hours, so the
comparison benchmark can quantify it against NetCut's one-TRN-per-network
cost on the same task.

Every non-head convolution, the stem included, is a candidate layer, and
candidates are built by :func:`repro.trim.prune_channels`, the surgery the
filter-prune and HALP ladder builders share. So NetAdapt runs on any network
whose convolutions that surgery accepts: chains such as MobileNetV1 (the
network NetAdapt targeted) and concatenating DAGs, but not a network with a
conv that feeds a residual ``Add``. Pruning propagates through batch norm,
activations and depthwise convolutions into the next full convolution's (or
the head's) input dimension. The short fine-tune is approximated by
retraining the transfer head on the pruned features with
:func:`repro.train.retrain` — the same fast frozen-feature protocol the
rest of this repository uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import Dataset
from repro.device.k20m import TrainingCostModel
from repro.device.latency import network_latency
from repro.device.spec import DeviceSpec
from repro.nn.graph import Network
from repro.nn.layers import Conv2D
from repro.train.trainer import retrain
from repro.trim import prune_channels, transfer_cut

__all__ = ["NetAdaptConfig", "NetAdaptResult", "run_netadapt"]


def _channel_saliency(conv: Conv2D) -> np.ndarray:
    """L2 norm of each output channel's filter (magnitude pruning)."""
    w = conv.params["w"].value
    return np.sqrt(np.sum(w * w, axis=(0, 1, 2)))


@dataclass(frozen=True)
class NetAdaptConfig:
    """Hyper-parameters of the simplified NetAdapt loop."""

    step_ms: float = 0.02          # latency reduction per iteration
    min_channels: int = 2
    head_epochs_short: int = 15    # the per-candidate short fine-tune
    head_epochs_final: int = 50    # the final long fine-tune
    seed: int = 0


@dataclass
class IterationRecord:
    """One NetAdapt iteration: what was pruned and what it achieved."""

    iteration: int
    pruned_layer: str
    channels_left: int
    latency_ms: float
    proxy_accuracy: float
    candidates_evaluated: int


@dataclass
class NetAdaptResult:
    """Outcome of a NetAdapt run."""

    network: Network
    accuracy: float
    latency_ms: float
    history: list[IterationRecord] = field(default_factory=list)
    candidates_trained: int = 0
    train_hours: float = 0.0


def _prune_smallest(net: Network, conv: str, order: np.ndarray,
                    n_remove: int,
                    device: DeviceSpec) -> tuple[Network, float]:
    """``net`` without the first ``n_remove`` channels of ``order`` in
    ``conv``, and its model latency on ``device``."""
    trial = prune_channels(net, {conv: np.sort(order[n_remove:])},
                           name=net.name)
    return trial, network_latency(trial, device).total_ms


def _retrain(net: Network, train: Dataset, test: Dataset, epochs: int,
             seed: int) -> tuple[Network, float]:
    """The transfer head retrained on ``net``'s pruned features: the TRN
    carrying it, under ``net``'s name, and its accuracy."""
    trn, accuracy = next(retrain(net, [transfer_cut(net)], train, test,
                                 epochs, seed))
    trn.name = net.name
    return trn, accuracy


def run_netadapt(net: Network, budget_ms: float, device: DeviceSpec,
                 train_x: np.ndarray, train_y: np.ndarray,
                 test_x: np.ndarray, test_y: np.ndarray,
                 config: NetAdaptConfig = NetAdaptConfig(),
                 cost_model: TrainingCostModel | None = None,
                 max_iterations: int = 60) -> NetAdaptResult:
    """Adapt ``net`` (a built transfer model) to ``budget_ms``.

    The network is modified on a working copy; the input network is left
    untouched. ``result.network`` carries the head of the final long
    fine-tune, whose test accuracy is ``result.accuracy``. Raises
    ``RuntimeError`` if the budget cannot be reached before every layer
    hits ``min_channels``.
    """
    train, test = Dataset(train_x, train_y, []), Dataset(test_x, test_y, [])
    work = net.copy()
    work.build(config.seed)
    result = NetAdaptResult(work, float("nan"),
                            network_latency(work, device).total_ms)
    prunable = [name for name, node in work.nodes.items()
                if isinstance(node.layer, Conv2D) and node.role != "head"]

    iteration = 0
    while result.latency_ms > budget_ms:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError("NetAdapt exceeded its iteration budget")
        target = result.latency_ms - config.step_ms
        # (reached_target, accuracy, latency, network, layer, channels)
        best: tuple[bool, float, float, Network, str, int] | None = None
        evaluated = 0
        for lname in prunable:
            conv = work.nodes[lname].layer
            deepest = conv.filters - config.min_channels
            if deepest < 1:
                continue
            order = np.argsort(_channel_saliency(conv))  # smallest norm first
            # the smallest number of removals reaching the target, else the
            # deepest allowed prune of this layer (partial progress). The
            # device model's latency falls strictly with every removed
            # channel, so bisection finds what a linear scan would.
            candidate, ms = _prune_smallest(work, lname, order, deepest,
                                            device)
            reached = ms <= target
            lo, hi = 1, deepest
            while reached and lo < hi:
                mid = (lo + hi) // 2
                trial, trial_ms = _prune_smallest(work, lname, order, mid,
                                                  device)
                if trial_ms <= target:
                    hi, candidate, ms = mid, trial, trial_ms
                else:
                    lo = mid + 1
            if ms >= result.latency_ms - 1e-9:
                continue  # pruning this layer saves nothing
            evaluated += 1
            _, acc = _retrain(candidate, train, test,
                              config.head_epochs_short, config.seed)
            if cost_model is not None:
                result.train_hours += cost_model.train_hours_for_flops(
                    candidate.total_flops()) * (
                        config.head_epochs_short / cost_model.epochs)
            kept = candidate.nodes[lname].layer.filters
            # prefer candidates that reached the step target; among equals,
            # highest proxy accuracy (NetAdapt's selection rule)
            key = (reached, acc)
            if best is None or key > (best[0], best[1]):
                best = (reached, acc, ms, candidate, lname, kept)
        if best is None:
            raise RuntimeError(
                f"cannot reach {budget_ms} ms: no layer can be pruned "
                f"further at iteration {iteration}")
        _, acc, _, work, lname, kept = best
        result.network = work
        result.latency_ms = network_latency(work, device).total_ms
        result.candidates_trained += evaluated
        result.history.append(IterationRecord(
            iteration, lname, kept, result.latency_ms, acc, evaluated))

    result.network, result.accuracy = _retrain(
        work, train, test, config.head_epochs_final, config.seed)
    if cost_model is not None:
        result.train_hours += cost_model.train_hours_for_flops(
            work.total_flops())
    return result
