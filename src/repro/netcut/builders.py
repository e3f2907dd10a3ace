"""Pluggable ladder builders: competing rung sources for one TRN ladder.

The paper builds its ladder a single way — greedy blockwise layer removal —
but the literature names direct competitors: filter (channel) pruning at
graded ratios, HALP-style global pruning under an explicit latency budget,
and DP-optimal depth compression. This module makes the rung source a
strategy: every :class:`LadderBuilder` emits a graded list of
:class:`~repro.netcut.deploy.DeploymentArtifact`-compatible rungs for one
base network on one device, tagged with the builder's name, and a
:class:`~repro.serve.TRNLadder` can mix rungs from any set of builders
(``TRNLadder.from_artifacts`` sorts them by latency estimate regardless of
origin).

Latency metadata comes from the analytic device model
(:func:`repro.device.latency.network_latency` — deterministic and
noise-free, so builder output is byte-stable). Accuracy metadata comes
from a pluggable ``accuracy_fn``; the default :func:`capacity_accuracy`
is a deterministic *proxy* — a concave function of retained feature
FLOPs, standing in for retrained-head accuracy so bake-offs run in
seconds — while the deploy pipeline (:func:`repro.netcut.deploy.deploy`)
measures real accuracy on the hand dataset.

Builders:

- :class:`GreedyLayerRemoval` — the paper's blockwise cutpoints behind
  the interface.
- :class:`FilterPruneBuilder` — L1-norm channel pruning at graded keep
  ratios ("To Filter Prune, or to Layer Prune").
- :class:`HALPBuilder` — knapsack-style global pruning: remove the
  channel groups with the least importance per millisecond saved until
  each rung's latency budget holds (HALP's latency-aware saliency,
  solved by the LP-relaxation greedy).
- :class:`DPDepthBuilder` — a dynamic program over skippable-block
  removal choices minimising latency subject to an accuracy(-capacity)
  floor (two-stage DP depth compression).
"""

from __future__ import annotations

import numpy as np

from repro.device.latency import kernel_latency_ms, network_latency
from repro.device.spec import DeviceSpec
from repro.metrics.pareto import CandidatePoint, pareto_frontier
from repro.nn.graph import Network
from repro.trim.prune import (
    channel_importance,
    prunable_channel_convs,
    prune_channels,
    remove_blocks,
    skippable_blocks,
)
from repro.trim.removal import build_trn
from repro.trim.search import enumerate_blockwise, evenly_spaced, transfer_cut

from .deploy import DeploymentArtifact

__all__ = [
    "LadderBuilder",
    "GreedyLayerRemoval",
    "FilterPruneBuilder",
    "HALPBuilder",
    "DPDepthBuilder",
    "BUILDERS",
    "capacity_accuracy",
    "feature_flops",
    "build_rungs",
    "artifact_points",
    "frontier_artifacts",
]


def feature_flops(net: Network) -> int:
    """FLOPs of the stem + feature extractor (heads excluded).

    Transfer heads are identical across rungs of one base, so comparing
    retained capacity between rungs only makes sense on the feature side.
    """
    total = 0
    for node in net.nodes.values():
        if node.role in ("stem", "feature"):
            total += node.layer.flops(net.in_shapes(node.name))
    return int(total)


def capacity_accuracy(base: Network, ceiling: float = 0.95,
                      floor: float = 0.40, gamma: float = 0.35):
    """Deterministic accuracy proxy: concave in retained feature FLOPs.

    ``accuracy(net) = floor + (ceiling - floor) * frac**gamma`` with
    ``frac`` the net's feature FLOPs over the base's. The concave exponent
    mirrors the paper's Fig. 5 shape (early removals are cheap, deep
    removals expensive). This is a *model*, not a measurement — it makes
    bake-offs run in seconds and byte-stable; the deploy pipeline measures
    real accuracy.
    """
    base_flops = max(1, feature_flops(base))

    def accuracy(net: Network) -> float:
        frac = min(1.0, feature_flops(net) / base_flops)
        return round(floor + (ceiling - floor) * frac ** gamma, 6)

    return accuracy


class LadderBuilder:
    """Strategy interface: grade one base network into deployable rungs.

    Subclasses implement :meth:`rungs`, returning artifacts sorted from
    the full (slowest, most accurate) variant down. ``max_rungs`` caps
    the grade count (endpoints kept, middles evenly subsampled);
    ``accuracy_fn`` defaults to :func:`capacity_accuracy` of the base;
    ``deadline_ms`` defaults to the device-modelled full-TRN latency and
    is stored on every artifact.
    """

    name = "?"

    def rungs(self, base: Network, spec: DeviceSpec, num_classes: int = 5,
              deadline_ms: float | None = None,
              max_rungs: int | None = None, accuracy_fn=None,
              rng: "np.random.Generator | int" = 0
              ) -> list[DeploymentArtifact]:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------
    def _full_trn(self, base: Network, num_classes: int,
                  rng) -> Network:
        """The zero-cut transfer model every strategy grades down from."""
        return build_trn(base, transfer_cut(base), num_classes, rng=rng,
                         name=f"{base.name}-{self.name}-full")

    def _artifact(self, net: Network, base: Network, spec: DeviceSpec,
                  deadline_ms: float, accuracy_fn) -> DeploymentArtifact:
        return DeploymentArtifact(
            network=net, trn_name=net.name, base_name=base.name,
            measured_latency_ms=network_latency(net, spec).total_ms,
            accuracy=float(accuracy_fn(net)), deadline_ms=deadline_ms,
            builder=self.name)

    def _defaults(self, base: Network, spec: DeviceSpec, num_classes: int,
                  deadline_ms, accuracy_fn, rng):
        trn = self._full_trn(base, num_classes, rng)
        if accuracy_fn is None:
            accuracy_fn = capacity_accuracy(base)
        if deadline_ms is None:
            deadline_ms = network_latency(trn, spec).total_ms
        return trn, float(deadline_ms), accuracy_fn


class GreedyLayerRemoval(LadderBuilder):
    """The paper's rung source: blockwise cutpoints, shallowest cut last.

    Rung 0 is the zero-cut transfer model; each further rung removes more
    trailing feature blocks (Algorithm 1's candidate set).
    """

    name = "greedy"

    def rungs(self, base, spec, num_classes=5, deadline_ms=None,
              max_rungs=None, accuracy_fn=None, rng=0):
        trn, deadline_ms, accuracy_fn = self._defaults(
            base, spec, num_classes, deadline_ms, accuracy_fn, rng)
        cuts = enumerate_blockwise(base)
        if max_rungs is not None:
            # the full TRN is rung 0; the cuts grade the other max_rungs - 1
            cuts = [] if max_rungs == 1 else evenly_spaced(cuts, max_rungs - 1)
        nets = [trn] + [
            build_trn(base, c.cut_node, num_classes, rng=rng,
                      name=f"{base.name}-{self.name}-cut{c.blocks_removed}")
            for c in cuts]
        return [self._artifact(net, base, spec, deadline_ms, accuracy_fn)
                for net in nets]


class FilterPruneBuilder(LadderBuilder):
    """L1-norm channel pruning at graded uniform ratios.

    Every prunable feature conv keeps its ``1 - ratio`` highest-L1
    channels (at least one); depth is untouched, so this is the "filter
    prune" side of the filter-vs-layer trade-off.
    """

    name = "filter-prune"

    def __init__(self, ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)):
        if any(not 0.0 <= r < 1.0 for r in ratios):
            raise ValueError("prune ratios must be in [0, 1)")
        self.ratios = tuple(sorted(ratios))

    def rungs(self, base, spec, num_classes=5, deadline_ms=None,
              max_rungs=None, accuracy_fn=None, rng=0):
        trn, deadline_ms, accuracy_fn = self._defaults(
            base, spec, num_classes, deadline_ms, accuracy_fn, rng)
        importances = {conv: channel_importance(trn, conv)
                       for conv in prunable_channel_convs(trn)}
        nets = []
        for ratio in evenly_spaced(self.ratios, max_rungs):
            if ratio == 0.0:
                nets.append(trn)
                continue
            keep = {}
            for conv, imp in importances.items():
                kept = max(1, int(np.ceil((1.0 - ratio) * imp.size)))
                order = np.argsort(imp, kind="stable")
                keep[conv] = np.sort(order[imp.size - kept:])
            nets.append(prune_channels(
                trn, keep,
                name=f"{base.name}-{self.name}-{int(round(100 * ratio))}"))
        return [self._artifact(net, base, spec, deadline_ms, accuracy_fn)
                for net in nets]


class HALPBuilder(LadderBuilder):
    """Global latency-aware pruning: keep the most importance per budget.

    Following HALP, each prunable conv's channels are split (by ascending
    L1 importance) into ``groups`` removal candidates; a group's latency
    saving is the first-order share of its conv's standalone kernel time.
    For each rung the latency budget is ``budget × full-TRN latency`` and
    the LP-relaxation greedy removes the groups with the *least importance
    per millisecond saved* until the estimate meets the budget — the
    knapsack's maximise-retained-importance solution. The top importance
    group of every conv is never removed (the layer must stay functional).
    """

    name = "halp"

    def __init__(self, budgets: tuple[float, ...] = (1.0, 0.85, 0.7, 0.55),
                 groups: int = 4):
        if any(not 0.0 < b <= 1.0 for b in budgets):
            raise ValueError("latency budgets are fractions in (0, 1]")
        if groups < 2:
            raise ValueError("need at least 2 importance groups per conv")
        self.budgets = tuple(sorted(budgets, reverse=True))
        self.groups = groups

    def _candidates(self, trn: Network, spec: DeviceSpec):
        """(conv, channel-indices, importance, saving_ms) removal items."""
        items = []
        for conv in prunable_channel_convs(trn):
            imp = channel_importance(trn, conv)
            layer = trn.nodes[conv].layer
            flops = layer.flops(trn.in_shapes(conv))
            in_elems = sum(int(np.prod(s)) for s in trn.in_shapes(conv))
            out_elems = int(np.prod(trn.shape_of(conv)))
            kernel_ms = kernel_latency_ms(
                flops, 4.0 * (in_elems + out_elems + layer.param_count()),
                spec)
            order = np.argsort(imp, kind="stable")
            bounds = np.linspace(0, imp.size, self.groups + 1)
            bounds = bounds.round().astype(int)
            # all groups but the last (most important) are removable
            for g in range(self.groups - 1):
                channels = order[bounds[g]:bounds[g + 1]]
                if channels.size == 0:
                    continue
                items.append((conv, np.sort(channels),
                              float(imp[channels].sum()),
                              kernel_ms * channels.size / imp.size))
        return items

    def rungs(self, base, spec, num_classes=5, deadline_ms=None,
              max_rungs=None, accuracy_fn=None, rng=0):
        trn, deadline_ms, accuracy_fn = self._defaults(
            base, spec, num_classes, deadline_ms, accuracy_fn, rng)
        full_ms = network_latency(trn, spec).total_ms
        items = self._candidates(trn, spec)
        # least importance per saved millisecond first; deterministic ties
        items.sort(key=lambda it: (it[2] / max(it[3], 1e-12), it[0],
                                   int(it[1][0])))
        nets = []
        for budget in evenly_spaced(self.budgets, max_rungs):
            target = budget * full_ms
            estimate = full_ms
            removed: dict[str, list[np.ndarray]] = {}
            for conv, channels, _imp, saving in items:
                if estimate <= target:
                    break
                removed.setdefault(conv, []).append(channels)
                estimate -= saving
            if not removed:
                nets.append(trn)
                continue
            keep = {}
            for conv, parts in removed.items():
                gone = np.concatenate(parts)
                filters = trn.nodes[conv].layer.filters
                keep[conv] = np.setdiff1d(np.arange(filters), gone)
            nets.append(prune_channels(
                trn, keep,
                name=f"{base.name}-{self.name}-{int(round(100 * budget))}"))
        return [self._artifact(net, base, spec, deadline_ms, accuracy_fn)
                for net in nets]


class DPDepthBuilder(LadderBuilder):
    """DP-optimal depth compression over skippable-block removal choices.

    Stage 1 scores every shape-preserving interior block with its latency
    cost (the device model's kernel time anchored in the block) and its
    capacity cost (the block's share of feature FLOPs). Stage 2 solves,
    for each graded capacity floor, the exact 0/1 knapsack — maximise
    latency saved subject to retained capacity ≥ floor — by dynamic
    programming over quantised capacity, then rebuilds the network with
    the chosen blocks removed (consumers rewired to the block inputs).
    """

    name = "dp-depth"

    #: knapsack capacity quantisation (fractions of total feature FLOPs)
    RESOLUTION = 4096

    def __init__(self, floors: tuple[float, ...] = (1.0, 0.9, 0.75, 0.55)):
        if any(not 0.0 < f <= 1.0 for f in floors):
            raise ValueError("capacity floors are fractions in (0, 1]")
        self.floors = tuple(sorted(floors, reverse=True))

    def _block_costs(self, trn: Network, spec: DeviceSpec):
        """(block, latency_ms, capacity_fraction) per skippable block."""
        total = max(1, feature_flops(trn))
        breakdown = network_latency(trn, spec)
        costs = []
        block_members = trn.block_members()
        for block in skippable_blocks(trn):
            members = block_members[block]
            ms = sum(k.latency_ms
                     for k in breakdown.kernels_for_nodes(set(members)))
            flops = sum(trn.nodes[n].layer.flops(trn.in_shapes(n))
                        for n in members)
            costs.append((block, ms, flops / total))
        return costs

    def _knapsack(self, costs, budget_frac: float) -> list[str]:
        """Blocks maximising saved latency with total capacity ≤ budget."""
        cap = int(budget_frac * self.RESOLUTION)
        if cap <= 0 or not costs:
            return []
        weights = [min(cap + 1, int(np.ceil(frac * self.RESOLUTION)))
                   for _, _, frac in costs]
        dp = np.zeros(cap + 1)
        take = np.zeros((len(costs), cap + 1), dtype=bool)
        for i, ((_, ms, _), w) in enumerate(zip(costs, weights)):
            if w > cap:
                continue
            candidate = dp[:cap + 1 - w] + ms
            better = candidate > dp[w:]
            take[i, w:] = better
            dp[w:] = np.where(better, candidate, dp[w:])
        chosen, room = [], cap
        for i in range(len(costs) - 1, -1, -1):
            if take[i, room]:
                chosen.append(costs[i][0])
                room -= weights[i]
        return sorted(chosen)

    def rungs(self, base, spec, num_classes=5, deadline_ms=None,
              max_rungs=None, accuracy_fn=None, rng=0):
        trn, deadline_ms, accuracy_fn = self._defaults(
            base, spec, num_classes, deadline_ms, accuracy_fn, rng)
        costs = self._block_costs(trn, spec)
        nets, seen = [], set()
        for floor in evenly_spaced(self.floors, max_rungs):
            chosen = self._knapsack(costs, 1.0 - floor)
            key = frozenset(chosen)
            if key in seen:
                continue  # a tighter floor that removed nothing new
            seen.add(key)
            if not chosen:
                nets.append(trn)
                continue
            nets.append(remove_blocks(
                trn, chosen,
                name=f"{base.name}-{self.name}-{int(round(100 * floor))}"))
        return [self._artifact(net, base, spec, deadline_ms, accuracy_fn)
                for net in nets]


#: Registry for the CLI and benchmarks: strategy name → builder class.
BUILDERS: dict[str, type[LadderBuilder]] = {
    GreedyLayerRemoval.name: GreedyLayerRemoval,
    FilterPruneBuilder.name: FilterPruneBuilder,
    HALPBuilder.name: HALPBuilder,
    DPDepthBuilder.name: DPDepthBuilder,
}


def build_rungs(base: Network, spec: DeviceSpec,
                builders: "list[LadderBuilder] | None" = None,
                num_classes: int = 5, deadline_ms: float | None = None,
                max_rungs: int | None = None, accuracy_fn=None,
                rng: "np.random.Generator | int" = 0
                ) -> dict[str, list[DeploymentArtifact]]:
    """Run several builders on one (base, device): strategy → artifacts.

    With ``accuracy_fn`` left ``None`` all strategies share one
    :func:`capacity_accuracy` of the base, so their rungs are directly
    comparable in the trade-off space.
    """
    if builders is None:
        builders = [cls() for cls in BUILDERS.values()]
    if accuracy_fn is None:
        accuracy_fn = capacity_accuracy(base)
    return {b.name: b.rungs(base, spec, num_classes=num_classes,
                            deadline_ms=deadline_ms, max_rungs=max_rungs,
                            accuracy_fn=accuracy_fn, rng=rng)
            for b in builders}


def artifact_points(artifacts) -> list[CandidatePoint]:
    """Artifacts as :class:`repro.metrics.pareto` trade-off points."""
    return [CandidatePoint(a.trn_name, a.measured_latency_ms, a.accuracy)
            for a in artifacts]


def frontier_artifacts(artifacts) -> list[DeploymentArtifact]:
    """The non-dominated artifacts, fastest last (mixed-ladder rung set).

    Mixing strategies means the union of their rungs; serving only needs
    the Pareto-optimal ones. Duplicate trade-off points (e.g. every
    builder's uncompressed full TRN) keep their first artifact in input
    order.
    """
    frontier = {(p.latency_ms, p.accuracy)
                for p in pareto_frontier(artifact_points(artifacts))}
    out, taken = [], set()
    for a in artifacts:
        point = (a.measured_latency_ms, a.accuracy)
        if point in frontier and point not in taken:
            taken.add(point)
            out.append(a)
    return sorted(out, key=lambda a: -a.measured_latency_ms)
