"""High-level experiment workbench used by the examples and benchmarks.

Reproducing the paper's figures requires a handful of expensive shared
artifacts — pretrained base networks, the HANDS-like dataset, latency
measurements for every blockwise TRN, the full blockwise exploration with
retrained heads. :class:`Workbench` builds each of these once, caches them
(in memory and, for the heavyweight ones, as JSON/NPZ on disk keyed by the
experiment configuration) and exposes the paper's experiments as methods.

Typical use::

    wb = Workbench()
    exploration = wb.exploration()          # Figs 4-7 ground truth
    result = wb.netcut("profiler")          # Fig 10, profiler estimator
    result = wb.netcut("analytical")        # Fig 10, ε-SVR estimator
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from repro.data.hands import make_hands_dataset
from repro.data.synthetic import Dataset
from repro.device.k20m import TrainingCostModel, k20m
from repro.device.runtime import measure_latency
from repro.device.spec import DeviceSpec
from repro.device.xavier import xavier
from repro.estimators.analytical import (
    AnalyticalEstimator,
    train_test_split_indices,
)
from repro.estimators.features import NetworkFeatures, extract_features
from repro.estimators.model_selection import stratified_split_indices
from repro.netcut.adapters import AnalyticalAdapter, ProfilerAdapter
from repro.netcut.algorithm import NetCutResult, run_netcut
from repro.netcut.explorer import Exploration, explore_blockwise
from repro.nn.graph import Network
from repro.train.pretrain import default_cache_dir, get_pretrained
from repro.train.trainer import retrain
from repro.trim.removal import build_trn, removed_node_set
from repro.trim.search import Cutpoint, enumerate_blockwise, transfer_cut
from repro.zoo.registry import NETWORKS

__all__ = ["ExperimentConfig", "LatencyPoint", "EstimatorSweep", "Workbench"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that identifies one experimental setup."""

    networks: tuple[str, ...] = tuple(NETWORKS)
    hands_images: int = 1100
    hands_seed: int = 1
    train_fraction: float = 0.75
    head_epochs: int = 50
    deadline_ms: float = 0.9
    num_classes: int = 5
    seed: int = 0

    def digest(self) -> str:
        """Stable short hash identifying this configuration on disk."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha1(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class LatencyPoint:
    """One measured TRN latency with its analytical features."""

    base_name: str
    trn_name: str
    cut_node: str
    blocks_removed: int
    measured_ms: float
    features: NetworkFeatures


@dataclass(frozen=True)
class EstimatorSweep:
    """Per latency-dataset point, in order: its base network, measured
    latency, profiler, RBF ε-SVR and OLS estimates, and whether the SVR
    held it out (Figs 8-9)."""

    base_names: np.ndarray
    measured: np.ndarray
    profiler: np.ndarray
    svr: np.ndarray
    linear: np.ndarray
    held_out: np.ndarray


class Workbench:
    """Caching facade over the full experimental pipeline."""

    def __init__(self, config: ExperimentConfig = ExperimentConfig(),
                 device: DeviceSpec | None = None,
                 cost_model: TrainingCostModel | None = None,
                 cache_dir: str | None = None,
                 pretrain_config=None):
        self.config = config
        self.device = device or xavier()
        self.cost_model = cost_model or k20m()
        self.pretrain_config = pretrain_config  # None = per-family default
        self.cache_dir = cache_dir or default_cache_dir()
        os.makedirs(self.cache_dir, exist_ok=True)
        self._bases: dict[str, Network] = {}
        self._hands: tuple[Dataset, Dataset] | None = None
        self._latency_points: list[LatencyPoint] | None = None
        self._base_latencies: dict[str, float] | None = None
        self._exploration: Exploration | None = None

    # -- shared artifacts ----------------------------------------------------
    def base(self, name: str) -> Network:
        """A pretrained base network (built, cached in memory)."""
        if name not in self._bases:
            self._bases[name] = get_pretrained(
                name, self.pretrain_config, cache_dir=self.cache_dir)
        return self._bases[name]

    def bases(self) -> list[Network]:
        """All configured pretrained base networks."""
        return [self.base(name) for name in self.config.networks]

    def hands(self) -> tuple[Dataset, Dataset]:
        """The HANDS-like dataset as a (train, test) split."""
        if self._hands is None:
            data = make_hands_dataset(self.config.hands_images,
                                      seed=self.config.hands_seed)
            self._hands = data.split(self.config.train_fraction,
                                     rng=self.config.seed)
        return self._hands

    def _cache_path(self, kind: str) -> str:
        # the device participates in the key: explorations and latency
        # datasets of different devices must not collide
        return os.path.join(
            self.cache_dir,
            f"{kind}-{self.device.name}-{self.config.digest()}.json")

    # -- latency ground truth --------------------------------------------------
    def transfer_model(self, name: str, cutpoint: Cutpoint | None = None
                       ) -> Network:
        """The transfer form of a base network, optionally trimmed.

        ``cutpoint=None`` keeps all feature blocks (the off-the-shelf
        network with the replaced classification head).
        """
        base = self.base(name)
        return build_trn(base, transfer_cut(base, cutpoint),
                         self.config.num_classes, rng=self.config.seed)

    def base_latencies(self) -> dict[str, float]:
        """Measured latency of every off-the-shelf transfer model (Fig. 1)."""
        if self._base_latencies is None:
            self._base_latencies = {
                name: measure_latency(self.transfer_model(name),
                                      self.device).mean_ms
                for name in self.config.networks}
        return self._base_latencies

    def latency_dataset(self) -> list[LatencyPoint]:
        """Measured latency + analytical features of every blockwise TRN.

        Measuring does not require retraining, so this is cheap relative to
        exploration; it is the data the analytical estimator is fitted and
        evaluated on (Figs 8 and 9). Cached on disk as JSON.
        """
        if self._latency_points is not None:
            return self._latency_points
        path = self._cache_path("latency")
        if os.path.exists(path):
            with open(path) as fh:
                rows = json.load(fh)
            self._latency_points = [
                LatencyPoint(r["base_name"], r["trn_name"], r["cut_node"],
                             r["blocks_removed"], r["measured_ms"],
                             NetworkFeatures(**r["features"]))
                for r in rows]
            return self._latency_points
        base_ms = self.base_latencies()
        points: list[LatencyPoint] = []
        for name in self.config.networks:
            base = self.base(name)
            for cut in enumerate_blockwise(base):
                trn = build_trn(base, cut.cut_node, self.config.num_classes,
                                rng=self.config.seed)
                measured = measure_latency(trn, self.device).mean_ms
                points.append(LatencyPoint(
                    name, trn.name, cut.cut_node, cut.blocks_removed,
                    measured, extract_features(trn, base_ms[name])))
        with open(path, "w") as fh:
            json.dump([{
                "base_name": p.base_name, "trn_name": p.trn_name,
                "cut_node": p.cut_node, "blocks_removed": p.blocks_removed,
                "measured_ms": p.measured_ms,
                "features": asdict(p.features)} for p in points], fh)
        self._latency_points = points
        return points

    # -- estimators -------------------------------------------------------------
    def profiler_adapter(self) -> ProfilerAdapter:
        """A fresh profiler-based estimator adapter."""
        return ProfilerAdapter(self.device, self.config.num_classes)

    def analytical_model(self, kernel: str = "rbf", tune: bool = False,
                         stratified: bool = True
                         ) -> tuple[AnalyticalEstimator, np.ndarray]:
        """The paper's analytical estimator, fitted on a 20% split.

        Returns ``(fitted_model, test_indices)`` where the test indices
        select the held-out 80% of :meth:`latency_dataset`. The default
        split is stratified per base network (evenly spaced cutpoints) so
        the RBF model interpolates rather than extrapolates; pass
        ``stratified=False`` for the plain random split ablation.
        """
        points = self.latency_dataset()
        if stratified:
            train_idx, test_idx = stratified_split_indices(
                [p.base_name for p in points], 0.2)
        else:
            train_idx, test_idx = train_test_split_indices(
                len(points), 0.2, rng=self.config.seed)
        features = [points[i].features for i in train_idx]
        targets = np.array([points[i].measured_ms for i in train_idx])
        model = AnalyticalEstimator(kernel=kernel)
        if tune and kernel != "linear-ols":
            model.tune(features, targets,
                       folds=min(10, len(train_idx)), rng=self.config.seed)
        else:
            model.fit(features, targets)
        return model, test_idx

    def analytical_adapter(self, kernel: str = "rbf",
                           tune: bool = False) -> AnalyticalAdapter:
        """An analytical estimator adapter ready for :meth:`netcut`."""
        model, _ = self.analytical_model(kernel, tune)
        return AnalyticalAdapter(model, self.base_latencies(),
                                 self.config.num_classes)

    def estimates(self) -> EstimatorSweep:
        """The Fig. 9 sweep: the profiler, RBF-SVR and OLS estimates of
        every TRN in :meth:`latency_dataset` next to its measurement."""
        points = self.latency_dataset()
        profiler = self.profiler_adapter()
        svr, test_idx = self.analytical_model("rbf")
        linear, _ = self.analytical_model("linear-ols")
        features = [p.features for p in points]
        held_out = np.zeros(len(points), dtype=bool)
        held_out[test_idx] = True
        return EstimatorSweep(
            base_names=np.array([p.base_name for p in points]),
            measured=np.array([p.measured_ms for p in points]),
            profiler=np.array([
                profiler.estimator_for(self.base(p.base_name)).estimate(
                    removed_node_set(self.base(p.base_name), p.cut_node))
                for p in points]),
            svr=svr.predict(features), linear=linear.predict(features),
            held_out=held_out)

    # -- retraining ----------------------------------------------------------
    def retrain_trn(self, base: Network, cutpoint: Cutpoint | None
                    ) -> tuple[Network, float]:
        """Algorithm 1's retrain step (:func:`repro.train.retrain`) on the
        hand dataset: the TRN carrying its trained head, and its accuracy."""
        train_data, test_data = self.hands()
        return next(retrain(base, [transfer_cut(base, cutpoint)], train_data,
                            test_data, self.config.head_epochs,
                            self.config.seed))

    # -- the paper's experiments ------------------------------------------------
    def exploration(self, force: bool = False) -> Exploration:
        """The full blockwise exploration (148 TRNs + 7 originals).

        Cached on disk; this is the ground truth behind Figs 4-7 and the
        183-hour side of the 27× comparison.
        """
        if self._exploration is None or force:
            self._exploration = self._explore(
                "exploration", list(self.config.networks), force)
        return self._exploration

    def iterative_exploration(self, name: str = "inception_v3",
                              force: bool = False) -> Exploration:
        """Exhaustive per-layer (iterative) exploration of one network.

        This is the Fig. 4 baseline that blockwise removal is compared
        against — every feature node of the network is a cutpoint.
        Cached on disk (per network).
        """
        return self._explore(f"iterative-{name}", [name], force,
                             iterative=True)

    def _explore(self, kind: str, names: list[str], force: bool,
                 iterative: bool = False) -> Exploration:
        path = self._cache_path(kind)
        if not force and os.path.exists(path):
            return Exploration.load(path)
        train_data, test_data = self.hands()
        exploration = explore_blockwise(
            [self.base(name) for name in names], train_data, test_data,
            self.device, self.cost_model, self.config.head_epochs,
            iterative=iterative, rng_seed=self.config.seed)
        exploration.save(path)
        return exploration

    def netcut(self, estimator: str = "profiler",
               deadline_ms: float | None = None) -> NetCutResult:
        """Run Algorithm 1 with one of the paper's estimators.

        ``estimator`` is ``"profiler"``, ``"analytical"`` or ``"linear"``
        (the ablation baseline).
        """
        if estimator == "profiler":
            adapter = self.profiler_adapter()
        elif estimator == "analytical":
            adapter = self.analytical_adapter("rbf")
        elif estimator == "linear":
            adapter = self.analytical_adapter("linear-ols")
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
        return run_netcut(
            self.bases(),
            deadline_ms if deadline_ms is not None else self.config.deadline_ms,
            adapter,
            retrain=self.retrain_trn,
            measure=lambda trn: measure_latency(trn, self.device).mean_ms,
            base_latencies_ms=self.base_latencies(),
            cost_model=self.cost_model)
