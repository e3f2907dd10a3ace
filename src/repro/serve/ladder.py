"""The TRN ladder: NetCut's candidates as an anytime degradation hierarchy.

NetCut builds, for every base network, a family of thinned replacement
networks (TRNs) ordered by depth: each shallower TRN is faster and slightly
less accurate. That ordering is exactly an *anytime ladder* — under load a
server can step down to a shorter TRN instead of missing deadlines, and
step back up when pressure subsides (cf. Wójcik et al.'s multi-head depth
ladders in PAPERS.md).

A :class:`TRNLadder` holds the rungs sorted most-accurate-first (slowest
first) with a cursor for the rung currently serving traffic. The
:class:`HysteresisController` decides transitions from a sliding window of
observed response times: degrade when the windowed p99 threatens the
deadline, upgrade when it is comfortably below — with a cooldown so the
ladder does not flap.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.device.runtime import ServiceTimeSampler
from repro.device.spec import DeviceSpec, stable_seed
from repro.nn.graph import Network
from repro.trim.removal import build_trn
from repro.trim.search import enumerate_blockwise

__all__ = ["TRNRung", "TRNLadder", "HysteresisController"]


@dataclass
class TRNRung:
    """One ladder position: a servable TRN plus its latency behaviour."""

    name: str
    network: Network
    spec: DeviceSpec
    accuracy: float = float("nan")
    #: which LadderBuilder strategy produced the rung ("" = unknown);
    #: carried from the deployment artifact into metrics labels and the
    #: serve snapshot so mixed ladders stay attributable per strategy
    builder: str = ""
    sampler: ServiceTimeSampler = field(init=False, repr=False)
    # planner belief vs. device truth: estimate_scale multiplies what the
    # *planner* (admission, batching, ladder ordering) believes this rung
    # costs, while the sampler keeps producing the device's actual
    # behaviour. Online re-estimation (repro.netcut.online) rewrites the
    # belief from live observations; it must never touch the sampler,
    # which would amount to re-profiling the hardware into agreement.
    estimate_scale: float = field(default=1.0, init=False)

    def __post_init__(self):
        if not self.network.built:
            raise ValueError(f"rung {self.name!r} network must be built")
        # compile at load: serving rungs are frozen inference networks, so
        # every forward goes through the fused static schedule (the
        # interpreted walk remains reachable by attaching hooks, e.g. for
        # repro.obs profiling, which falls back transparently)
        self.network.compile()
        self.sampler = ServiceTimeSampler(
            self.network, self.spec,
            rng=stable_seed(self.name, self.spec.name))

    def reseed(self, rng: np.random.Generator | int) -> None:
        """Restart the sampler on ``rng`` (determinism across server runs).

        The sampler is reseeded in place, so its per-batch latency table
        survives every run that reuses this rung.
        """
        self.sampler.reseed(rng)

    def estimate_ms(self, batch_size: int = 1) -> float:
        """Noise-free batched latency estimate (admission/batch planning)."""
        return self.sampler.base_ms(batch_size) * self.estimate_scale

    def recalibrate(self, scale: float) -> float:
        """Rewrite the rung's latency belief; returns the previous scale.

        ``scale`` replaces (does not compose with) the current calibration:
        it is the ratio of believed to profiled latency, so ``1.0`` always
        means "trust the deployment artifact's table again".
        """
        scale = float(scale)
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("estimate scale must be positive and finite")
        previous = self.estimate_scale
        self.estimate_scale = scale
        return previous

    def estimate_table(self) -> dict[int, float]:
        """The calibrated latency table at every batch size seen so far.

        "So far" spans runs: reseeding keeps the sampler's table, so it
        holds every batch size any run on this rung has asked about.
        """
        return {b: ms * self.estimate_scale
                for b, ms in sorted(self.sampler._base_ms.items())}

    def sample_service_ms(self, batch_size: int = 1) -> float:
        """One measured (noisy) batched inference latency."""
        return self.sampler.sample_ms(batch_size)

    def forward(self, samples) -> np.ndarray:
        """Run the rung's network on a list of single samples, batched."""
        return self.network.forward_batch(samples)

    def forward_one(self, x: np.ndarray) -> np.ndarray:
        """Run the rung's network on exactly one un-batched sample."""
        return self.network.forward_one(x)


class TRNLadder:
    """An ordered set of TRNs, most accurate (slowest) first."""

    def __init__(self, rungs: list[TRNRung]):
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        # most accurate first == slowest first; sort by the batch-1 estimate
        self.rungs = sorted(rungs, key=lambda r: -r.estimate_ms(1))
        self._current = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def from_networks(cls, networks: list[Network], spec: DeviceSpec,
                      accuracies: list[float] | None = None) -> "TRNLadder":
        """Build a ladder from already-constructed (built) networks."""
        accs = accuracies or [float("nan")] * len(networks)
        if len(accs) != len(networks):
            raise ValueError("need one accuracy per network")
        return cls([TRNRung(net.name, net, spec, acc)
                    for net, acc in zip(networks, accs)])

    @classmethod
    def from_artifacts(cls, artifacts, spec: DeviceSpec) -> "TRNLadder":
        """Build a ladder from :class:`repro.netcut.deploy.DeploymentArtifact`s
        (e.g. round-tripped through ``save_artifact``/``load_artifact``).

        Artifacts may come from *different* ladder builders — rungs are
        sorted by latency estimate regardless of origin, and each rung
        keeps its artifact's ``builder`` tag."""
        return cls([TRNRung(a.trn_name, a.network, spec, a.accuracy,
                            getattr(a, "builder", ""))
                    for a in artifacts])

    @classmethod
    def from_base(cls, base: Network, spec: DeviceSpec, num_classes: int,
                  max_rungs: int | None = None,
                  rng: np.random.Generator | int = 0) -> "TRNLadder":
        """Build the full blockwise ladder of one base network.

        Rung 0 is the zero-cut transfer model (all feature blocks kept);
        deeper cuts follow. ``max_rungs`` caps the ladder length (the
        shallowest cuts are kept so the ladder always has a fast escape
        rung). Heads are freshly initialised — accuracy metadata comes from
        NetCut/exploration when available, not from this constructor.
        """
        cuts = enumerate_blockwise(base)
        if max_rungs is not None and max_rungs < len(cuts):
            # keep the full TRN, the shallowest, and evenly spaced middles
            idx = np.linspace(0, len(cuts) - 1, max_rungs).round().astype(int)
            cuts = [cuts[i] for i in sorted(set(int(i) for i in idx))]
        rungs = [TRNRung(f"{base.name}-cut{c.blocks_removed}",
                         build_trn(base, c.cut_node, num_classes, rng=rng),
                         spec)
                 for c in cuts]
        return cls(rungs)

    # -- cursor --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rungs)

    @property
    def current_index(self) -> int:
        return self._current

    @property
    def current(self) -> TRNRung:
        """The rung currently serving traffic."""
        return self.rungs[self._current]

    @property
    def fastest(self) -> TRNRung:
        return self.rungs[-1]

    @property
    def can_degrade(self) -> bool:
        return self._current < len(self.rungs) - 1

    @property
    def can_upgrade(self) -> bool:
        return self._current > 0

    def peek_slower(self) -> TRNRung | None:
        """The next more-accurate rung (None at the top of the ladder)."""
        return self.rungs[self._current - 1] if self.can_upgrade else None

    def degrade(self) -> bool:
        """Step down to the next faster rung. Returns False at the bottom."""
        if not self.can_degrade:
            return False
        self._current += 1
        return True

    def upgrade(self) -> bool:
        """Step up to the next more-accurate rung. False at the top."""
        if not self.can_upgrade:
            return False
        self._current -= 1
        return True

    def reset(self, index: int = 0) -> None:
        """Park the cursor (0 = most accurate rung)."""
        if not 0 <= index < len(self.rungs):
            raise IndexError(f"no rung {index} in a {len(self.rungs)}-rung "
                             "ladder")
        self._current = index

    def select(self, rung: TRNRung) -> None:
        """Point the cursor at ``rung`` (matched by identity, not equality)."""
        for i, r in enumerate(self.rungs):
            if r is rung:
                self._current = i
                return
        raise ValueError(f"rung {getattr(rung, 'name', rung)!r} is not in "
                         "this ladder")

    def resort(self) -> None:
        """Re-sort the rungs by their *current* batch-1 estimates.

        The construction-time ordering goes stale the moment estimates
        change (online recalibration rewrites them mid-run). The cursor
        keeps pointing at the rung that was serving traffic — tracked by
        identity, so re-ordering never silently swaps which network
        answers the next batch.
        """
        serving = self.rungs[self._current]
        self.rungs.sort(key=lambda r: -r.estimate_ms(1))
        self.select(serving)

    def restore(self) -> None:
        """Trust the deployment tables again, in order, from the top rung.

        Online re-estimation rewrites rung beliefs in place and re-sorts
        the ladder, and ladders are reused across runs. Resetting every
        estimate scale, the ordering and the cursor together, before
        anything wraps or reads the ladder, makes one (ladder, config,
        trace) tuple replay identically whatever an earlier run learned.
        """
        for rung in self.rungs:
            rung.recalibrate(1.0)
        self.rungs.sort(key=lambda r: -r.estimate_ms(1))
        self._current = 0

    def reseed(self, seed: int) -> None:
        """Restart every rung's sampler on a deterministic seed."""
        for i, rung in enumerate(self.rungs):
            rung.reseed(seed + i)

    def snapshot(self) -> list[dict]:
        """JSON-able rung inventory (deployment-time estimates and tags).

        One dict per rung in ladder order: name, builder tag, batch-1
        estimate, accuracy. Uses ``getattr`` so wrapped rungs (e.g. fault
        proxies) snapshot too.
        """
        return [{"name": r.name,
                 "builder": getattr(r, "builder", ""),
                 "estimate_ms": round(r.estimate_ms(1), 6),
                 "accuracy": round(float(r.accuracy), 6)
                 if math.isfinite(getattr(r, "accuracy", float("nan")))
                 else None}
                for r in self.rungs]

    def describe(self) -> str:
        """One line per rung: name, builder tag, batch-1 estimate, accuracy."""
        lines = []
        for i, r in enumerate(self.rungs):
            marker = "->" if i == self._current else "  "
            acc = f"{r.accuracy:.4f}" if math.isfinite(r.accuracy) else "?"
            tag = getattr(r, "builder", "")
            tag = f"  [{tag}]" if tag else ""
            lines.append(f"{marker} [{i}] {r.name:32s} "
                         f"est {r.estimate_ms(1):.3f} ms  acc {acc}{tag}")
        return "\n".join(lines)


class HysteresisController:
    """Degrade/upgrade decisions from a sliding window of response times.

    Policy: over the last ``window`` completed requests, estimate the
    ``quantile`` response time. If it exceeds ``degrade_ratio * deadline``
    the current rung cannot hold the deadline under the observed pressure —
    degrade. If it falls below ``upgrade_ratio * deadline`` there is enough
    slack to climb back — upgrade. The asymmetric thresholds plus a
    ``cooldown`` (minimum observations between decisions, letting the
    window refill with post-transition behaviour) prevent oscillation.
    Upgrades use a longer ``upgrade_cooldown`` (default 4x): stepping down
    late costs missed deadlines, stepping up late only costs a little
    accuracy, so the controller reacts fast in one direction and lazily in
    the other.
    """

    def __init__(self, deadline_ms: float, window: int = 32,
                 min_observations: int = 16, cooldown: int = 16,
                 quantile: float = 0.99, degrade_ratio: float = 1.0,
                 upgrade_ratio: float = 0.5,
                 upgrade_cooldown: int | None = None):
        if upgrade_ratio >= degrade_ratio:
            raise ValueError("upgrade_ratio must be < degrade_ratio "
                             "(the hysteresis band)")
        # checked here, not at the first decision mid-trace (NaN fails too)
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.deadline_ms = deadline_ms
        self.window = window
        self.min_observations = min(min_observations, window)
        self.cooldown = cooldown
        self.upgrade_cooldown = (4 * cooldown if upgrade_cooldown is None
                                 else upgrade_cooldown)
        self.quantile = quantile
        self.degrade_ratio = degrade_ratio
        self.upgrade_ratio = upgrade_ratio
        self._latencies: deque[float] = deque(maxlen=window)
        # the same window kept sorted, so a quantile is two list reads
        # instead of a NumPy call on every completed request
        self._sorted: list[float] = []
        self._since_decision = 0

    def observe(self, latency_ms: float) -> str | None:
        """Feed one completed response time; returns a decision or None.

        Decisions are ``"degrade"`` / ``"upgrade"``. The caller applies the
        transition (it knows whether the ladder has a rung left in that
        direction) and then calls :meth:`notify_transition`.
        """
        if len(self._latencies) == self._latencies.maxlen:
            # the append below evicts the oldest value: drop it here too
            del self._sorted[bisect_left(self._sorted, self._latencies[0])]
        self._latencies.append(latency_ms)
        insort(self._sorted, latency_ms)
        self._since_decision += 1
        if (len(self._latencies) < self.min_observations
                or self._since_decision < self.cooldown):
            return None
        q = self._window_quantile()
        if q > self.degrade_ratio * self.deadline_ms:
            return "degrade"
        if (q < self.upgrade_ratio * self.deadline_ms
                and self._since_decision >= self.upgrade_cooldown):
            return "upgrade"
        return None

    def notify_transition(self) -> None:
        """Reset the window after an applied transition (fresh evidence)."""
        self._latencies.clear()
        self._sorted.clear()
        self._since_decision = 0

    def _window_quantile(self) -> float:
        """NumPy's quantile of the window, float for float.

        NumPy's default ``linear`` method: virtual index ``(n-1)*q``, the
        top value from the last index on, else the two-sided lerp of
        NumPy's ``_lerp``, which interpolates down from the upper
        neighbour once the weight reaches 0.5.
        """
        s = self._sorted
        vi = (len(s) - 1) * self.quantile
        if vi >= len(s) - 1:
            return s[-1]
        i = math.floor(vi)
        g = vi - i
        a, b = s[i], s[i + 1]
        if g >= 0.5:
            return b - (b - a) * (1 - g)
        return a + (b - a) * g
