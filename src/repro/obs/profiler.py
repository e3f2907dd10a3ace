"""Per-layer profiling hooks: CUDA-event-style tables from live forwards.

:class:`LayerProfiler` attaches to a network's forward hooks
(:meth:`repro.nn.graph.Network.register_forward_hook`) and treats every
full forward pass it observes as one profiled *run*: the executed kernels
are identified from the device's fusion plan, each kernel's recorded
latency is drawn from the device model at the current run index (warm-up
ramp, run-to-run noise, stragglers and the CUDA-event overhead included),
and an event-free end-to-end sample is accumulated alongside. After a
configurable warm-up discard the accumulated runs average into a
:class:`repro.device.profiler.LatencyTable` — the exact structure the
paper's ratio-form :class:`repro.estimators.ProfilerEstimator` consumes —
so a table profiled through live hooks reproduces the estimator chain of
``repro.device.profile_network`` while also working on traffic the
profiler did not generate itself (e.g. a serving engine's forwards).

The overhead-correcting ratio form matters here exactly as in the paper:
every per-kernel record carries the event overhead, so the table total
exceeds the end-to-end time and only the removed/total *ratio* is
bias-free.
"""

from __future__ import annotations

import numpy as np

from repro.nn.compile import fuse_kernels
from repro.device.latency import network_latency
from repro.device.profiler import LatencyTable, LayerRecord
from repro.device.spec import DeviceSpec, stable_seed
from repro.nn.graph import Network

__all__ = ["LayerProfiler", "profile_forward"]


class LayerProfiler:
    """Accumulate per-layer latency tables from hooked forward passes.

    Use as a context manager around any code that runs forwards::

        with LayerProfiler(net, xavier()) as prof:
            for _ in range(120):
                net.forward_one(x)
        table = prof.table()            # LatencyTable, warm-up discarded
        est = ProfilerEstimator(net, table)

    Parameters
    ----------
    net, spec:
        The built network to observe and the device whose timing model
        supplies per-kernel latencies.
    warmup:
        Number of leading runs discarded from :meth:`table` — the device's
        cold-start ramp; the default matches the paper's 200-run warm-up.
        :meth:`warm_up` jumps the run counter past the ramp without paying
        for real forwards (the counterpart of
        :meth:`repro.device.ServiceTimeSampler.warm_up`).
    rng:
        Seed or generator for measurement noise — fixed seed, identical
        tables.
    """

    def __init__(self, net: Network, spec: DeviceSpec,
                 rng: np.random.Generator | int | None = None,
                 fused: bool = True, precision: str = "fp32",
                 warmup: int = 200):
        if not net.built:
            raise RuntimeError(f"network {net.name!r} must be built first")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.net = net
        self.spec = spec
        self.warmup = warmup
        if rng is None:
            rng = stable_seed("obs-profile", net.name, spec.name)
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self._rng = rng
        breakdown = network_latency(net, spec, fused=fused,
                                    precision=precision)
        self._kernel_ms = {k.anchor: k.latency_ms for k in breakdown.kernels}
        self._kernel_nodes = {k.anchor: k.node_names
                              for k in breakdown.kernels}
        # a kernel is "done" when its last fused member node has executed
        self._closer = {g.node_names[-1]: g.anchor
                        for g in fuse_kernels(net, enabled=fused)}
        self._first_node = next(iter(net.nodes))
        # per-run accumulation
        self._runs: int = 0
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._e2e_sum = 0.0
        self._e2e_runs = 0
        self._current: dict[str, float] | None = None
        self._run_factors: tuple[float, float] = (1.0, 1.0)
        self._handle: int | None = None

    # -- attachment ----------------------------------------------------------
    def attach(self) -> "LayerProfiler":
        """Register the forward hook (idempotent). Returns ``self``."""
        if self._handle is None:
            self._handle = self.net.register_forward_hook(self._on_node)
        return self

    def detach(self) -> None:
        """Unregister the hook; accumulated runs are kept."""
        if self._handle is not None:
            self.net.remove_hook(self._handle)
            self._handle = None

    def __enter__(self) -> "LayerProfiler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def warm_up(self, runs: int | None = None) -> None:
        """Advance the run counter past the cold-start ramp for free.

        Warm-up runs exist only to move the device past its clock ramp;
        their activations are irrelevant, so skipping the real forwards is
        equivalent to executing them and much cheaper. Defaults to skipping
        exactly the configured ``warmup`` discard.
        """
        self._runs += self.warmup if runs is None else int(runs)
        self._current = None

    # -- the hook ------------------------------------------------------------
    def _on_node(self, net, node, ins, out) -> None:
        if node.name == self._first_node:
            # a new forward pass: fix this run's warm-up/noise regime
            warm = 1.0 + self.spec.warmup_factor * np.exp(
                -self._runs / self.spec.warmup_decay_runs)
            straggler = 1.0
            if self._rng.random() < self.spec.straggler_prob:
                straggler = (1.0 + self.spec.straggler_scale
                             * self._rng.random())
            self._run_factors = (warm, straggler)
            self._current = {}
            self._runs += 1
        if self._current is None:
            return      # attached mid-forward; wait for the next full pass
        anchor = self._closer.get(node.name)
        if anchor is None:
            return      # fused into a later node's kernel
        warm, straggler = self._run_factors
        noise = max(float(self._rng.normal(1.0, self.spec.noise_std)), 0.5)
        true_ms = self._kernel_ms[anchor] * warm * noise * straggler
        self._current[anchor] = true_ms
        if node.name == self.net.output_name:
            self._finish_run()

    def _finish_run(self) -> None:
        assert self._current is not None
        overhead = self.spec.event_overhead_ms()
        warm, straggler = self._run_factors
        if self._runs > self.warmup:
            for anchor, true_ms in self._current.items():
                # the event record inflates every kernel — the artefact the
                # paper's ratio formula exists to cancel
                recorded = true_ms + overhead * warm * straggler
                self._sums[anchor] = self._sums.get(anchor, 0.0) + recorded
                self._counts[anchor] = self._counts.get(anchor, 0) + 1
            self._e2e_sum += sum(self._current.values())
            self._e2e_runs += 1
        self._current = None

    # -- read-out ------------------------------------------------------------
    @property
    def runs(self) -> int:
        """Forward passes observed so far (including warm-up runs)."""
        return self._runs

    @property
    def recorded_runs(self) -> int:
        """Runs that survived the warm-up discard."""
        return self._e2e_runs

    def table(self) -> LatencyTable:
        """Average the recorded runs into a profiling table."""
        if not self._e2e_runs:
            raise RuntimeError(
                f"no profiled runs past the {self.warmup}-run warm-up; "
                "run more forwards while attached")
        records = tuple(
            LayerRecord(anchor, self._kernel_nodes[anchor],
                        self._sums[anchor] / self._counts[anchor])
            for anchor in self._kernel_ms if anchor in self._sums)
        return LatencyTable(self.net.name, self.spec.name, records,
                            self._e2e_sum / self._e2e_runs)

    def snapshot(self) -> dict:
        """Profiler state as a plain dict (for the metrics registry)."""
        out = {"network": self.net.name, "device": self.spec.name,
               "runs": self._runs, "recorded_runs": self._e2e_runs,
               "warmup": self.warmup}
        if self._e2e_runs:
            table = self.table()
            out["end_to_end_ms"] = table.end_to_end_ms
            out["recorded_total_ms"] = table.recorded_total_ms
        return out


def profile_forward(net: Network, spec: DeviceSpec,
                    x: np.ndarray | None = None, runs: int = 100,
                    warmup: int = 200,
                    rng: np.random.Generator | int | None = None,
                    **kwargs) -> LatencyTable:
    """Drive ``runs`` recorded forwards through a fresh :class:`LayerProfiler`.

    The convenience entry point behind ``python -m repro profile``: skips
    the ``warmup`` cold-start runs (paper protocol: 200), builds a zero
    input when ``x`` is omitted (profiling only cares about execution, not
    activations) and returns the accumulated table.
    """
    if runs < 1:
        raise ValueError(f"need at least one recorded run, got {runs}")
    if x is None:
        x = np.zeros(net.input_shape, dtype=np.float32)
    x = np.asarray(x)
    # a single un-batched sample goes through the explicit single-sample
    # API; anything batched profiles as one run per forward pass
    run = net.forward_one if x.shape == net.input_shape else net.forward
    with LayerProfiler(net, spec, rng=rng, warmup=warmup,
                       **kwargs) as prof:
        prof.warm_up()
        for _ in range(runs):
            run(x)
    return prof.table()
