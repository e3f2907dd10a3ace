"""Outside-in per-layer tracing: timing wrappers around public functions.

The program under test is not edited. :meth:`Tracer.install` replaces each
function in :data:`TARGETS` with a wrapper that records a span (name,
``perf_counter_ns`` start and end, parent span, and the request id when
the call takes or returns a request) and accumulates per-function counts.
A function's *self time* is its span's duration minus the time covered by
wrapped calls made inside it, so the self times of every call under one
root sum exactly to the root's duration.

Only the first MAX_SPANS spans are kept (enough for a Chrome-trace view of
one replay); the per-function totals cover every call.
"""

from __future__ import annotations

import importlib
import json
import time

MAX_SPANS = 20_000

#: (layer, module the attribute is patched in, attribute path). A layer is
#: named after the repro module that owns the function. network_latency is
#: patched where repro.device.runtime binds it, the only caller on the
#: serving path.
TARGETS = [
    ("cluster.router", "repro.cluster.router", "Router.run"),
    ("cluster.policy", "repro.cluster.policies", "DeadlineAwareP2C.choose"),
    ("cluster.replica", "repro.cluster.replica", "Replica.advance"),
    ("cluster.replica", "repro.cluster.replica",
     "Replica.estimate_finish_ms"),
    ("cluster.replica", "repro.cluster.replica", "Replica.healthy"),
    ("serve.server", "repro.serve.server", "Server.run_trace"),
    ("serve.engine", "repro.serve.engine", "Engine.run_until"),
    ("serve.queue", "repro.serve.queue", "EDFQueue.push"),
    ("serve.queue", "repro.serve.queue", "EDFQueue.pop"),
    ("serve.queue", "repro.serve.queue", "EDFQueue.peek"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.form"),
    ("serve.ladder", "repro.serve.ladder", "TRNRung.estimate_ms"),
    ("serve.ladder", "repro.serve.ladder", "TRNRung.sample_service_ms"),
    ("serve.ladder", "repro.serve.ladder", "TRNRung.forward"),
    ("serve.ladder", "repro.serve.ladder", "HysteresisController.observe"),
    ("serve.ladder", "repro.serve.ladder", "TRNLadder.resort"),
    ("serve.metrics", "repro.serve.metrics", "ServerMetrics.record_response"),
    ("serve.metrics", "repro.serve.metrics", "ServerMetrics.record_arrival"),
    ("serve.metrics", "repro.serve.metrics",
     "ServerMetrics.record_admission"),
    ("serve.metrics", "repro.serve.metrics",
     "ServerMetrics.record_rejection"),
    ("serve.metrics", "repro.serve.metrics", "ServerMetrics.record_batch"),
    ("device.runtime", "repro.device.runtime",
     "ServiceTimeSampler.sample_ms"),
    ("device.runtime", "repro.device.runtime", "ServiceTimeSampler.base_ms"),
    ("device.latency", "repro.device.runtime", "network_latency"),
    ("nn.compile", "repro.nn.compile", "CompiledNetwork.run"),
    ("obs.telemetry", "repro.obs.telemetry", "Telemetry.maybe_sample"),
    ("obs.telemetry", "repro.obs.telemetry", "Telemetry.sample"),
    ("obs.drift", "repro.obs.drift", "DriftMonitor.observe"),
    ("netcut.online", "repro.netcut.online", "ReestimationController.record"),
    ("netcut.online", "repro.netcut.online",
     "ReestimationController.maybe_reestimate"),
    ("workload.tenancy", "repro.workload.tenancy",
     "WeightedFairAdmission.allow"),
    ("workload.tenancy", "repro.workload.tenancy",
     "WeightedFairAdmission.record"),
    ("faults", "repro.faults.inject", "FaultInjector.tick"),
    ("faults", "repro.faults.inject", "FaultInjector.effective_capacity"),
    ("faults", "repro.faults.inject", "FaultedRung.sample_service_ms"),
    ("faults", "repro.faults.resilience", "CircuitBreaker.allow"),
    ("faults", "repro.faults.resilience", "CircuitBreaker.record_success"),
    ("faults", "repro.faults.resilience", "CircuitBreaker.record_failure"),
]

#: per-call quantities summed alongside the call count, keyed by span name
MEASURES = {
    # requests per formed micro-batch
    "serve.batcher.MicroBatcher.form": lambda args, out: len(out),
    # samples pushed through compiled forwards
    "nn.compile.CompiledNetwork.run": lambda args, out: len(args[1]),
    # re-estimations that were applied rather than gated
    "netcut.online.ReestimationController.maybe_reestimate":
        lambda args, out: out is not None,
}


def _rid(args: tuple, result):
    """The request id a call takes (first argument) or returns, if any."""
    for value in (result, args[1] if len(args) > 1 else None):
        rid = getattr(value, "rid", None)
        if isinstance(rid, int):
            return rid
    return None


class Tracer:
    """Span recorder with per-function ``[calls, self_ns, measure]`` totals."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.layers: dict[str, str] = {}
        self.spans: list = []
        self._stack: list = []
        self._root_self = [0]
        self._patches: list = []

    def wrap(self, layer: str, name: str, fn, measure=None):
        """A wrapper around ``fn`` that records under ``name`` in ``layer``."""
        self.layers[name] = layer
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        root = self._root_self
        spans = self.spans
        clock = self.clock

        def traced(*args, **kwargs):
            # frame: [ns covered by wrapped children, own span index]
            frame = [0, -1]
            parent = stack[-1][1] if stack else -1
            if len(spans) < MAX_SPANS:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    root[0] += dur - frame[0]
                if frame[1] >= 0:
                    spans[frame[1]] = (name, start, end, parent,
                                       _rid(args, result))
            if measure is not None:
                stat[2] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every target with a recording wrapper."""
        for layer, module_name, path in targets:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            # vars(): a target that moved to a base class fails loudly
            original = vars(owner)[attr]
            name = f"{layer}.{path}"
            setattr(owner, attr,
                    self.wrap(layer, name, original, MEASURES.get(name)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer."""
        out: dict[str, int] = {}
        for name, (_calls, self_ns, _m) in self.stats.items():
            layer = self.layers[name]
            out[layer] = out.get(layer, 0) + self_ns
        return out

    def total_self_ns(self) -> int:
        """Self time of every recorded call (= the roots' durations)."""
        return sum(stat[1] for stat in self.stats.values())

    def root_self_ns(self) -> int:
        """Self time of calls made outside any other wrapped call."""
        return self._root_self[0]

    def metrics(self, replays: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over ``replays`` traced replays of ``wall_s``.

        ``<layer>.<function>.calls`` is calls per replay and ``.self_us``
        the mean self time per call; ``<layer>.share`` is the layer's self
        time over the traced replay wall time, and
        ``trace.unattributed_share`` the same for the roots' own code.
        """
        wall_ns = wall_s * 1e9
        out: dict[str, float] = {}
        for layer, _module, path in TARGETS:
            name = f"{layer}.{path}"
            calls, self_ns, _m = self.stats.get(name, (0, 0, 0))
            out[name + ".calls"] = calls / replays
            out[name + ".self_us"] = self_ns / calls / 1e3 if calls else 0.0
        for layer, ns in sorted(self.layer_self_ns().items()):
            out[layer + ".share"] = ns / wall_ns
        form = self.stats["serve.batcher.MicroBatcher.form"]
        out["serve.batcher.batch_mean"] = form[2] / form[0] if form[0] else 0.0
        run = self.stats["nn.compile.CompiledNetwork.run"]
        out["nn.compile.run.samples"] = run[2] / replays
        fit = self.stats[
            "netcut.online.ReestimationController.maybe_reestimate"]
        out["netcut.online.fit_applied_frac"] = \
            fit[2] / fit[0] if fit[0] else 0.0
        out["trace.unattributed_share"] = self.root_self_ns() / wall_ns
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Dump the kept spans in Chrome trace-event format."""
        kept = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in kept), default=0)
        events = []
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, rid = span
            args = {"id": i, "parent": parent}
            if rid is not None:
                args["rid"] = rid
            events.append({"name": name, "cat": self.layers[name],
                           "ph": "X", "pid": 0, "tid": 0,
                           "ts": (start - t0) / 1e3,
                           "dur": (end - start) / 1e3, "args": args})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
