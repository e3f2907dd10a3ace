"""The benchmark's four serving workloads, and the child process that runs one.

Each workload is built from the public serving stack as a user would deploy
it: a ladder of the mixed Pareto frontier over every ``LadderBuilder``
strategy (``frontier_artifacts(build_rungs(base, xavier(), max_rungs=4))``),
served by a ``Server`` or by a ``Router`` over ``Replica``s. A workload's
*set-up* (imports, base network, rung builds, ladder compile, forward
warm-up) is paid once per process; each *replay* creates the per-run
objects (server engine, replicas, router, telemetry, drift monitor, fault
injector) and serves one whole trace from a cold ladder.

Traces are open-loop arrival schedules in virtual time. Trace ``j`` of seed
``s`` is drawn from ``numpy.random.default_rng([s, j])`` before any timing
starts. Virtual latency already counts queueing from each scheduled
arrival, so no generator lateness applies; every trace is replayed as fast
as the host allows. A run replays its ``traces`` distinct traces in turn
and then the first again, and pools the virtual-time outcome of the
distinct ones: one trace's percentiles vary by up to a third between seeds.

run.py starts this file as a child process, one per workload and set-up
sample::

    python3 benchmarks/e2e/workloads.py --workload serve_burst --seed 0 \\
        --seconds 20 --trace 0 [--setup-only] [--scale 0.05]

and reads the one JSON line it prints.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here, before `import repro`

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from repro.cluster import DeadlineAwareP2C, Replica, Router  # noqa: E402
from repro.data.synthetic import render_object, sample_object  # noqa: E402
from repro.device import xavier  # noqa: E402
from repro.faults import FaultInjector, ThermalThrottle  # noqa: E402
from repro.netcut import build_rungs, frontier_artifacts  # noqa: E402
from repro.obs import DriftMonitor, Telemetry  # noqa: E402
from repro.serve import Server, ServerConfig, TRNLadder, poisson_trace  # noqa: E402
from repro.workload import (  # noqa: E402
    DiurnalCycle,
    FlashCrowd,
    Superposition,
    TenantClass,
    TenantMix,
    WeightedFairAdmission,
    generate_trace,
)
from repro.zoo import build_network  # noqa: E402

from tracer import Tracer  # noqa: E402

OUTPUT_CHECKS = 64          # compiled outputs compared per replay
#: calibration_s() on the reference host (a 2-vCPU Xeon VM); host_rps and
#: setup_s are what a host running calibration_s() in this time would take
CALIBRATION_S = 0.05
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")


def mixed_ladder(net: str) -> TRNLadder:
    """The mixed-strategy Pareto frontier of one zoo net, as a ladder."""
    base = build_network(net).build(0)
    per_strategy = build_rungs(base, xavier(), max_rungs=4)
    # flatten in sorted-strategy order: frontier tie-breaks between equal
    # points then never depend on dict order
    mixed = [a for s in sorted(per_strategy) for a in per_strategy[s]]
    return TRNLadder.from_artifacts(frontier_artifacts(mixed), xavier())


class ServeBurst:
    """One server; only the serve loop runs (no compute, no telemetry)."""

    traces = 11
    requests = 20_000       # per trace
    rate_rps = 8000.0
    deadline_ms = 3.0

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.ladder = mixed_ladder("mobilenet_v1_0.5")
        self.ladders = [self.ladder]
        self.config = ServerConfig(
            deadline_ms=self.deadline_ms, queue_capacity=64, window=16,
            min_observations=8, cooldown=8, execute=False)

    def size(self) -> int:
        return max(1, int(self.requests * self.scale))

    def trace(self, rng: np.random.Generator) -> list:
        # a 4x burst over the middle 40% of the requests
        return poisson_trace(self.size(), self.rate_rps, self.deadline_ms,
                             rng=rng, burst=(0.3, 0.7, 4.0))

    def serve(self, trace: list):
        return Server(self.ladder, self.config).run_trace(trace)


class ClusterP2C(ServeBurst):
    """Three replicas behind deadline-aware power-of-two-choices routing.

    Routing probes every replica's finish estimate for each arrival, and
    this is the only workload with telemetry sampling on.
    """

    requests = 10_000
    rate_rps = 44_000.0
    replicas = 3

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        # samplers are stateful, so every replica owns its ladder
        self.ladders = [self.ladder] + [mixed_ladder("mobilenet_v1_0.5")
                                        for _ in range(self.replicas - 1)]

    def trace(self, rng: np.random.Generator) -> list:
        return poisson_trace(self.size(), self.rate_rps, self.deadline_ms,
                             rng=rng)

    def serve(self, trace: list):
        telemetry = Telemetry(sample_interval_ms=1.0)
        fleet = [Replica(f"r{i}", ladder, replace(self.config, seed=i),
                         telemetry=telemetry)
                 for i, ladder in enumerate(self.ladders)]
        return Router(fleet, DeadlineAwareP2C(0),
                      telemetry=telemetry).run(trace)


class ExecuteResNet50(ServeBurst):
    """One server running real compiled resnet50 forwards per batch."""

    traces = 8
    requests = 2000
    payloads = 128

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.ladder = mixed_ladder("resnet50")
        self.ladders = [self.ladder]
        full_ms = self.ladder.rungs[0].estimate_ms(1)
        self.deadline_ms = 3.0 * full_ms
        self.rate_rps = 0.6e3 / full_ms
        self.config = ServerConfig(
            deadline_ms=self.deadline_ms, queue_capacity=64, window=16,
            min_observations=8, cooldown=8, execute=True)
        # allocate every rung's arenas at every batch size the batcher
        # can form, so no replay pays first-call costs
        for rung in self.ladder.rungs:
            x = np.zeros(rung.network.input_shape, dtype=np.float32)
            for size in range(1, self.config.max_batch + 1):
                rung.forward([x] * size)

    def trace(self, rng: np.random.Generator) -> list:
        pool = [render_object(sample_object(rng), size=32, rng=rng)
                for _ in range(self.payloads)]
        trace = poisson_trace(self.size(), self.rate_rps, self.deadline_ms,
                              rng=rng)
        for i, req in enumerate(trace):
            req.x = pool[i % self.payloads]
        return trace


class OnlineThrottle(ServeBurst):
    """Two tenants, a flash crowd and a thermal throttle, with online NetCut.

    The only workload that rewrites the ladder (recalibrate, resort and
    rebuild) while serving, and that exercises drift, faults, circuit
    breakers and tenant admission.
    """

    traces = 22
    horizon_ms = 1000.0
    base_rps = 3000.0

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.tenants = TenantMix([
            TenantClass("interactive", deadline_ms=3.0, weight=3.0,
                        share=0.1, priority=1),
            TenantClass("batch", deadline_ms=12.0, weight=1.0, share=0.9)])
        self.config = replace(
            self.config,
            admission_policy=WeightedFairAdmission(self.tenants,
                                                   watermark=0.25),
            resilience=True, online_reestimation=True,
            reestimate_method="svr", reestimate_cooldown_ms=10.0,
            reestimate_min_samples=8, reestimate_max_samples=16)

    def trace(self, rng: np.random.Generator) -> list:
        horizon = self.horizon_ms * self.scale
        process = Superposition(
            DiurnalCycle(self.base_rps, amplitude=0.5, period_ms=horizon),
            FlashCrowd(self.base_rps / 3, peak_multiplier=8.0,
                       start_ms=0.35 * horizon, ramp_ms=0.05 * horizon,
                       hold_ms=0.2 * horizon, decay_ms=0.1 * horizon))
        return generate_trace(process, horizon, tenants=self.tenants,
                              rng=rng)

    def serve(self, trace: list):
        # the throttle covers the middle half of the trace
        span = trace[-1].arrival_ms
        faults = FaultInjector([ThermalThrottle(
            start_ms=0.25 * span, duration_ms=0.5 * span, factor=2.5,
            ramp_ms=0.03 * span)], seed=0)
        drift = DriftMonitor(threshold=0.2, window=16, min_observations=8,
                             cooldown=8)
        # Server.run_trace wraps the ladder in fault proxies, which sorts
        # the rungs by their current estimates, before the engine restores
        # the deployment tables; a previous replay's re-estimation would
        # then start this one on another rung. Restore the tables first.
        for rung in self.ladder.rungs:
            rung.recalibrate(1.0)
        return Server(self.ladder, self.config, drift=drift,
                      faults=faults).run_trace(trace)


WORKLOADS = {
    "serve_burst": ServeBurst,
    "cluster_p2c": ClusterP2C,
    "execute_resnet50": ExecuteResNet50,
    "online_throttle": OnlineThrottle,
}


# -- outcomes ---------------------------------------------------------------

def tally(result, trace: list, accuracy: dict) -> dict:
    """One replay's virtual-time outcome, reduced to counts and latencies."""
    responses = result.responses
    completed = [r for r in responses if r.status == "completed"]
    ontime = [r for r in completed if r.deadline_met]
    replicas = getattr(result, "replicas", None)
    engines = [result.metrics] if replicas is None \
        else [r.metrics for r in replicas]
    return {
        "sent": len(trace),
        "completed": len(completed),
        "rejected": sum(r.status == "rejected" for r in responses),
        "dropped": sum(r.status == "dropped" for r in responses),
        "lost": len(trace) - len({r.rid for r in responses}),
        "ontime": len(ontime),
        "ontime_accuracy": sum(accuracy[r.rung] for r in ontime),
        "transitions": sum(m.counters[k].value for m in engines
                           for k in ("degrade_events", "upgrade_events",
                                     "ladder_rebuilds")),
        "latency_ms": np.array([r.latency_ms for r in completed]),
    }


def pooled(tallies: list[dict]) -> dict:
    """The virtual-time metrics of several replays' tallies together.

    Rejected and dropped requests count as misses: ``ontime_frac`` is
    on-time completions over every request *sent*. Percentiles are over
    completed requests; ``served_acc`` is the mean accuracy proxy of the
    rungs that served on-time requests.
    """
    out = {k: sum(t[k] for t in tallies)
           for k in ("sent", "completed", "rejected", "dropped", "lost",
                     "ontime", "ontime_accuracy", "transitions")}
    latency = np.concatenate([t["latency_ms"] for t in tallies])
    p50, p99 = np.percentile(latency, [50, 99]).tolist()
    out.update(
        ontime_frac=out["ontime"] / out["sent"],
        fail_frac=(out["rejected"] + out["dropped"]) / out["sent"],
        p50_ms=p50, p99_ms=p99,
        served_acc=out.pop("ontime_accuracy") / out["ontime"],
        transitions=out["transitions"] / len(tallies))
    return out


def rung_accuracy(workload) -> dict:
    """Capacity-accuracy proxy of every rung, by rung name."""
    return {r.name: float(r.accuracy)
            for ladder in workload.ladders for r in ladder.rungs}


# -- checks -----------------------------------------------------------------

def digest(responses: list) -> str:
    """A hash of every response's (rid, status, rung, finish, batch size)."""
    h = hashlib.sha256()
    for r in sorted(responses, key=lambda r: r.rid):
        h.update(f"{r.rid},{r.status},{r.rung},{r.finish_ms!r},"
                 f"{r.batch_size}\n".encode())
    return h.hexdigest()


def conservation_errors(responses: list, trace: list) -> list[str]:
    """Every request gets exactly one terminal response."""
    errors = []
    rids = [r.rid for r in responses]
    if sorted(rids) != sorted(req.rid for req in trace):
        errors.append(f"conservation: {len(set(rids))} distinct responses "
                      f"({len(rids)} total) for {len(trace)} requests")
    done = sum(r.status in ("completed", "rejected", "dropped")
               for r in responses)
    if done != len(trace):
        errors.append(f"conservation: completed + rejected + dropped = "
                      f"{done} != {len(trace)} sent")
    return errors


def output_samples(result) -> list:
    """(rid, rung, output) of the first OUTPUT_CHECKS completed requests."""
    done = (r for r in result.responses if r.status == "completed")
    return [(r.rid, r.rung, r.output)
            for r, _ in zip(done, range(OUTPUT_CHECKS))]


def output_errors(samples: list, trace: list, ladders: list,
                  references: dict) -> list[str]:
    """Compiled outputs agree with an uncompiled copy of the serving rung."""
    if not samples:
        return ["outputs: no completed request to check"]
    if any(output is None for _, _, output in samples):
        return ["outputs: a completed request has no output"]
    rungs = {r.name: r for ladder in ladders for r in ladder.rungs}
    inputs = {req.rid: req.x for req in trace}
    by_rung: dict[str, list] = {}
    for rid, rung, output in samples:
        by_rung.setdefault(rung, []).append((rid, output))
    for rung, served in sorted(by_rung.items()):
        if rung not in references:
            references[rung] = rungs[rung].network.copy()
        # one interpreted forward per rung over all its sampled inputs
        want = references[rung].forward(
            np.stack([inputs[rid] for rid, _ in served]))
        got = np.stack([output for _, output in served])
        if not np.allclose(got, want, rtol=1e-3, atol=1e-4):
            return [f"outputs: {rung} differs from its uncompiled forward "
                    f"by up to {float(np.max(np.abs(got - want))):.3g}"]
    return []


# -- the run ----------------------------------------------------------------

def calibration_s() -> float:
    """Seconds this host takes for a fixed mix of interpreter and NumPy work.

    The mix (heap, dict and float operations; small quantiles and a small
    GEMM) resembles the serving stack's. On a shared host the speed of the
    whole machine drifts by 10-30% over tens of seconds; timing this loop
    beside each replay and after set-up lets host_rps and setup_s be
    scaled to a reference speed. The collector is off while it runs, so
    the program's live objects do not slow the loop down.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        heap, counts, acc = [], {}, 0.0
        for i in range(20_000):
            heapq.heappush(heap, (i * 7919 % 1009, i))
            counts[i % 512] = counts.get(i % 512, 0) + 1
            acc += math.sqrt(i)
        while heap:
            heapq.heappop(heap)
        a = np.arange(32.0)
        x = np.ones((64, 576), np.float32)
        w = np.ones((576, 64), np.float32)
        for _ in range(300):
            np.quantile(a, 0.99)
            x @ w
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_scale() -> float:
    """Reference calibration time over this host's current one."""
    return CALIBRATION_S / statistics.median(
        calibration_s() for _ in range(3))


def measure(workload, name: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Replay the seeded traces for ``seconds``; check and summarise them.

    Untraced runs replay every trace and then the first again (at least),
    so each run checks that a replay reproduces its outcome; the host is
    calibrated before the first and after every replay. Traced runs replay
    each trace untraced and then traced, back to back (at least two
    traces), which gives the tracing overhead under the same host
    conditions and checks that tracing does not change the outcome.
    """
    traces = [workload.trace(np.random.default_rng([seed, j]))
              for j in range(workload.traces)]
    accuracy = rung_accuracy(workload)
    tracer = Tracer() if traced else None
    if traced:
        order = [(j, mode) for j in range(len(traces)) for mode in (0, 1)]
        least = 4
    else:
        order = [(j, 0) for j in range(len(traces))]
        least = len(traces) + 1
    walls: dict[int, list] = {0: [], 1: []}
    rates: list[float] = []
    raw_rates: list[float] = []
    calibrations = [] if traced else [calibration_s()]
    digests: dict[int, str] = {}
    tallies: dict[int, dict] = {}
    samples: list = []
    failed: list[str] = []
    attempted = unserved = 0
    start = time.perf_counter()
    replays = 0
    while replays < least or time.perf_counter() - start < seconds:
        j, mode = order[replays % len(order)]
        replays += 1
        trace = traces[j]
        if mode:
            tracer.install()
        try:
            t = time.perf_counter()
            result = workload.serve(trace)
            wall = time.perf_counter() - t
        finally:
            if mode:
                tracer.uninstall()
        walls[mode].append(wall)
        if not traced:
            calibrations.append(calibration_s())
            # the replay ran between the two calibrations beside it
            host_s = (calibrations[-2] + calibrations[-1]) / 2
            raw_rates.append(len(trace) / wall)
            rates.append(raw_rates[-1] * host_s / CALIBRATION_S)
        outcome_digest = digest(result.responses)
        if digests.setdefault(j, outcome_digest) != outcome_digest:
            failed.append(f"determinism: a replay of trace {j} changed its "
                          f"outcome digest")
        if j not in tallies:
            tallies[j] = tally(result, trace, accuracy)
        failed += [e for e in conservation_errors(result.responses, trace)
                   if e not in failed]
        if workload.config.execute:
            samples.append((j, output_samples(result)))
        attempted += len(trace)
        unserved += tallies[j]["dropped"] + tallies[j]["lost"]
        del result
    # read before the output checks allocate their reference networks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    references: dict = {}
    for j, sample in samples:
        failed += [e for e in output_errors(sample, traces[j],
                                            workload.ladders, references)
                   if e not in failed]
    out = pooled(list(tallies.values()))
    report = {
        "replays": replays,
        "traces": len(tallies),
        "attempted": attempted,
        "failed": unserved,
        "outcome": out,
        "failed_checks": failed,
    }
    if not traced:
        report["host_rps_unscaled"] = statistics.median(raw_rates)
        report["metrics"] = {
            "host_rps": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
            "ontime_frac": out["ontime_frac"],
            "p50_ms": out["p50_ms"],
            "p99_ms": out["p99_ms"],
            "served_acc": out["served_acc"],
        }
        return report
    wall_s = sum(walls[1])
    layers = tracer.metrics(len(walls[1]), wall_s)
    # each traced replay follows the untraced replay of the same trace
    layers["trace.overhead"] = statistics.median(
        t / u for u, t in zip(walls[0], walls[1])) - 1
    layers["serve.ladder.transitions"] = out["transitions"]
    coverage = tracer.total_self_ns() / (wall_s * 1e9)
    if abs(coverage - 1) > 0.05:
        failed.append(f"trace: per-layer self times sum to "
                      f"{100 * coverage:.1f}% of the traced replay wall")
    report["metrics"] = layers
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.write_chrome_trace(
        os.path.join(RESULTS_DIR, f"e2e_trace_{name}.json"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-size factor (run.py --quick uses 0.05)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, report set-up time, exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.scale)
    setup_s = time.perf_counter() - _T0
    report = {"setup_s": setup_s * host_scale(), "setup_s_unscaled": setup_s}
    if not args.setup_only:
        report.update(measure(workload, args.workload, args.seed,
                              args.seconds, bool(args.trace)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
