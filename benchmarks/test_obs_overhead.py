"""Observability overhead benchmark — what does tracing cost the server?

The tracer and drift monitor sit on the serving hot path (one span per
request life-cycle step, one drift observation per executed batch),
guarded by ``if tracer is not None`` so the untraced path is untouched.
This benchmark replays the PR-1 serve-throughput scenario
(MobileNetV1(0.5) TRN ladder on the simulated Xavier, Poisson overload at
1.3x capacity) with and without observability attached, in two regimes:

- **Inference serving** (``execute=True``): every batch runs a real
  forward pass, as a deployed server would. This is where the
  "observability is cheap enough to leave on" claim lives.
- **Simulator-only** (``execute=False``): the PR-1 timing regime, where a
  request costs only bookkeeping. This regime is guarded only against
  gross regressions in per-span and per-sample cost.

Both regimes bound the wall time observability *adds per request*,
scaled to a reference host by a fixed interpreter calibration loop timed
in the same schedule. A ratio over the plain request would move whenever
the serve loop itself got faster or slower, and the host's own speed
drifts run to run.

Both regimes take the *minimum* over several runs per variant in
seeded-random order: minima converge to the noise-free cost on a shared
machine, and shuffling keeps load drift from landing on one variant.
Garbage is collected and the trace buffer cleared outside the timed
region so each timing sees only the serving work itself.
"""

import gc
import heapq
import math
import random
import time

import pytest

from repro.device import xavier
from repro.obs import DriftMonitor, Telemetry, Tracer
from repro.serve import Server, ServerConfig, TRNLadder, poisson_trace
from repro.zoo import build_network

from conftest import emit

REQUESTS = 400
DEADLINE_MS = 0.9
# Every ceiling is µs added per request, scaled to a host that runs
# _calibration_loop() in CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.0186
# Inference serving: each admits the absolute overhead the former 10%
# ceiling admitted over the plain inference request, 497 µs at the
# reference speed (26.7 µs per calibration-ms, median of ten runs of
# this file's min-of-N protocol on a shared 2-vCPU Xeon VM).
EXEC_TRACING_CEILING_US = 50.0     # 0.10 x 497 µs
EXEC_TELEMETRY_CEILING_US = 50.0   # 0.10 x 497 µs
# Simulator-only gross-regression guards. Each admits the absolute
# overhead a ratio ceiling (40% tracing, 80% telemetry) over the plain
# simulator-only request admitted while that request still made
# per-response NumPy calls: 157 µs at the reference speed (8.45 µs per
# calibration-ms, median of nine runs on a shared 2-vCPU Xeon VM).
SIM_TRACING_CEILING_US = 63.0     # 0.40 x 157 µs
SIM_TELEMETRY_CEILING_US = 126.0  # 0.80 x 157 µs: telemetry maintains the
                                  # whole labeled surface (family mirrors
                                  # + per-virtual-ms store samples)
EXEC_RUNS = 8               # runs per variant, execute=True (~0.4 s each)
MEASURE_ATTEMPTS = 3        # re-measure on a budget violation: a machine
                            # load spike flakes one attempt, a genuine
                            # per-span cost regression fails all of them
SIM_RUNS = 16               # runs per variant, simulator-only (10-60 ms)


@pytest.fixture(scope="module")
def ladder():
    base = build_network("mobilenet_v1_0.5").build(0)
    return TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)


@pytest.fixture(scope="module")
def trace(ladder):
    rate_rps = 1.3e3 / ladder.rungs[0].estimate_ms(1)
    return poisson_trace(REQUESTS, rate_rps, DEADLINE_MS, rng=0,
                         render=True)


def _calibration_loop() -> None:
    """A fixed mix of heap, dict and float work, the serve loop's kind.

    Timed beside the simulator-only runs, its minimum tracks the host's
    interpreter speed, so added time per request can be compared against
    a bound set on another host. The collector is off while it runs.
    """
    gc.disable()
    try:
        heap, counts, acc = [], {}, 0.0
        for i in range(10_000):
            heapq.heappush(heap, (i * 7919 % 1009, i))
            counts[i % 512] = counts.get(i % 512, 0) + 1
            acc += math.sqrt(i)
        while heap:
            heapq.heappop(heap)
    finally:
        gc.enable()


def _min_times(tracer, runs, *variants):
    """Min wall-clock per variant over a seeded-random run order."""

    def timed(fn):
        tracer.clear()
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    for fn in variants:                 # warm every path
        fn()
    schedule = [fn for fn in variants for _ in range(runs)]
    random.Random(0).shuffle(schedule)
    times = {fn: [] for fn in variants}
    for fn in schedule:
        times[fn].append(timed(fn))
    return [min(times[fn]) for fn in variants]


def _added_us(regime, plain_run, observed_run, tracer, runs, ceiling_us):
    """µs observability adds per request, host-scaled, and the report
    lines that show it."""
    for _ in range(MEASURE_ATTEMPTS):
        base_s, obs_s, calib_s = _min_times(
            tracer, runs, plain_run, observed_run, _calibration_loop)
        added_us = ((obs_s - base_s) / REQUESTS * 1e6
                    * CALIBRATION_REF_S / calib_s)
        if added_us < ceiling_us:
            break
    return added_us, [
        f"{regime:16s} {base_s:>11.4f} {obs_s:>9.4f} "
        f"{added_us:>+8.1f} µs/request at reference host speed "
        f"(ceiling {ceiling_us:.0f})",
        f"{'':16s} plain {1e6 * base_s / REQUESTS:.1f} µs/request, "
        f"calibration {1e3 * calib_s:.2f} ms "
        f"(reference {1e3 * CALIBRATION_REF_S:.1f})"]


def _servers(ladder, execute):
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=execute, seed=0)
    tracer, drift = Tracer(), DriftMonitor()
    return (Server(ladder, config),
            Server(ladder, config, tracer=tracer, drift=drift),
            tracer, drift)


@pytest.mark.obs
def test_bench_tracing_overhead(ladder, trace, benchmark):
    """Full observability (tracer + drift) stays cheap: bounded µs added
    per request to inference serving."""
    plain, observed, tracer, drift = _servers(ladder, execute=True)

    def plain_run():
        return plain.run_trace(trace)

    def traced_run():
        return observed.run_trace(trace)

    added_us, exec_lines = _added_us(
        "inference", plain_run, traced_run, tracer, EXEC_RUNS,
        EXEC_TRACING_CEILING_US)

    # the simulator-only regime: reported + bounded per request
    sim_plain, sim_obs, sim_tracer, _ = _servers(ladder, execute=False)
    sim_added_us, sim_lines = _added_us(
        "simulator-only", lambda: sim_plain.run_trace(trace),
        lambda: sim_obs.run_trace(trace), sim_tracer, SIM_RUNS,
        SIM_TRACING_CEILING_US)

    result = benchmark(traced_run)
    spans = len(tracer.spans()) + tracer.buffer.dropped
    lines = [f"{'regime':16s} {'untraced s':>11} {'traced s':>9} "
             f"{'added':>9}",
             *exec_lines,
             *sim_lines,
             f"{spans} spans/run, {drift.observations} drift observations",
             f"{REQUESTS} Poisson requests, deadline {DEADLINE_MS} ms, "
             f"min over {EXEC_RUNS}/{SIM_RUNS} runs per variant in "
             f"seeded-random order, seed 0"]
    emit("obs_overhead", lines)

    # tracing must not change the serving outcome, only observe it
    untraced = plain.run_trace(trace)
    assert result.metrics.snapshot() == untraced.metrics.snapshot()
    assert added_us < EXEC_TRACING_CEILING_US
    assert sim_added_us < SIM_TRACING_CEILING_US


@pytest.mark.obs
def test_bench_telemetry_overhead(ladder, trace):
    """Labeled telemetry (families + sampling) stays cheap: bounded µs
    added per request to inference serving.

    Same protocol as the tracing benchmark: ``ServerMetrics`` records into
    labeled families either way (a private telemetry when none is
    given), so the metered path adds only the gauges refreshed through
    registered collectors and the series store sampled once per virtual
    millisecond.
    """
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=True, seed=0)
    plain = Server(ladder, config)
    telemetry = Telemetry(sample_interval_ms=1.0)
    metered = Server(ladder, config, telemetry=telemetry)

    def plain_run():
        return plain.run_trace(trace)

    def metered_run():
        return metered.run_trace(trace)

    # telemetry's ring-buffer store is self-bounding, so there is nothing
    # to clear between runs; hand the helper an unused placeholder tracer
    added_us, exec_lines = _added_us(
        "inference", plain_run, metered_run, Tracer(), EXEC_RUNS,
        EXEC_TELEMETRY_CEILING_US)

    sim_config = ServerConfig(deadline_ms=DEADLINE_MS, execute=False, seed=0)
    sim_plain = Server(ladder, sim_config)
    sim_metered = Server(ladder, sim_config,
                         telemetry=Telemetry(sample_interval_ms=1.0))
    sim_added_us, sim_lines = _added_us(
        "simulator-only", lambda: sim_plain.run_trace(trace),
        lambda: sim_metered.run_trace(trace), Tracer(), SIM_RUNS,
        SIM_TELEMETRY_CEILING_US)

    samples = telemetry.samples_taken
    lines = [f"{'regime':16s} {'plain s':>11} {'metered s':>9} "
             f"{'added':>9}",
             *exec_lines,
             *sim_lines,
             f"{len(telemetry.families)} metric families, "
             f"{samples} store samples",
             f"{REQUESTS} Poisson requests, deadline {DEADLINE_MS} ms, "
             f"min over {EXEC_RUNS}/{SIM_RUNS} runs per variant in "
             f"seeded-random order, seed 0"]
    emit("obs_telemetry_overhead", lines)

    # telemetry must not change the serving outcome, only observe it
    assert metered_run().metrics.snapshot() == plain_run().metrics.snapshot()
    assert added_us < EXEC_TELEMETRY_CEILING_US
    assert sim_added_us < SIM_TELEMETRY_CEILING_US


@pytest.mark.obs
def test_bench_trace_buffer_stays_bounded(ladder, trace):
    """A tiny buffer drops old spans instead of growing or crashing."""
    tracer = Tracer(capacity=64)
    server = Server(ladder, ServerConfig(deadline_ms=DEADLINE_MS,
                                         execute=False, seed=0),
                    tracer=tracer)
    result = server.run_trace(trace)
    assert len(tracer.spans()) == 64
    assert tracer.buffer.dropped > 0
    # counts still see every span ever recorded
    assert tracer.count("respond") \
        == result.metrics.counters["completed"].value
