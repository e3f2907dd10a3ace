"""Observability overhead benchmark — what does tracing cost the server?

The tracer and drift monitor sit on the serving hot path (one span per
request life-cycle step, one drift observation per executed batch),
guarded by ``if tracer is not None`` so the untraced path is untouched.
This benchmark replays the PR-1 serve-throughput scenario
(MobileNetV1(0.5) TRN ladder on the simulated Xavier, Poisson overload at
1.3x capacity) with and without observability attached, in two regimes:

- **Inference serving** (``execute=True``): every batch runs a real
  forward pass, as a deployed server would. This is where the
  "observability is cheap enough to leave on" claim lives, and the traced
  run must stay within 10% of the untraced wall-clock.
- **Simulator-only** (``execute=False``): the PR-1 timing regime, where a
  request costs ~75µs of pure bookkeeping. Tracing's few spans per
  request are measurable against a denominator that small (~5-10% here,
  by design of the simulator, not of the tracer), so the ratio is
  reported for transparency and guarded only against gross regressions
  in per-span cost.

Both regimes take the *minimum* over several runs per variant in
seeded-random order: minima converge to the noise-free cost on a shared
machine, and shuffling keeps load drift from landing on one variant.
Garbage is collected and the trace buffer cleared outside the timed
region so each timing sees only the serving work itself.
"""

import gc
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
OVERHEAD_BUDGET = 0.10      # traced inference serving: at most 10% more
SIM_OVERHEAD_CEILING = 0.40  # simulator-only regime: gross-regression guard
SIM_TELEMETRY_CEILING = 0.80  # telemetry maintains the whole labeled
                              # surface (family mirrors + per-virtual-ms
                              # store samples), so against the simulator's
                              # ~75µs/request denominator it reads ~50%;
                              # the ceiling only catches gross regressions
EXEC_RUNS = 8               # runs per variant, execute=True (~0.4 s each)
MEASURE_ATTEMPTS = 3        # re-measure on a budget violation: a machine
                            # load spike flakes one attempt, a genuine
                            # per-span cost regression fails all of them
SIM_RUNS = 16               # runs per variant, simulator-only (~40 ms each)


@pytest.fixture(scope="module")
def ladder():
    base = build_network("mobilenet_v1_0.5").build(0)
    return TRNLadder.from_base(base, xavier(), num_classes=5, max_rungs=6)


@pytest.fixture(scope="module")
def trace(ladder):
    rate_rps = 1.3e3 / ladder.rungs[0].estimate_ms(1)
    return poisson_trace(REQUESTS, rate_rps, DEADLINE_MS, rng=0,
                         render=True)


def _min_ratio(plain_run, traced_run, tracer, runs):
    """Min wall-clock per variant over a seeded-random run order."""

    def timed(fn):
        tracer.clear()
        gc.collect()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    plain_run(), traced_run()           # warm both paths
    schedule = [plain_run] * runs + [traced_run] * runs
    random.Random(0).shuffle(schedule)
    times = {plain_run: [], traced_run: []}
    for fn in schedule:
        times[fn].append(timed(fn))
    return min(times[plain_run]), min(times[traced_run])


def _measured_overhead(plain_run, traced_run, tracer, runs, budget):
    for _ in range(MEASURE_ATTEMPTS):
        base_s, obs_s = _min_ratio(plain_run, traced_run, tracer, runs)
        overhead = obs_s / base_s - 1.0
        if overhead < budget:
            break
    return base_s, obs_s, overhead


def _servers(ladder, execute):
    config = ServerConfig(deadline_ms=DEADLINE_MS, execute=execute, seed=0)
    tracer, drift = Tracer(), DriftMonitor()
    return (Server(ladder, config),
            Server(ladder, config, tracer=tracer, drift=drift),
            tracer, drift)


@pytest.mark.obs
def test_bench_tracing_overhead(ladder, trace, benchmark):
    """Full observability (tracer + drift) adds <10% to inference serving."""
    plain, observed, tracer, drift = _servers(ladder, execute=True)

    def plain_run():
        return plain.run_trace(trace)

    def traced_run():
        return observed.run_trace(trace)

    base_s, obs_s, overhead = _measured_overhead(
        plain_run, traced_run, tracer, EXEC_RUNS, OVERHEAD_BUDGET)

    # the simulator-only regime: tiny denominator, reported + sanity-bound
    sim_plain, sim_obs, sim_tracer, _ = _servers(ladder, execute=False)
    sim_base_s, sim_obs_s, sim_overhead = _measured_overhead(
        lambda: sim_plain.run_trace(trace),
        lambda: sim_obs.run_trace(trace), sim_tracer, SIM_RUNS,
        SIM_OVERHEAD_CEILING)

    result = benchmark(traced_run)
    spans = len(tracer.spans()) + tracer.buffer.dropped
    lines = [f"{'regime':16s} {'untraced s':>11} {'traced s':>9} "
             f"{'overhead':>9}",
             f"{'inference':16s} {base_s:>11.4f} {obs_s:>9.4f} "
             f"{100 * overhead:>+8.2f}% (budget "
             f"{100 * OVERHEAD_BUDGET:.0f}%)",
             f"{'simulator-only':16s} {sim_base_s:>11.4f} {sim_obs_s:>9.4f} "
             f"{100 * sim_overhead:>+8.2f}% (ceiling "
             f"{100 * SIM_OVERHEAD_CEILING:.0f}%)",
             f"{spans} spans/run, {drift.observations} drift observations",
             f"{REQUESTS} Poisson requests, deadline {DEADLINE_MS} ms, "
             f"min over {EXEC_RUNS}/{SIM_RUNS} runs per variant in "
             f"seeded-random order, seed 0"]
    emit("obs_overhead", lines)

    # tracing must not change the serving outcome, only observe it
    untraced = plain.run_trace(trace)
    assert result.metrics.snapshot() == untraced.metrics.snapshot()
    assert overhead < OVERHEAD_BUDGET
    assert sim_overhead < SIM_OVERHEAD_CEILING


@pytest.mark.obs
def test_bench_telemetry_overhead(ladder, trace):
    """Labeled telemetry (families + sampling) adds <10% to inference.

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
    base_s, tel_s, overhead = _measured_overhead(
        plain_run, metered_run, Tracer(), EXEC_RUNS, OVERHEAD_BUDGET)

    sim_config = ServerConfig(deadline_ms=DEADLINE_MS, execute=False, seed=0)
    sim_plain = Server(ladder, sim_config)
    sim_metered = Server(ladder, sim_config,
                         telemetry=Telemetry(sample_interval_ms=1.0))
    sim_base_s, sim_tel_s, sim_overhead = _measured_overhead(
        lambda: sim_plain.run_trace(trace),
        lambda: sim_metered.run_trace(trace), Tracer(), SIM_RUNS,
        SIM_TELEMETRY_CEILING)

    samples = telemetry.samples_taken
    lines = [f"{'regime':16s} {'plain s':>11} {'metered s':>9} "
             f"{'overhead':>9}",
             f"{'inference':16s} {base_s:>11.4f} {tel_s:>9.4f} "
             f"{100 * overhead:>+8.2f}% (budget "
             f"{100 * OVERHEAD_BUDGET:.0f}%)",
             f"{'simulator-only':16s} {sim_base_s:>11.4f} {sim_tel_s:>9.4f} "
             f"{100 * sim_overhead:>+8.2f}% (ceiling "
             f"{100 * SIM_TELEMETRY_CEILING:.0f}%)",
             f"{len(telemetry.families)} metric families, "
             f"{samples} store samples",
             f"{REQUESTS} Poisson requests, deadline {DEADLINE_MS} ms, "
             f"min over {EXEC_RUNS}/{SIM_RUNS} runs per variant in "
             f"seeded-random order, seed 0"]
    emit("obs_telemetry_overhead", lines)

    # telemetry must not change the serving outcome, only observe it
    assert metered_run().metrics.snapshot() == plain_run().metrics.snapshot()
    assert overhead < OVERHEAD_BUDGET
    assert sim_overhead < SIM_TELEMETRY_CEILING


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
