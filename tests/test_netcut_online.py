"""Online NetCut: re-estimation fits, greedy re-selection, loop closure."""

from __future__ import annotations

import math

import pytest

from conftest import make_tiny_net
from repro.faults import FaultInjector, ThermalThrottle
from repro.netcut.online import (
    OnlineFit,
    ReestimationController,
    fit_scales,
    select_rung,
)
from repro.obs import DriftMonitor
from repro.serve import Server, ServerConfig, TRNLadder, poisson_trace


# -- lightweight protocol stubs (the module is duck-typed on purpose) --------

class StubRung:
    def __init__(self, name: str, base_ms: float):
        self.name = name
        self.base_ms = base_ms
        self.estimate_scale = 1.0

    def estimate_ms(self, batch_size: int = 1) -> float:
        return self.base_ms * self.estimate_scale

    def recalibrate(self, scale: float) -> float:
        previous = self.estimate_scale
        self.estimate_scale = float(scale)
        return previous


class StubLadder:
    def __init__(self, rungs):
        self.rungs = sorted(rungs, key=lambda r: -r.estimate_ms(1))
        self._current = 0

    @property
    def current(self):
        return self.rungs[self._current]

    @property
    def fastest(self):
        return self.rungs[-1]

    def select(self, rung):
        self._current = next(
            i for i, r in enumerate(self.rungs) if r is rung)

    def resort(self):
        serving = self.rungs[self._current]
        self.rungs.sort(key=lambda r: -r.estimate_ms(1))
        self.select(serving)


def make_stub_ladder():
    return StubLadder([StubRung("deep", 4.0), StubRung("mid", 2.0),
                       StubRung("shallow", 1.0)])


# -- fit_scales --------------------------------------------------------------

class TestFitScales:
    def test_ratio_takes_per_rung_median(self):
        samples = {"a": [(1, 1.0, 2.0), (1, 1.0, 2.2), (1, 1.0, 1.8)]}
        scales = fit_scales(samples, {"a": 1.0})
        assert scales["a"] == pytest.approx(2.0)

    def test_multiplies_the_current_belief(self):
        # predicted already includes the current scale, so the fit's
        # ratio composes with it rather than replacing it
        samples = {"a": [(1, 3.0, 6.0)]}
        scales = fit_scales(samples, {"a": 1.5})
        assert scales["a"] == pytest.approx(3.0)

    def test_unserved_rung_gets_pooled_fallback(self):
        # thermal throttling slows every rung; a rung that never served
        # during the window still inherits the pooled evidence
        samples = {"a": [(1, 1.0, 3.0)], "b": [(1, 2.0, 6.0)]}
        scales = fit_scales(samples, {"a": 1.0, "b": 1.0, "idle": 1.0})
        assert scales["idle"] == pytest.approx(3.0)

    def test_median_is_robust_to_straggler_tail(self):
        samples = {"a": [(1, 1.0, 1.0), (1, 1.0, 1.1),
                         (1, 1.0, 0.9), (1, 1.0, 50.0)]}
        scales = fit_scales(samples, {"a": 1.0})
        assert scales["a"] < 2.0

    def test_scales_are_clamped(self):
        up = fit_scales({"a": [(1, 1.0, 1e6)]}, {"a": 1.0})
        down = fit_scales({"a": [(1, 1.0, 1e-6)]}, {"a": 1.0})
        assert up["a"] == 20.0
        assert down["a"] == 0.05

    def test_degenerate_observations_are_ignored(self):
        samples = {"a": [(1, 0.0, 1.0), (1, -1.0, 1.0),
                         (1, float("nan"), 1.0), (1, 1.0, float("inf")),
                         (1, 1.0, 2.0)]}
        scales = fit_scales(samples, {"a": 1.0})
        assert scales["a"] == pytest.approx(2.0)

    def test_no_usable_samples_returns_current(self):
        current = {"a": 1.3, "b": 0.7}
        assert fit_scales({}, current) == current
        assert fit_scales({"a": [(1, 0.0, 1.0)]}, current) == current

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            fit_scales({}, {"a": 1.0}, method="lstsq")

    def test_svr_tracks_a_uniform_slowdown(self):
        samples = {
            "a": [(1, 1.0, 2.5), (1, 1.1, 2.7), (1, 0.9, 2.3)],
            "b": [(1, 2.0, 5.0), (1, 2.1, 5.2), (1, 1.9, 4.9)],
        }
        scales = fit_scales(samples, {"a": 1.0, "b": 1.0, "idle": 1.0},
                            method="svr")
        # every rung observed ~2.5x; the pooled SVR should land near it
        assert scales["a"] == pytest.approx(2.5, rel=0.25)
        assert scales["b"] == pytest.approx(2.5, rel=0.25)
        # the idle rung falls back to the pooled median ratio
        assert scales["idle"] == pytest.approx(2.5, rel=0.05)

    def test_svr_with_few_points_falls_back_to_ratio(self):
        samples = {"a": [(1, 1.0, 2.0)]}
        scales = fit_scales(samples, {"a": 1.0}, method="svr")
        assert scales["a"] == pytest.approx(2.0)


# -- select_rung -------------------------------------------------------------

class TestSelectRung:
    def test_picks_deepest_fitting_rung(self):
        ladder = make_stub_ladder()
        assert select_rung(ladder, 5.0).name == "deep"
        assert select_rung(ladder, 2.5).name == "mid"
        assert select_rung(ladder, 1.0).name == "shallow"

    def test_falls_back_to_fastest(self):
        ladder = make_stub_ladder()
        assert select_rung(ladder, 0.01).name == "shallow"

    def test_margin_shrinks_the_budget(self):
        ladder = make_stub_ladder()
        assert select_rung(ladder, 5.0, margin=0.5).name == "mid"

    def test_reads_calibrated_estimates(self):
        ladder = make_stub_ladder()
        for rung in ladder.rungs:
            rung.recalibrate(3.0)
        ladder.resort()
        assert select_rung(ladder, 5.0).name == "shallow"


# -- ReestimationController --------------------------------------------------

class TestReestimationController:
    def make(self, **kw):
        kw.setdefault("cooldown_ms", 0.0)
        kw.setdefault("min_samples", 1)
        kw.setdefault("min_rel_change", 0.0)
        return ReestimationController(2.5, **kw)

    def feed(self, ctrl, ladder, ratio=3.0, n=8):
        for rung in ladder.rungs:
            for _ in range(n):
                est = rung.estimate_ms(1)
                ctrl.record(rung.name, 1, est, ratio * est)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReestimationController(0.0)
        with pytest.raises(ValueError):
            ReestimationController(1.0, method="magic")
        for bad in ({"max_samples_per_rung": 0}, {"min_samples": 0},
                    {"cooldown_ms": -1.0}, {"min_rel_change": -0.01},
                    {"margin": 0.0}, {"margin": -1.0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ReestimationController(1.0, **bad)

    def test_applied_fit_rewrites_rebuilds_and_clears(self):
        ladder = make_stub_ladder()
        ctrl = self.make()
        self.feed(ctrl, ladder, ratio=3.0)
        fit = ctrl.maybe_reestimate(ladder, object(), now_ms=100.0)
        assert isinstance(fit, OnlineFit)
        assert all(r.estimate_scale == pytest.approx(3.0)
                   for r in ladder.rungs)
        # deep is now 12 ms, mid 6 ms: only shallow (3 ms) fits 2.5 ms?
        # no — nothing fits, greedy falls back to the fastest rung
        assert fit.rebuilt and fit.to_rung == "shallow"
        assert ladder.current.name == "shallow"
        assert ctrl.counters["reestimates"] == 1
        assert ctrl.counters["rebuilds"] == 1
        # buffers cleared: successive fits must not compound the same
        # evidence (predicted already includes the applied scale)
        assert ctrl.snapshot()["pending_samples"] == 0

    def test_cooldown_gate(self):
        ladder = make_stub_ladder()
        ctrl = self.make(cooldown_ms=50.0)
        self.feed(ctrl, ladder)
        assert ctrl.maybe_reestimate(ladder, None, 10.0) is not None
        self.feed(ctrl, ladder)
        assert ctrl.maybe_reestimate(ladder, None, 40.0) is None
        assert ctrl.counters["skipped_cooldown"] == 1
        assert ctrl.maybe_reestimate(ladder, None, 60.0) is not None

    def test_min_samples_gate(self):
        ladder = make_stub_ladder()
        ctrl = self.make(min_samples=5)
        ctrl.record("deep", 1, 4.0, 12.0)
        assert ctrl.maybe_reestimate(ladder, None, 1.0) is None
        assert ctrl.counters["skipped_samples"] == 1

    def test_min_change_gate_discards_noise(self):
        ladder = make_stub_ladder()
        ctrl = self.make(min_rel_change=0.05)
        self.feed(ctrl, ladder, ratio=1.01)
        assert ctrl.maybe_reestimate(ladder, None, 1.0) is None
        assert ctrl.counters["skipped_minor"] == 1
        assert all(r.estimate_scale == 1.0 for r in ladder.rungs)
        # the evidence is kept: a later, larger drift can still use it
        assert ctrl.snapshot()["pending_samples"] > 0

    def test_record_skips_degenerate(self):
        ctrl = self.make()
        for pred, obs in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                          (float("nan"), 1.0), (1.0, math.inf)]:
            ctrl.record("a", 1, pred, obs)
        assert ctrl.snapshot()["pending_samples"] == 0

    def test_recovery_fit_steps_back_up(self):
        ladder = make_stub_ladder()
        ctrl = self.make()
        self.feed(ctrl, ladder, ratio=3.0)
        ctrl.maybe_reestimate(ladder, None, 1.0)
        assert ladder.current.name == "shallow"
        # device cools down: observations return to the *profiled* times,
        # i.e. 1/3 of the current (scaled) predictions
        self.feed(ctrl, ladder, ratio=1.0 / 3.0)
        fit = ctrl.maybe_reestimate(ladder, None, 2.0)
        assert fit is not None and fit.rebuilt
        # back to the deepest rung that fits 2.5 ms at scale 1 (mid, 2 ms
        # — deep at 4 ms never fit the deadline to begin with)
        assert ladder.current.name == "mid"
        assert all(r.estimate_scale == pytest.approx(1.0)
                   for r in ladder.rungs)

    def test_report_mentions_fits(self):
        ladder = make_stub_ladder()
        ctrl = self.make()
        self.feed(ctrl, ladder)
        ctrl.maybe_reestimate(ladder, None, 1.0)
        text = ctrl.report()
        assert "re-estimations" in text and "->" in text


# -- engine integration ------------------------------------------------------

# 2x: slow enough that the profiled-optimal rung blows the deadline, mild
# enough that the tiny ladder's fastest rung still fits under throttle
THROTTLE = 2.0


@pytest.fixture
def ladder(tiny_device):
    return TRNLadder.from_base(make_tiny_net(blocks=4), tiny_device,
                               num_classes=5)


def make_closed_loop(ladder, **overrides):
    full = ladder.rungs[0].estimate_ms(1)
    config = ServerConfig(
        deadline_ms=round(1.5 * full, 4), max_batch=1,
        admission_control=False, adaptive=False, execute=False,
        online_reestimation=True, reestimate_cooldown_ms=2.0 * full,
        reestimate_min_samples=6, reestimate_max_samples=12, seed=0,
        **overrides)
    trace = poisson_trace(400, rate_rps=0.5e3 / full, deadline_ms=(
        config.deadline_ms), rng=0, render=False)
    span = trace[-1].arrival_ms
    faults = FaultInjector([ThermalThrottle(
        start_ms=0.05 * span, duration_ms=10 * span, factor=THROTTLE,
        ramp_ms=0.01 * span)], seed=0)
    drift = DriftMonitor(threshold=0.2, window=12, min_observations=6,
                         cooldown=6)
    server = Server(ladder, config, drift=drift, faults=faults)
    return server, trace, drift


class TestEngineIntegration:
    def test_default_config_leaves_loop_open(self, ladder):
        from repro.serve.engine import Engine
        config = ServerConfig()
        engine = Engine(ladder, config)
        assert engine.reestimator is None

    def test_closed_loop_reestimates_and_recovers(self, ladder):
        server, trace, drift = make_closed_loop(ladder)
        result = server.run_trace(trace)
        snap = result.metrics.snapshot()
        assert snap["counters"]["reestimates"] > 0
        assert snap["counters"]["ladder_rebuilds"] > 0
        # the refit converged on the throttle's slowdown
        scales = [r.estimate_scale for r in server.ladder.rungs]
        assert max(scales) == pytest.approx(THROTTLE, rel=0.3)
        # and the ladder stepped down off the profiled-optimal rung
        assert result.final_rung != server.ladder.rungs[0].name

    def test_static_arm_misses_more(self, ladder):
        server, trace, _ = make_closed_loop(ladder)
        closed = server.run_trace(trace)
        static = server.run_trace(trace, online_reestimation=False)
        assert closed.metrics.miss_rate < static.metrics.miss_rate

    def test_fresh_engine_resets_calibration(self, ladder):
        server, trace, _ = make_closed_loop(ladder)
        first = server.run_trace(trace)
        assert any(r.estimate_scale != 1.0 for r in server.ladder.rungs)
        # the mutated ladder must not leak beliefs into the next run:
        # an identical replay produces identical metrics
        second = server.run_trace(trace)
        assert second.metrics.snapshot() == first.metrics.snapshot()

    def test_faulted_rung_delegates_calibration(self, ladder):
        injector = FaultInjector([], seed=0)
        wrapped = injector.wrap(ladder)
        proxy, real = wrapped.rungs[0], ladder.rungs[0]
        assert proxy.estimate_scale == 1.0
        proxy.recalibrate(2.0)
        assert real.estimate_scale == 2.0
        assert proxy.estimate_ms(1) == pytest.approx(real.estimate_ms(1))
        assert proxy.estimate_table() == real.estimate_table()
        real.recalibrate(1.0)

    def test_zero_sample_buffer_raises_before_serving(self, ladder):
        # a zero-length fit buffer would make every re-estimation inert
        server, trace, _ = make_closed_loop(ladder)
        with pytest.raises(ValueError, match="max_samples_per_rung"):
            server.run_trace(trace, reestimate_max_samples=0)
        assert server.engine is None

    def test_loop_needs_no_explicit_drift_monitor(self, ladder):
        # the engine provisions a default DriftMonitor when the loop is
        # closed without one
        from repro.serve.engine import Engine
        config = ServerConfig(online_reestimation=True)
        engine = Engine(ladder, config)
        assert engine.drift is not None
        assert engine.reestimator is not None
