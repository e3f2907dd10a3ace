"""Tests for the bench-regression gate (repro.obs.gate + repro obs gate)."""

import copy
import json
import os
import subprocess
import sys

from repro.obs import (
    GateRule,
    evaluate_gate,
    load_bench_dir,
    run_gate,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SERVE = {
    "results": {
        "serve_1x": {"miss_rate": 0.05, "admitted_rps": 1000.0,
                     "p99_ms": 2.5},
    },
}
FORWARD = {
    "nets": {
        "mobilenet": {"speedup": 3.0, "samples_per_sec": 5000.0},
    },
}


def _payloads(**overrides):
    base = {"BENCH_serve": copy.deepcopy(SERVE),
            "BENCH_forward": copy.deepcopy(FORWARD)}
    base.update(overrides)
    return base


class TestGateRules:
    def test_ratio_floor(self):
        rule = GateRule("*", min_ratio=0.85)
        assert rule.check(100.0, 90.0) is None
        assert rule.check(100.0, 85.0) is None
        assert "0.85x baseline" in rule.check(100.0, 84.0)

    def test_absolute_increase_cap(self):
        rule = GateRule("*", max_abs_increase=0.02)
        assert rule.check(0.05, 0.07) is None
        assert rule.check(0.05, 0.0701) is not None
        assert rule.check(0.05, 0.01) is None  # improvements always pass

    def test_first_matching_rule_governs(self):
        # the samples_per_sec escape hatch outranks a throughput floor
        report = evaluate_gate(
            _payloads(), {"BENCH_serve": copy.deepcopy(SERVE),
                          "BENCH_forward": {"nets": {"mobilenet": {
                              "speedup": 3.0,
                              "samples_per_sec": 100.0}}}})
        assert report.ok  # wall-clock collapse alone must not fail the gate


class TestEvaluateGate:
    def test_identical_payloads_pass(self):
        report = evaluate_gate(_payloads(), _payloads())
        assert report.ok
        assert report.gated
        assert "PASS" in report.table()

    def test_miss_rate_regression_fails(self):
        current = _payloads()
        current["BENCH_serve"]["results"]["serve_1x"]["miss_rate"] = 0.08
        report = evaluate_gate(_payloads(), current)
        assert not report.ok
        keys = [f.key for f in report.violations]
        assert keys == ["BENCH_serve.results.serve_1x.miss_rate"]
        assert "FAIL" in report.table()

    def test_miss_rate_within_2pp_passes(self):
        current = _payloads()
        current["BENCH_serve"]["results"]["serve_1x"]["miss_rate"] = 0.069
        assert evaluate_gate(_payloads(), current).ok

    def test_throughput_collapse_fails(self):
        current = _payloads()
        current["BENCH_serve"]["results"]["serve_1x"]["admitted_rps"] = 700.0
        report = evaluate_gate(_payloads(), current)
        assert [f.key for f in report.violations] == [
            "BENCH_serve.results.serve_1x.admitted_rps"]

    def test_speedup_regression_fails(self):
        current = _payloads()
        current["BENCH_forward"]["nets"]["mobilenet"]["speedup"] = 2.0
        report = evaluate_gate(_payloads(), current)
        assert [f.key for f in report.violations] == [
            "BENCH_forward.nets.mobilenet.speedup"]

    def test_missing_gated_benchmark_fails(self):
        report = evaluate_gate(_payloads(), {"BENCH_forward": FORWARD})
        assert not report.ok
        assert all("missing" in f.violation for f in report.violations)

    def test_new_benchmark_is_informational(self):
        current = _payloads(BENCH_new={"metric": 1.0})
        report = evaluate_gate(_payloads(), current)
        assert report.ok
        assert any(f.key == "BENCH_new.metric" and f.baseline is None
                   for f in report.findings)

    def test_ungated_keys_may_move_freely(self):
        current = _payloads()
        current["BENCH_serve"]["results"]["serve_1x"]["p99_ms"] = 99.0
        assert evaluate_gate(_payloads(), current).ok


class TestRunGate:
    def _write(self, directory, payloads):
        os.makedirs(directory, exist_ok=True)
        for name, payload in payloads.items():
            with open(os.path.join(directory, f"{name}.json"), "w") as fh:
                json.dump(payload, fh)

    def test_directory_pass_and_fail(self, tmp_path, capsys):
        self._write(tmp_path / "base", _payloads())
        self._write(tmp_path / "cur", _payloads())
        assert run_gate(str(tmp_path / "base"), str(tmp_path / "cur")) == 0

        doctored = _payloads()
        doctored["BENCH_serve"]["results"]["serve_1x"]["miss_rate"] = 0.5
        self._write(tmp_path / "bad", doctored)
        assert run_gate(str(tmp_path / "base"), str(tmp_path / "bad")) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_baselines_is_a_noop(self, tmp_path):
        assert run_gate(str(tmp_path / "nothing")) == 0

    def test_load_bench_dir_only_picks_bench_json(self, tmp_path):
        self._write(tmp_path, _payloads())
        (tmp_path / "OTHER_file.json").write_text("{}")
        assert sorted(load_bench_dir(str(tmp_path))) == ["BENCH_forward",
                                                         "BENCH_serve"]


class TestBenchGateScript:
    """The CI entry point fails on a synthetic (doctored) regression."""

    def _run(self, baselines, current):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", "obs", "gate",
             "--baselines", baselines, "--current", current],
            env=env, capture_output=True, text=True)

    def test_script_passes_then_fails_on_doctored_file(self, tmp_path):
        base = tmp_path / "baselines"
        cur = tmp_path / "current"
        for d in (base, cur):
            os.makedirs(d)
            with open(d / "BENCH_serve.json", "w") as fh:
                json.dump(SERVE, fh)
        ok = self._run(str(base), str(cur))
        assert ok.returncode == 0, ok.stdout + ok.stderr

        doctored = copy.deepcopy(SERVE)
        doctored["results"]["serve_1x"]["admitted_rps"] = 1.0
        with open(cur / "BENCH_serve.json", "w") as fh:
            json.dump(doctored, fh)
        bad = self._run(str(base), str(cur))
        assert bad.returncode == 1
        assert "admitted_rps" in bad.stdout
        assert "FAIL" in bad.stdout


class TestCommittedBaselines:
    """The in-repo baselines exist and gate the real BENCH surface."""

    def test_baselines_cover_every_bench_payload(self):
        baselines = load_bench_dir(os.path.join(REPO, "benchmarks",
                                                "baselines"))
        assert {"BENCH_serve", "BENCH_workload", "BENCH_forward",
                "BENCH_builders"} <= set(baselines)

    def test_baselines_pass_against_themselves(self):
        directory = os.path.join(REPO, "benchmarks", "baselines")
        payloads = load_bench_dir(directory)
        report = evaluate_gate(payloads, payloads)
        assert report.ok
        assert len(report.gated) > 20

    def test_default_rules_gate_builders_accuracy(self):
        payloads = load_bench_dir(os.path.join(REPO, "benchmarks",
                                               "baselines"))
        doctored = copy.deepcopy(payloads)
        nets = doctored["BENCH_builders"]["nets"]
        for per_device in nets.values():
            for result in per_device.values():
                result["mixed"]["accuracy_at_deadline"] *= 0.5
        report = evaluate_gate(payloads, doctored)
        assert not report.ok
        assert all("accuracy_at_deadline" in f.key
                   for f in report.violations)
