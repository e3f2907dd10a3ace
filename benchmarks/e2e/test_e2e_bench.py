"""Smoke test of the end-to-end benchmark, and the tracer's arithmetic.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_the_declared_metrics(workload, trace):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--quick", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


class _Toy:
    def method(self, x):
        return x + 1


def test_install_wraps_and_uninstall_restores():
    original = _Toy.__dict__["method"]
    tracer = Tracer()
    tracer.install([("toy", __name__, "_Toy.method")])
    assert _Toy().method(1) == 2
    tracer.uninstall()
    assert _Toy.__dict__["method"] is original
    assert tracer.stats["toy._Toy.method"][0] == 1


def test_self_time_excludes_wrapped_children():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 5

    def mid():
        now[0] += 2
        leaf_w()
        now[0] += 1
        leaf_w()

    def root():
        now[0] += 10
        mid_w()
        now[0] += 3

    leaf_w = tracer.wrap("l", "l.leaf", leaf)
    mid_w = tracer.wrap("l", "l.mid", mid)
    root_w = tracer.wrap("r", "r.root", root)
    root_w()

    assert tracer.stats["l.leaf"][:2] == [2, 10]
    assert tracer.stats["l.mid"][:2] == [1, 3]
    assert tracer.stats["r.root"][:2] == [1, 13]
    # self times telescope to the root's duration
    assert tracer.total_self_ns() == now[0] == 26
    assert tracer.root_self_ns() == 13
    assert tracer.layer_self_ns() == {"l": 13, "r": 13}
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("r.root", -1), ("l.mid", 0), ("l.leaf", 1), ("l.leaf", 1)]
