"""Tests for the markdown report builder (reduced workbench)."""

import hashlib
import json

import pytest

from repro.experiments import ExperimentConfig, Workbench
from repro.report import build_report
from repro.train import PretrainConfig

#: SHA-256 of the Fig. 9 sweep on the reduced workbench: the measured,
#: profiler, RBF-SVR and OLS arrays (floats as hex) and the SVR's held-out
#: mask. Recorded from the arithmetic ``repro estimators`` ran before the
#: sweep had one home in :meth:`Workbench.estimates`.
ESTIMATES_SHA256 = (
    "02f134f2f23b0a05c8f1b53b8206ca0167e8ea1fdcc6ff133b7d113e85ed8137")


@pytest.fixture(scope="module")
def wb(tmp_path_factory):
    config = ExperimentConfig(
        networks=("mobilenet_v1_0.25", "mobilenet_v1_0.5"),
        hands_images=60, head_epochs=6, deadline_ms=0.35)
    return Workbench(
        config,
        cache_dir=str(tmp_path_factory.mktemp("reportcache")),
        pretrain_config=PretrainConfig(n_images=40, epochs=1,
                                       batch_size=16))


@pytest.fixture(scope="module")
def report(wb):
    return build_report(wb)


def test_estimator_sweep_is_pinned(wb):
    s = wb.estimates()
    sha = hashlib.sha256()
    for series in (s.measured, s.profiler, s.svr, s.linear):
        sha.update(json.dumps([float(v).hex() for v in series]).encode())
    sha.update(json.dumps([bool(m) for m in s.held_out]).encode())
    assert sha.hexdigest() == ESTIMATES_SHA256
    assert list(s.base_names) == [p.base_name for p in wb.latency_dataset()]


class TestReport:
    def test_has_all_sections(self, report):
        for heading in ("# NetCut reproduction report",
                        "## Off-the-shelf networks (Fig. 1)",
                        "## Blockwise TRN sweep (Figs 4-6)",
                        "## Pareto frontier (Fig. 7)",
                        "## Latency estimators (Figs 8-9)",
                        "## NetCut selections (Fig. 10)"):
            assert heading in report

    def test_mentions_both_networks(self, report):
        assert "mobilenet_v1_0.25" in report
        assert "mobilenet_v1_0.5" in report

    def test_includes_paper_references(self, report):
        assert "+10.43%" in report
        assert "27x" in report

    def test_tables_well_formed(self, report):
        """Every markdown table row has a consistent column count."""
        lines = report.splitlines()
        i = 0
        tables = 0
        while i < len(lines):
            if lines[i].startswith("|"):
                cols = lines[i].count("|")
                block = []
                while i < len(lines) and lines[i].startswith("|"):
                    block.append(lines[i])
                    i += 1
                tables += 1
                assert all(row.count("|") == cols for row in block)
            else:
                i += 1
        assert tables >= 5

    def test_reports_winner(self, report):
        assert "Winner: **" in report
