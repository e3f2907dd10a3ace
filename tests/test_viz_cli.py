"""Tests for the terminal visualiser and the CLI."""

import re

import pytest

from repro.viz import curve, scatter


class TestScatter:
    def test_contains_markers_and_labels(self):
        out = scatter({"a": [(0, 0), (1, 1)], "b": [(0.5, 0.5)]},
                      xlabel="lat", ylabel="acc")
        assert "o a" in out and "x b" in out
        assert "lat" in out and "acc" in out

    def test_vline_drawn(self):
        out = scatter({"a": [(0, 0), (2, 1)]}, vline=1.0, width=40)
        assert "|" in out

    def test_extreme_points_on_grid(self):
        out = scatter({"a": [(0, 0), (10, 5)]}, width=30, height=8)
        lines = out.splitlines()
        assert any("o" in line for line in lines)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter({"a": []})

    def test_degenerate_single_point(self):
        out = scatter({"a": [(1.0, 1.0)]})
        assert "o" in out

    def test_curve_wrapper(self):
        out = curve([0, 1, 2], [0, 1, 4], ylabel="y2")
        assert "y2" in out


class TestCLI:
    def test_parser_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["netcut", "--deadline", "1.2",
                                  "--estimator", "analytical"])
        assert args.command == "netcut"
        assert args.deadline == 1.2

    def test_parser_rejects_unknown_estimator(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["netcut", "--estimator", "psychic"])

    def test_zoo_command_runs(self, capsys):
        from repro.cli import main

        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "densenet121" in out
        assert "mobilenet_v1_0.25" in out

    def test_serve_resolves_net_prefix(self, capsys):
        from repro.cli import main

        assert main(["serve", "--net", "resnet", "--requests", "50"]) == 0
        ladder = capsys.readouterr().out.split("\n\n")[0]
        assert re.search(r"resnet50-cut\d+", ladder)

    def test_requires_subcommand(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([])
