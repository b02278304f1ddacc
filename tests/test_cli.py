"""Tests for the ``spinnaker-repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_boot_defaults(self):
        args = build_parser().parse_args(["boot"])
        assert args.command == "boot"
        assert args.width == 8 and args.height == 8

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "--width", "3", "--neurons", "50", "--duration", "20"])
        assert args.width == 3
        assert args.neurons == 50
        assert args.duration == pytest.approx(20.0)


class TestInfoCommand:
    def test_prints_headline_numbers(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "total_cores" in out
        assert "energy_efficiency_ratio" in out
        assert "pc_crossover_years" in out


class TestCodesCommand:
    def test_prints_code_comparison(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "2-of-7 NRZ" in out
        assert "throughput ratio" in out


class TestBootCommand:
    def test_small_boot_succeeds(self, capsys):
        status = main(["boot", "--width", "3", "--height", "3",
                       "--cores", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "monitors elected:    9" in out
        assert "dead:                0" in out


class TestRunCommand:
    def test_small_run_reports_spikes(self, capsys):
        status = main(["run", "--width", "3", "--height", "3", "--cores", "6",
                       "--neurons", "40", "--neurons-per-core", "16",
                       "--duration", "50", "--seed", "3"])
        out = capsys.readouterr().out
        assert status == 0
        assert "spikes (excitatory):" in out
        assert "packets dropped:     0" in out


class TestTransportCommand:
    def test_demo_reports_identical_transports(self, capsys):
        status = main(["transport", "demo", "--chips", "9", "--neurons",
                       "128", "--neurons-per-core", "32", "--duration",
                       "30", "--seed", "11"])
        out = capsys.readouterr().out
        assert status == 0
        assert "equivalence verdict: IDENTICAL" in out
        assert "fabric" in out and "event" in out
        assert "events/s" in out

    def test_demo_rejects_tiny_arguments(self, capsys):
        assert main(["transport", "demo", "--chips", "2"]) == 2

    def test_demo_parser_defaults(self):
        args = build_parser().parse_args(["transport", "demo"])
        assert args.transport_command == "demo"
        assert args.chips == 16
        assert args.duration == pytest.approx(60.0)


class TestClusterCommand:
    def test_demo_reports_identical_shards(self, capsys):
        # Four pairs on two boards: the chain crosses the board cable,
        # so the verdict also compares non-zero traffic figures.
        status = main(["cluster", "demo", "--boards", "2x1", "--pairs", "4",
                       "--neurons", "64", "--neurons-per-core", "32",
                       "--duration", "30", "--workers", "2"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Board topology" in out
        assert "worker-count independence: IDENTICAL" in out
        assert "unsharded-engine equivalence: IDENTICAL" in out
        assert "cross-board spikes" in out

    def test_demo_rejects_bad_board_grid(self, capsys):
        assert main(["cluster", "demo", "--boards", "two-by-two"]) == 2

    def test_demo_parser_defaults(self):
        args = build_parser().parse_args(["cluster", "demo"])
        assert args.cluster_command == "demo"
        assert args.boards == "2x2"
        assert args.workers == 2
        assert args.verify is True


class TestCompileCommand:
    def test_report_prints_pass_table_and_remap(self, capsys):
        status = main(["compile", "report", "--chips", "9", "--neurons",
                       "96", "--neurons-per-core", "32", "--seed", "5"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Mapping-compiler report" in out
        assert "1 condemnation(s)" in out
        for name in ("partition", "place", "allocate-keys", "route",
                     "compress", "synaptic-matrices", "compile-transport"):
            assert name in out
        assert "hit rate" in out
        assert "entries_after_minimisation" in out

    def test_report_cold_compile_only(self, capsys):
        status = main(["compile", "report", "--chips", "9", "--neurons",
                       "64", "--neurons-per-core", "32", "--condemn", "0"])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 condemnation(s)" in out

    def test_report_rejects_tiny_arguments(self, capsys):
        assert main(["compile", "report", "--chips", "2"]) == 2


class TestSaturationCommand:
    def test_full_machine_has_headroom(self, capsys):
        status = main(["saturation", "--width", "48", "--height", "48"])
        out = capsys.readouterr().out
        assert status == 0
        assert "headroom factor" in out
