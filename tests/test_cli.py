"""Tests for the ``spinnaker-repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _transport_mesh, build_parser, main


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

    def test_report_parser_defaults(self):
        args = build_parser().parse_args(["compile", "report"])
        assert args.compile_command == "report"
        assert args.chips == 16
        assert args.condemn == 1

    def test_transport_mesh_is_near_square_and_covers_the_chips(self):
        for chips in range(1, 200):
            width, height = _transport_mesh(chips)
            assert width >= 2 and height >= 2
            assert width * height >= chips
            assert abs(width - height) <= 2
        assert _transport_mesh(16) == (4, 4)
        assert _transport_mesh(9) == (3, 3)


@pytest.mark.parametrize("command", ["transport", "cluster"])
def test_removed_subcommands_are_usage_errors(command, capsys):
    # The transport and cluster demos re-ran equivalence checks the
    # tests and benchmarks pin; the CLI no longer offers them.
    with pytest.raises(SystemExit) as excinfo:
        main([command, "demo"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestSaturationCommand:
    def test_full_machine_has_headroom(self, capsys):
        status = main(["saturation", "--width", "48", "--height", "48"])
        out = capsys.readouterr().out
        assert status == 0
        assert "headroom factor" in out
