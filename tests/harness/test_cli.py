"""Tests for the command-line interface."""

import pytest

from repro.campaign import FIGURES, render_figure, run_figure
from repro.cli import EXPERIMENTS, build_parser, main
from repro.harness.scaling import FAST_SCALE


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig12", "pacing"):
        assert name in out


def test_experiment_registry_covers_paper():
    for expected in (*FIGURES, "fig2", "fig5", "fig10", "fig11", "fig14",
                     "fig15"):
        assert expected in EXPERIMENTS


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


def test_quickstart_runs(capsys):
    assert main(["quickstart", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "throughput Mpps" in out
    assert "T_S us" in out


def test_run_pacing_renders_every_column(capsys):
    assert main(["run", "pacing", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "gap compliance" in out


def test_run_small_experiment(capsys):
    # fig7 is one of the cheapest full scenarios
    assert main(["run", "fig7", "--fast", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert FIGURES["fig7"].headers[1] in out  # the busy-try fraction


def test_run_prints_the_registry_table(capsys):
    """``repro run`` prints exactly what the figure's benchmark archives."""
    assert main(["run", "fig7", "--fast", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out == render_figure("fig7", run_figure("fig7", FAST_SCALE, 3)) + "\n"


def test_parser_defaults():
    args = build_parser().parse_args(["run", "table1"])
    assert args.experiment == "table1"
    assert args.fast is False
    assert args.seed is not None


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all claims hold" in out
    assert out.count("[ok  ]") == 8
