"""Tests for the experiment runner CLI (python -m repro)."""

import pytest

from repro.experiments.runner import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert not args.plot

    def test_run_all_with_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "all", "--plot", "-o", str(tmp_path)]
        )
        assert args.experiment == "all"
        assert args.plot

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_registry_covers_every_paper_artifact(self):
        paper = {"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
        assert paper <= set(EXPERIMENTS)

    def test_registry_covers_every_ablation(self):
        from repro.experiments.ablations import ABLATIONS

        assert set(ABLATIONS) <= set(EXPERIMENTS)
        assert len(ABLATIONS) >= 14
        for exp_id, (fn, desc) in ABLATIONS.items():
            assert exp_id.startswith("ablation_")
            assert callable(fn) and desc


class TestAutopilotRetentionFlag:
    """``--keep-checkpoints`` errors exit 2 with an ``error:`` line."""

    def test_below_one_is_refused(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        code = main(["autopilot", "regime-shift", "-n", "5",
                     "--checkpoint-dir", str(ckpts),
                     "--keep-checkpoints", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--keep-checkpoints" in err
        assert not ckpts.exists()

    def test_without_a_checkpoint_dir_is_refused(self, capsys):
        code = main(["autopilot", "regime-shift", "-n", "5",
                     "--keep-checkpoints", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--keep-checkpoints" in err
        assert "--checkpoint-dir" in err


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "1600" in out

    def test_run_with_output_dir(self, tmp_path, capsys):
        assert main(["run", "table1", "-o", str(tmp_path)]) == 0
        written = tmp_path / "table1.txt"
        assert written.exists()
        assert "peak_users" in written.read_text()

    def test_run_fig8_with_plot(self, capsys):
        assert main(["run", "fig8", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "requests/interval:" in out  # the sparkline line
