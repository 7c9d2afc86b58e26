"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "lenet"])
        assert args.model == "lenet"
        assert args.rounds == 300
        assert not args.no_tile_shared

    def test_experiment_choices(self):
        for name in EXPERIMENTS:
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name

    def test_experiment_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_search_rejects_bad_worker_count(self, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["search", "lenet", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_search_rejects_workers_with_trace(self, capsys, tmp_path):
        argv = [
            "search", "lenet", "--rounds", "1", "--seeds", "0,1",
            "--workers", "2", "--trace", str(tmp_path / "t.jsonl"),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "--trace" in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "two-tenant"])
        assert args.scenario == "two-tenant"
        assert args.seed is None
        assert args.duration_s is None
        assert not args.no_realloc
        assert args.out is None


class TestCommands:
    def test_models_lists_workloads(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "vgg16", "resnet152", "lenet", "transformer"):
            assert name in out

    def test_baselines(self, capsys):
        assert main(["baselines", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "32x32" in out and "512x512" in out

    def test_baselines_vgg_includes_manual(self, capsys):
        assert main(["baselines", "vgg16"]) == 0
        assert "Manual-Hetero" in capsys.readouterr().out

    def test_search_small(self, capsys):
        assert main(["search", "lenet", "--rounds", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "AutoHet[LeNet]" in out
        assert "strategy:" in out

    def test_search_custom_candidates(self, capsys):
        assert (
            main([
                "search", "lenet", "--rounds", "5",
                "--candidates", "32x32,72x64",
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "32x32" in out or "72x64" in out

    def test_search_seeds_one_process_per_seed(self, capsys):
        argv = ["search", "lenet", "--rounds", "2", "--seeds", "0,1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        assert main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == serial

    def test_search_no_tile_shared(self, capsys):
        assert (
            main(["search", "lenet", "--rounds", "5", "--no-tile-shared"]) == 0
        )

    def test_experiment_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "27" in out or "0.84" in out
        assert "128x128" in out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "XBs/tile" in capsys.readouterr().out

    def test_experiment_with_rounds(self, capsys):
        assert (
            main(["experiment", "table5", "--rounds", "10", "--seed", "0"]) == 0
        )
        assert "AutoHet" in capsys.readouterr().out

    def test_unknown_model_errors(self):
        with pytest.raises(KeyError):
            main(["search", "googlenet", "--rounds", "5"])

    def test_experiment_export_json(self, capsys, tmp_path):
        path = tmp_path / "fig5.json"
        assert main(["experiment", "fig5", "--export", str(path)]) == 0
        import json

        records = json.loads(path.read_text())
        assert records[0]["activated_adcs"] == 256

    def test_experiment_export_csv(self, tmp_path):
        path = tmp_path / "fig4.csv"
        assert main(["experiment", "fig4", "--export", str(path)]) == 0
        assert "empty_fraction" in path.read_text()

    def test_experiment_export_unsupported(self, tmp_path):
        with pytest.raises(SystemExit, match="no flat-record exporter"):
            main([
                "experiment", "search-time",
                "--export", str(tmp_path / "x.json"),
            ])

    def test_serve_builtin_overrides(self, capsys):
        assert main([
            "serve", "two-tenant", "--seed", "3",
            "--duration-s", "0.05", "--no-realloc",
        ]) == 0
        out = capsys.readouterr().out
        assert "seed 3" in out
        assert "0 re-allocation(s)" in out
        assert "per-tenant SLO report" in out

    def test_serve_scenario_file_and_trace(self, capsys, tmp_path):
        from repro.serve import save_scenario, two_tenant_scenario

        scenario_path = tmp_path / "scenario.json"
        save_scenario(
            two_tenant_scenario(duration_ns=5e7, realloc=False),
            scenario_path,
        )
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "serve", str(scenario_path), "--trace", str(trace_path),
        ]) == 0
        assert trace_path.exists()
        assert "trace records" in capsys.readouterr().out

    def test_serve_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="cannot load scenario"):
            main(["serve", "no-such-scenario"])
