"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import ResultSet
from repro.cli import (
    build_parser,
    build_simulate_study,
    build_sweep_study,
    main,
    run_battery_life,
    run_cost,
    run_etee,
    run_export,
    run_performance,
    run_predict,
    run_simulate,
    run_sweep,
)
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState


@pytest.fixture(scope="module")
def spot():
    return PdnSpot()


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["etee", "--tdp", "4"])
        assert args.command == "etee"
        assert args.tdp == pytest.approx(4.0)
        assert build_parser().parse_args(["battery-life"]).command == "battery-life"
        assert build_parser().parse_args(["figures", "--quick"]).quick is True

    def test_workload_type_parsing(self):
        args = build_parser().parse_args(["etee", "--workload", "graphics"])
        assert args.workload is WorkloadType.GRAPHICS

    def test_invalid_workload_type_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["etee", "--workload", "nonsense"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSubcommands:
    def test_etee_table_contains_all_pdns(self, spot):
        text = run_etee(spot, 4.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
        for name in ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"):
            assert name in text

    def test_performance_table_mentions_suite(self, spot):
        assert "SPEC" in run_performance(spot, 4.0, "spec")
        assert "3DMark06" in run_performance(spot, 4.0, "3dmark")

    def test_battery_life_table(self, spot):
        text = run_battery_life(spot)
        assert "video_playback" in text

    def test_cost_table(self, spot):
        text = run_cost(spot, 18.0)
        assert "BOM vs IVR" in text

    def test_predict_reports_a_mode(self, spot):
        low = run_predict(spot, 4.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
        high = run_predict(spot, 50.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
        assert "ldo_mode" in low
        assert "ivr_mode" in high


class TestJsonFlag:
    def test_etee_json(self, spot):
        payload = json.loads(run_etee(spot, 4.0, 0.56, WorkloadType.CPU_MULTI_THREAD, as_json=True))
        assert payload["tdp_w"] == pytest.approx(4.0)
        assert payload["etee"]["FlexWatts"] > payload["etee"]["IVR"]

    def test_performance_json(self, spot):
        payload = json.loads(run_performance(spot, 4.0, "spec", as_json=True))
        assert payload["performance_vs_baseline"]["IVR"] == pytest.approx(1.0)

    def test_battery_life_json(self, spot):
        payload = json.loads(run_battery_life(spot, as_json=True))
        assert "video_playback" in payload["average_power_w"]

    def test_cost_json(self, spot):
        payload = json.loads(run_cost(spot, 18.0, as_json=True))
        assert payload["bom_vs_baseline"]["IVR"] == pytest.approx(1.0)

    def test_predict_json(self, spot):
        payload = json.loads(
            run_predict(spot, 4.0, 0.56, WorkloadType.CPU_MULTI_THREAD, as_json=True)
        )
        assert payload["selected_mode"] == "ldo_mode"


class TestSweepCommand:
    def test_parser_accepts_sweep_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--tdps", "4", "18", "--power-states", "C2", "c8", "--format", "csv"]
        )
        assert args.tdps == [4.0, 18.0]
        assert args.power_states == [PackageCState.C2, PackageCState.C8]
        assert args.format == "csv"

    def test_invalid_power_state_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--tdps", "4", "--power-states", "C99"])

    def test_build_sweep_study_grid(self):
        study = build_sweep_study(
            (4.0, 18.0), ars=(0.4, 0.8), power_states=(PackageCState.C8,), pdns=("IVR",)
        )
        # 2 TDPs x 2 ARs active + 2 TDPs x 1 state idle.
        assert len(study.scenarios) == 6
        assert study.pdn_names == ("IVR",)

    def test_sweep_table_output(self, spot):
        text = run_sweep(spot, (4.0,), pdns=("IVR", "FlexWatts"))
        assert "IVR" in text and "FlexWatts" in text and "etee" in text

    def test_sweep_json_round_trips(self, spot):
        text = run_sweep(spot, (4.0,), output_format="json")
        resultset = ResultSet.from_json(text)
        assert len(resultset) == 5
        assert set(resultset.unique("pdn")) == set(spot.pdns)

    def test_sweep_csv_header(self, spot):
        text = run_sweep(spot, (4.0,), output_format="csv")
        assert text.splitlines()[0].startswith("pdn,tdp_w,")


class TestRemovedDispatchFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--tdps", "4", "--jobs", "2"],
            ["sweep", "--tdps", "4", "--executor", "process"],
            ["simulate", "--jobs", "2"],
            ["simulate", "--executor", "process"],
            ["export", "fig2a", "--jobs", "2"],
            ["export", "fig2a", "--executor", "process"],
            ["figures", "--jobs", "2"],
            ["figures", "--executor", "serial"],
            ["optimize", "--jobs", "2"],
            ["optimize", "--executor", "process"],
            ["serve", "--jobs", "2"],
            ["serve", "--executor", "process"],
        ],
    )
    def test_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulateCommand:
    def test_parser_accepts_simulate_flags(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--scenario", "bursty-interactive", "race-to-idle",
                "--tdps", "4", "50",
                "--seed", "7",
                "--format", "json",
            ]
        )
        assert args.scenario == ["bursty-interactive", "race-to-idle"]
        assert args.tdps == [4.0, 50.0]
        assert args.seed == 7

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "nonsense"])

    def test_build_simulate_study_defaults_to_all_scenarios(self):
        from repro.workloads.scenarios import available_scenarios

        study = build_simulate_study()
        assert len(study) == len(available_scenarios())
        assert study.points[0].tdp_w == 18.0

    def test_simulate_table_lists_every_pdn(self):
        text = run_simulate(
            scenarios=["race-to-idle"], pdns=["IVR", "FlexWatts"]
        )
        assert "Scenario simulation" in text
        assert "IVR" in text and "FlexWatts" in text
        assert "race-to-idle" in text

    def test_simulate_json_round_trips(self):
        payload = run_simulate(scenarios=["race-to-idle"], output_format="json")
        resultset = ResultSet.from_json(payload)
        assert len(resultset) == 5  # one row per PDN
        assert resultset.unique("scenario") == ["race-to-idle"]

    def test_main_simulate_exit_code(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scenario", "duty-cycled-background",
                    "--pdns", "IVR",
                    "--format", "csv",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("pdn,")


class TestExportCommand:
    def test_export_fig2a_json(self):
        payload = json.loads(run_export("fig2a"))
        assert payload["columns"][0] == "tdp_w"
        assert len(payload["rows"]) == 7

    def test_export_fig3_csv(self):
        lines = run_export("fig3", output_format="csv").splitlines()
        assert lines[0] == "power_state,vout_v,iout_a,efficiency"
        assert len(lines) == 1 + 7 * 4 * 2

    def test_export_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_export("fig99")


class TestMain:
    def test_main_etee_exit_code(self, capsys):
        assert main(["etee", "--tdp", "4"]) == 0
        captured = capsys.readouterr()
        assert "ETEE" in captured.out

    def test_main_cost(self, capsys):
        assert main(["cost", "--tdp", "25"]) == 0
        assert "BOM" in capsys.readouterr().out

    def test_main_etee_json(self, capsys):
        assert main(["etee", "--tdp", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tdp_w"] == pytest.approx(4.0)

    def test_main_sweep_to_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--tdps", "4", "--format", "csv", "--output", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert target.read_text().startswith("pdn,")

    def test_main_export_stdout(self, capsys):
        assert main(["export", "fig2b", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig2b-budget-breakdown"

    def test_main_model_errors_go_to_stderr(self, capsys):
        assert main(["sweep", "--tdps", "4", "--pdns", "BOGUS"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays clean for --format json piping
        assert "BOGUS" in captured.err

    def test_unsupported_point_error_names_the_point(self, capsys):
        assert main(["sweep", "--tdps", "45", "--ars", "0.01"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: MBVR at TDP 45 W, AR 0.01, workload cpu_multi_thread, "
            "power state C0: V_Cores: voltage headroom"
        )


class TestCacheFlags:
    """The persistent-cache surface: --cache-dir and `repro cache`."""

    def test_cache_dir_flag_on_grid_commands(self):
        for argv in (
            ["simulate", "--cache-dir", "/tmp/c"],
            ["optimize", "--cache-dir", "/tmp/c"],
            ["figures", "--cache-dir", "/tmp/c"],
            ["serve", "--cache-dir", "/tmp/c"],
        ):
            assert build_parser().parse_args(argv).cache_dir == "/tmp/c"
        # Sweeps and exports never simulate: nothing of theirs persists.
        for argv in (
            ["sweep", "--tdps", "4", "--cache-dir", "/tmp/c"],
            ["export", "fig3", "--cache-dir", "/tmp/c"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_cache_subcommand_parses(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--cache-dir", "/tmp/c", "--older-than", "60"]
        )
        assert args.action == "prune"
        assert args.older_than == pytest.approx(60.0)

    def test_cache_subcommand_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_simulate_with_cache_dir_matches_cacheless(self, tmp_path, capsys):
        argv = [
            "simulate", "--scenario", "duty-cycled-background",
            "--pdns", "IVR", "LDO", "--format", "json",
        ]
        assert main(argv) == 0
        reference = capsys.readouterr().out
        cached = argv + ["--cache-dir", str(tmp_path)]
        assert main(cached) == 0
        assert capsys.readouterr().out == reference
        assert main(cached) == 0
        assert capsys.readouterr().out == reference

    def test_cache_stats_and_prune_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path)
        assert main(["simulate", "--scenario", "race-to-idle", "--cache-dir",
                     directory, "--format", "csv"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", directory, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["namespaces"]["sim"]["entries"] == 5  # 5 PDNs x 1 TDP
        assert main(["cache", "prune", "--cache-dir", directory, "--json"]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed_entries"] == 5
        assert main(["cache", "stats", "--cache-dir", directory, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["namespaces"] == {}

    @pytest.mark.parametrize("command", ["simulate", "optimize", "figures", "serve"])
    def test_cache_dir_help_says_it_persists_simulations(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--cache-dir DIR persist simulations in this directory" in help_text

    def test_cache_prune_deletes_old_format_directories(self, tmp_path, capsys):
        shard = tmp_path / "pdnspot" / "cb"
        shard.mkdir(parents=True)
        (shard / ("cb" * 32 + ".pkl")).write_bytes(b"format-1 entry")
        (tmp_path / "notes.txt").write_text("not a cache file")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["namespaces"] == {}
        assert main(["cache", "prune", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed_entries"] == 1
        assert not shard.exists()
        assert (tmp_path / "notes.txt").exists()

    def test_cache_stats_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "no cache entries" in capsys.readouterr().out

    def test_cache_stats_rejects_older_than(self, tmp_path, capsys):
        # Accepting-and-ignoring the flag would invite misreading the
        # unfiltered footprint as an age-filtered one.
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--older-than", "60"]) == 1
        assert "cache prune" in capsys.readouterr().err

    def test_sweep_json_with_nan_is_strict(self, tmp_path, capsys):
        # `repro sweep --format json` output must parse under strict decoders
        # (the ISSUE's jq / JSON.parse consumers).
        assert main(["sweep", "--tdps", "4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        json.loads(out, parse_constant=lambda token: (_ for _ in ()).throw(
            AssertionError(f"non-RFC-8259 token {token!r}")
        ))
