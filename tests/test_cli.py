"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize("command", ["motivation", "figure6a", "figure6b",
                                         "simulate", "trace", "sweep",
                                         "partition", "scalability"])
    def test_known_subcommands(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.runner)

    def test_flags(self):
        args = build_parser().parse_args(["figure6a", "--quick", "--seed", "11"])
        assert args.quick and args.seed == 11

    @pytest.mark.parametrize("command", ["figure6a", "figure6b"])
    def test_quick_and_full_are_mutually_exclusive(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--quick", "--full"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure6a", "--quick", "--seed", "3", "--jobs", "2"],
        ["figure6b", "--full", "--seed", "3", "--jobs", "2"],
        ["sweep", "--tasksets", "3", "--tasks", "2", "--ratio", "0.1",
         "--utilization", "0.6", "--hyperperiods", "4", "--seed", "3",
         "--policy", "static", "--jobs", "2", "--quick", "--output", "x.json"],
        ["scalability", "--cores", "1,4", "--partitioners", "ffd", "--app", "gap",
         "--method", "wcs", "--policy", "lookahead", "--ratio", "0.3",
         "--hyperperiods", "4", "--seed", "3", "--jobs", "2", "--quick",
         "--output", "x.json"],
    ])
    def test_experiment_flags_build_a_valid_document(self, argv):
        from repro.scenarios import ScenarioSpec

        args = build_parser().parse_args(argv)
        spec = ScenarioSpec.from_dict(args.document(args))
        assert spec.name == argv[0]
        assert spec.simulation.seed == 3

    def test_figure_jobs_flag(self):
        args = build_parser().parse_args(["figure6a", "--jobs", "4"])
        assert args.jobs == 4

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--app", "cnc", "--method", "acs", "--policy", "all"])
        assert args.app == "cnc" and args.method == "acs" and args.policy == "all"

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "2", "--tasksets", "6", "--policy", "lookahead"])
        assert args.jobs == 2 and args.tasksets == 6 and args.policy == "lookahead"

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--policy", "oracle"])

    def test_partition_flags(self):
        args = build_parser().parse_args(
            ["partition", "--cores", "4", "--partitioner", "wfd", "--app", "cnc"])
        assert args.cores == 4 and args.partitioner == "wfd" and args.app == "cnc"

    def test_partition_rejects_unknown_partitioner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--partitioner", "oracle"])

    def test_scalability_flags(self):
        args = build_parser().parse_args(
            ["scalability", "--cores", "1,2", "--partitioners", "wfd", "--quick"])
        assert args.cores == "1,2" and args.partitioners == "wfd" and args.quick

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "--app", "demo", "--policy", "lookahead", "--jitter", "1.5"])
        assert args.app == "demo" and args.policy == "lookahead"
        assert args.jitter == 1.5 and args.hyperperiods == 2

    def test_trace_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--policy", "oracle"])


class TestMain:
    def test_motivation_runs(self, capsys):
        assert main(["motivation"]) == 0
        output = capsys.readouterr().out
        assert "average-case improvement" in output
        assert "Fig. 2" in output

    def test_figure6b_quick_runs(self, capsys):
        assert main(["figure6b", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "| cnc" in output and "| gap" in output
        assert "units: computed=6 skipped=0 (store: disabled)" in output

    def test_simulate_demo_all_policies(self, capsys):
        assert main(["simulate", "--app", "demo", "--policy", "all",
                     "--hyperperiods", "5"]) == 0
        output = capsys.readouterr().out
        for policy in ("static", "greedy", "lookahead", "proportional"):
            assert policy in output
        assert "saving vs static %" in output

    def test_trace_prints_events_and_saves_json(self, capsys, tmp_path):
        target = tmp_path / "events.json"
        assert main(["trace", "--app", "demo", "--jitter", "1.5",
                     "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "arrivals=sporadic(max_jitter=1.5)" in output
        assert "execution trace" in output  # the Gantt chart header
        for kind in ("JobRelease", "SegmentStart", "SegmentEnd", "HyperperiodReset"):
            assert kind in output
        import json

        from repro.runtime.trace import EventTrace

        rows = json.loads(target.read_text())["events"]
        trace = EventTrace.from_dicts(rows)  # strict: kinds and fields validate
        assert len(trace) > 0
        assert f"{len(trace)} events" in output

    def test_trace_periodic_has_no_jitter_label(self, capsys):
        assert main(["trace", "--hyperperiods", "1"]) == 0
        output = capsys.readouterr().out
        assert "arrivals=periodic" in output

    @pytest.mark.parametrize("argv", [
        ["simulate", "--app", "demo", "--policy", "oracle"],
        ["simulate", "--app", "demo", "--policy", ""],
        ["sweep", "--quick", "--jobs", "0"],
        ["sweep", "--quick", "--tasksets", "0"],
    ])
    def test_bad_arguments_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")

    def test_partition_runs_and_serializes(self, capsys, tmp_path):
        target = tmp_path / "multicore.json"
        assert main(["partition", "--cores", "4", "--partitioner", "wfd",
                     "--app", "demo", "--hyperperiods", "3",
                     "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "partitioner=wfd" in output
        assert "mean energy per global hyperperiod" in output
        import json
        data = json.loads(target.read_text())
        assert data["n_cores"] == 4
        assert data["partitioner"] == "wfd"
        assert data["total_energy"] > 0
        assert len(data["cores"]) == 4
        assert sorted(data["assignment"]) == ["camera", "logger", "planner"]

    def test_scalability_quick_runs(self, capsys):
        assert main(["scalability", "--quick", "--partitioners", "ffd,wfd"]) == 0
        output = capsys.readouterr().out
        assert "improvement vs m=1 %" in output
        assert "wall-clock" in output

    @pytest.mark.parametrize("argv", [
        ["partition", "--cores", "0"],
        ["partition", "--app", "demo", "--jobs", "0"],
        ["scalability", "--cores", "two"],
        ["scalability", "--cores", ""],
        ["scalability", "--partitioners", "oracle"],
    ])
    def test_partition_bad_arguments_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_quick_runs_and_saves_json(self, capsys, tmp_path):
        target = tmp_path / "sweep.json"
        assert main(["sweep", "--quick", "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "| wcs energy | acs energy | acs improvement % | misses |" in output
        assert "wall-clock" in output
        import json
        data = json.loads(target.read_text())
        assert data["scenario"]["online"]["policy"] == "greedy"
        (point,) = data["points"]
        assert point["jobs"] == data["scenario"]["simulation"]["repetitions"] == 2
        assert data["computed"] == 2
