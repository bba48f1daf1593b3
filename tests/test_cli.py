"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_param, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["launch-missiles"])

    def test_case_c_variant_choices(self):
        args = build_parser().parse_args(["case-c", "--variant", "per-ref"])
        assert args.variant == "per-ref"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case-c", "--variant", "firewall"])

    def test_seed_override(self):
        args = build_parser().parse_args(["fig1", "--seed", "99"])
        assert args.seed == 99


class TestCommands:
    """Each command runs end-to-end at reduced scale and prints a table."""

    def test_case_b(self, capsys):
        assert main(["case-b"]) == 0
        out = capsys.readouterr().out
        assert "automated coverage" in out
        assert "manual coverage" in out

    def test_table1_scaled(self, capsys):
        assert main(["table1", "--scale", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "UZ" in out

    def test_case_c_scaled_per_ref(self, capsys):
        assert main(
            ["case-c", "--scale", "10", "--variant", "per-ref"]
        ) == 0
        out = capsys.readouterr().out
        assert "detection latency" in out
        assert "per-ref" in out

    def test_behavioural(self, capsys):
        assert main(["behavioural"]) == 0
        out = capsys.readouterr().out
        assert "fusion" in out
        assert "biometrics" in out

    def test_detectors(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        assert "abuse-pipeline" in out


class TestStreamCommands:
    """The streaming/replay surface: capture a run, replay the trace."""

    def test_stream_capture_then_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "run.rptr")
        assert main(["stream", "--capture", trace]) == 0
        out = capsys.readouterr().out
        assert "time to first block" in out
        assert "trace captured" in out

        assert main(["replay", trace, "--compare-batch"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "batch equivalence: OK" in out

    def test_stream_ablation_never_blocks(self, capsys):
        assert main(["stream", "--no-streaming"]) == 0
        out = capsys.readouterr().out
        assert "off" in out
        assert "| -" in out  # no first block without the pipeline

    def test_graph_case_a_short(self, capsys):
        assert main(["graph", "case-a", "--ticks-short"]) == 0
        out = capsys.readouterr().out
        assert "session-fusion" in out
        assert "graph-fusion" in out
        assert "campaign recall" in out
        assert "C001" in out

    def test_graph_rejects_unknown_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "case-z"])

    def test_replay_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.rptr"
        bad.write_bytes(b"not a trace at all")
        from repro.trace import TraceCorruption

        with pytest.raises(TraceCorruption):
            main(["replay", str(bad)])


class TestSweepCommand:
    """The repro.runner-backed sweep/replication surface."""

    def test_param_parsing(self):
        assert _parse_param("hold_ttl=1800,7200.5") == (
            "hold_ttl", [1800, 7200.5]
        )
        assert _parse_param("cap_at=None") == ("cap_at", [None])
        assert _parse_param("variant=per-ref") == ("variant", ["per-ref"])
        with pytest.raises(Exception):
            _parse_param("no-equals-sign")

    def test_sweep_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_rejects_unknown_scenario(self, capsys):
        # Usage errors exit 2 with the registry's message, no traceback.
        assert main(["sweep", "--scenario", "case-z"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'case-z'" in err
        assert "registered:" in err
        assert "case-a" in err

    def test_replicated_command_rejects_unknown_scenario(self, capsys):
        from repro.cli import _run_replicated
        import argparse

        args = argparse.Namespace(
            reps=2, workers=1, seed=1, cache_dir=None
        )
        assert _run_replicated("case-z", {}, args) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_lists_the_registry(self, capsys):
        from repro.runner import scenario_names

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert "PortfolioConfig" in out
        assert "CaseDConfig" in out

    def test_sweep_small_case_a(self, capsys):
        assert main([
            "sweep", "--scenario", "case-a",
            "--param", "visitor_rate_per_hour=5.0",
            "--param", "attack_start=86400",
            "--param", "cap_at=None",
            "--param", "departure_time=259200",
            "--param", "target_capacity=120",
            "--param", "attacker_target_seats=60",
            "--param", "hold_ttl=7200,18000",
            "--reps", "2",
            "--metric", "attacker_holds_created",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 points x 2 replications" in out
        assert "attacker_holds_created" in out
        assert "+/-" in out

    def test_case_d_defended(self, capsys):
        assert main(["case-d", "--variant", "number-reputation"]) == 0
        out = capsys.readouterr().out
        assert "Case D" in out
        assert "numbers rented" in out
        assert "attacker ROI" in out

    def test_case_e_defended(self, capsys):
        assert main(["case-e", "--variant", "destination-surge"]) == 0
        out = capsys.readouterr().out
        assert "Case E" in out
        assert "destination cap installed" in out

    def test_portfolio_layered(self, capsys):
        assert main(["portfolio", "--defense", "all"]) == 0
        out = capsys.readouterr().out
        assert "defense='all'" in out
        assert "attacker decision journal" in out
        assert "retire" in out

    def test_portfolio_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["portfolio", "--defense", "case-z"])

    def test_case_b_replicated(self, capsys):
        assert main([
            "case-b", "--reps", "2", "--seed", "25",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 replications" in out
        assert "automated_coverage" in out


class _Stop(Exception):
    """Raised by a monkeypatched entry point once it saw its arguments."""


class TestRunnerRouting:
    """Which entry point a command reaches, checked by monkeypatching it."""

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        import repro.runner

        calls = []

        def fake_run_sweep(spec, **kwargs):
            calls.append((spec, kwargs))
            raise _Stop

        monkeypatch.setattr(repro.runner, "run_sweep", fake_run_sweep)
        return calls

    def test_case_b_shards_go_through_the_runner(
        self, sweep_calls, monkeypatch
    ):
        import repro.scenarios.case_b

        def unsharded(config):
            raise AssertionError("--shards 4 ran case B unsharded")

        monkeypatch.setattr(repro.scenarios.case_b, "run_case_b", unsharded)
        with pytest.raises(_Stop):
            main(["case-b", "--shards", "4"])
        spec, kwargs = sweep_calls[0]
        assert spec.scenario == "case-b"
        assert spec.master_seed == 11
        assert kwargs["shards"] == 4

    def test_profile_passes_shards_to_the_runner(self, sweep_calls):
        with pytest.raises(_Stop):
            main(["profile", "case-a", "--reps", "2", "--shards", "4"])
        spec, kwargs = sweep_calls[0]
        assert spec.scenario == "profile-case-a"
        assert spec.replications == 2
        assert kwargs["shards"] == 4

    def test_profile_case_c_default_seed_is_the_config_default(
        self, monkeypatch
    ):
        import repro.scenarios.case_c
        from repro.scenarios.case_c import CaseCConfig

        seeds = []

        def fake_run_case_c(config, on_world=None):
            seeds.append(config.seed)
            raise _Stop

        monkeypatch.setattr(
            repro.scenarios.case_c, "run_case_c", fake_run_case_c
        )
        with pytest.raises(_Stop):
            main(["profile", "case-c", "--ticks-short"])
        assert seeds == [CaseCConfig().seed]

    def test_profile_rejects_unknown_case_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "case-z"])
