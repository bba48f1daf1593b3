"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import itertools
import os

import numpy as np
import pytest

from repro.cli import SCENARIO_COMMANDS, _parse_param, build_parser, main


def _subparser(command):
    parser = build_parser()
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices[command]


def _action(command, dest):
    return next(
        action for action in _subparser(command)._actions
        if action.dest == dest
    )


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

    def test_replay_compare_batch_with_status_above_int16(
        self, capsys, tmp_path
    ):
        """A trace ``/ingest`` would accept (status up to 65535)
        rebuilds into a batch log, so ``--compare-batch`` runs."""
        from tests.serve_util import campaign_entries, make_entry, write_trace

        entries = campaign_entries(rotations=2, legit_visitors=2)
        entries.append(
            make_entry(entries[-1].time + 1.0, fingerprint="fp-odd",
                       status=40000)
        )
        trace = write_trace(str(tmp_path / "odd.rptr"), entries)
        assert main(["replay", trace, "--compare-batch"]) == 0
        assert "batch equivalence: OK" in capsys.readouterr().out

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
        message = _one_line_error(["replay", str(bad)])
        assert "bad magic" in message

    @pytest.mark.parametrize("fault", ["missing", "torn", "unsupported"])
    def test_replay_unreadable_trace_is_a_one_line_error(
        self, tmp_path, fault
    ):
        import struct

        from repro.trace import TRACE_MAGIC, TRACE_VERSION

        from tests.serve_util import campaign_entries, write_trace

        trace = tmp_path / "t.rptr"
        if fault == "torn":
            write_trace(trace, campaign_entries())
            trace.write_bytes(trace.read_bytes()[:-20])
        elif fault == "unsupported":
            trace.write_bytes(
                TRACE_MAGIC + struct.pack("<H", TRACE_VERSION + 1)
                + struct.pack("<I", 2) + b"{}"
            )
        message = _one_line_error(["replay", str(trace)])
        assert {
            "missing": "No such file",
            "torn": "truncated record",
            "unsupported": "unsupported trace version",
        }[fault] in message


def _one_line_error(argv) -> str:
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    message = str(exit_.value.code)
    assert message.startswith("error: ")
    assert "\n" not in message
    return message


def test_serve_bootstrap_replay_out_of_order_is_a_one_line_error(tmp_path):
    from tests.serve_util import make_entry, write_trace

    trace = write_trace(
        tmp_path / "t.rptr",
        [make_entry(t) for t in (1.0, 2.0, 5.0, 3.0, 6.0)],
    )
    message = _one_line_error([
        "serve", "--db", str(tmp_path / "s.db"), "--port", "0",
        "--quiet", "--replay", trace,
    ])
    assert "time-ordered" in message


class TestServeCommand:
    """``repro serve`` on a database it refuses or cannot restore."""

    def _journaled_db(self, path, **service_kwargs):
        from repro.serve.service import DetectionService, ingest_payload
        from repro.serve.state import StateStore

        from tests.serve_util import campaign_entries

        service = DetectionService(StateStore(str(path)), **service_kwargs)
        events = ingest_payload(campaign_entries())
        service.ingest(events[:10])
        service.ingest(events[10:])
        service.store.close()

    @pytest.fixture(autouse=True)
    def _never_listen(self, monkeypatch):
        """Each case must fail while restoring, before the server
        binds; one that got that far fails here instead of serving."""
        from repro.serve.server import DetectionServer

        async def serve(self, replay=None):
            raise AssertionError("the server restored and started")

        monkeypatch.setattr(DetectionServer, "serve", serve)

    def _serve_error(self, path, *extra) -> str:
        return _one_line_error(
            ["serve", "--db", str(path), "--port", "0", "--quiet", *extra]
        )

    def test_version_2_database(self, tmp_path):
        import sqlite3

        path = tmp_path / "s.db"
        conn = sqlite3.connect(str(path))
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
            "INSERT INTO meta VALUES ('schema_version', '2');"
        )
        conn.close()
        assert "schema version 2" in self._serve_error(path)

    def test_corrupt_journal_record(self, tmp_path):
        import sqlite3

        path = tmp_path / "s.db"
        self._journaled_db(path)
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE journal SET record = substr(record, 1, 40) "
            "WHERE first_seq = 11"
        )
        conn.commit()
        conn.close()
        assert "journal record 11 is corrupt" in self._serve_error(path)

    def test_settings_mismatch(self, tmp_path):
        path = tmp_path / "s.db"
        self._journaled_db(path, checkpoint_interval=5)
        message = self._serve_error(path, "--refresh-every", "0")
        assert "refresh_every=None" in message

    def test_failed_restore_closes_the_store(self, tmp_path, monkeypatch):
        from repro.serve import server
        from repro.serve.state import StateStore, StateStoreError

        path = tmp_path / "s.db"
        self._journaled_db(path, checkpoint_interval=5)
        closed = []

        class RecordingStore(StateStore):
            def close(self):
                closed.append(self.path)
                super().close()

        monkeypatch.setattr(server, "StateStore", RecordingStore)
        with pytest.raises(StateStoreError, match="refresh_every"):
            server.DetectionServer(str(path), refresh_every=None)
        assert closed == [str(path)]


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

    # Every runner-capable command, with the spec it handed the runner
    # before the scenario commands became one table.  The base's config
    # hash and the master seed derive every replication's seed, so a
    # change here changes the numbers a replicated run prints.
    @pytest.mark.parametrize("argv, scenario, base, reps, seed, kwargs", [
        (["case-a", "--reps", "3"], "case-a", {}, 3, 7,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["case-b", "--shards", "4"], "case-b", {}, 1, 11,
         {"workers": 1, "cache_dir": None, "shards": 4}),
        (["case-c", "--workers", "2", "--scale", "10", "--variant",
          "per-ref"], "case-c",
         {"variant": "per-ref", "baseline_weekly_total": 4800}, 1, 1,
         {"workers": 2, "cache_dir": None, "shards": 1}),
        (["case-c", "--reps", "2"], "case-c",
         {"variant": "unprotected", "baseline_weekly_total": 48000}, 2, 1,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["case-d", "--reps", "2", "--variant", "number-reputation"],
         "case-d", {"variant": "number-reputation"}, 2, 11,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["case-e", "--reps", "2", "--seed", "5"], "case-e",
         {"variant": "unprotected"}, 2, 5,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["portfolio", "--reps", "2", "--defense", "case-d"],
         "portfolio-adaptive", {"defense": "case-d"}, 2, 17,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["graph", "case-a", "--reps", "2", "--ticks-short"],
         "graph-case-a", {"ticks_short": True}, 2, 7,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["graph", "case-c", "--shards", "2", "--cache-dir", "cells"],
         "graph-case-c", {"ticks_short": False}, 1, 7,
         {"workers": 1, "cache_dir": "cells", "shards": 2}),
        (["stream", "--reps", "2", "--honeypot"], "stream-case-a",
         {"streaming": True, "honeypot_mode": True}, 2, 7,
         {"workers": 1, "cache_dir": None, "shards": 1}),
        (["stream", "--workers", "2", "--no-streaming"], "stream-case-a",
         {"streaming": False, "honeypot_mode": False}, 1, 7,
         {"workers": 2, "cache_dir": None, "shards": 1}),
        (["profile", "case-b", "--reps", "2", "--ticks-short"],
         "profile-case-b",
         {"duration": 259200.0, "visitor_rate_per_hour": 5.0,
          "automated_attack_start": 86400.0,
          "manual_attack_start": 86400.0, "automated_target_seats": 30},
         2, 11, {"workers": 1, "cache_dir": None, "shards": 1}),
        (["profile", "case-a", "--reps", "2", "--shards", "4"],
         "profile-case-a", {}, 2, 7,
         {"workers": 1, "cache_dir": None, "shards": 4}),
    ])
    def test_routes_to_the_runner(
        self, sweep_calls, argv, scenario, base, reps, seed, kwargs
    ):
        with pytest.raises(_Stop):
            main(argv)
        (spec, passed), = sweep_calls
        assert spec.scenario == scenario
        assert dict(spec.base) == base
        assert dict(spec.grid) == {}
        assert spec.replications == reps
        assert spec.master_seed == seed
        assert passed == kwargs

    def test_key_error_inside_a_cell_propagates(self, monkeypatch):
        # Only an unknown scenario name is a usage error; a KeyError
        # raised by the scenario itself is a bug and must surface.
        from repro.runner import ScenarioEntry, get_scenario, registry

        def broken_cell(config):
            raise KeyError("boom")

        entry = get_scenario("case-b")
        monkeypatch.setitem(
            registry._REGISTRY, "case-b",
            ScenarioEntry("case-b", entry.config_cls, broken_cell),
        )
        with pytest.raises(KeyError, match="boom"):
            main(["case-b", "--reps", "2"])


class TestScenarioTable:
    """The scenario commands are rows of one table; pin what it reads."""

    def test_each_row_scenario_is_registered_for_every_choice(self):
        from repro.cli import _NAME
        from repro.runner import get_scenario

        routed = [row for row in SCENARIO_COMMANDS if row.scenario]
        assert {row.name for row in routed} == {
            "case-a", "case-b", "case-c", "case-d", "case-e",
            "portfolio", "graph", "stream",
        }
        for row in routed:
            named = [o for o in row.options if o.role == _NAME]
            for values in itertools.product(
                *(o.kwargs["choices"] for o in named)
            ):
                name = row.scenario.format(
                    **{o.field: v for o, v in zip(named, values)}
                )
                assert get_scenario(name).config_cls is row.config_cls

    def test_choices_are_the_scenario_constants(self):
        from repro.ml.train import MODEL_CHOICES
        from repro.obs.profile import PROFILED_CASES
        from repro.scenarios import case_c, case_d, case_e
        from repro.scenarios.graph_case import GRAPH_CASES
        from repro.scenarios.learned import LEARNED_VARIANTS
        from repro.scenarios.portfolio import DEFENSES

        expected = {
            ("case-c", "variant"): case_c.VARIANTS,
            ("case-d", "variant"): case_d.VARIANTS,
            ("case-e", "variant"): case_e.VARIANTS,
            ("portfolio", "defense"): DEFENSES,
            ("graph", "case"): GRAPH_CASES,
            ("profile", "case"): PROFILED_CASES,
            ("train", "variant"): LEARNED_VARIANTS,
            ("train", "model"): MODEL_CHOICES,
            ("predict", "variant"): LEARNED_VARIANTS,
        }
        for (command, dest), constant in expected.items():
            assert tuple(_action(command, dest).choices) == tuple(constant)

    @pytest.mark.parametrize("command", ["scenarios", "replay", "serve"])
    def test_no_seed_where_nothing_reads_it(self, command):
        assert "seed" not in {a.dest for a in _subparser(command)._actions}

    def test_sweep_help_lists_the_registry(self):
        from repro.runner import scenario_names

        help_text = _action("sweep", "scenario").help
        for name in scenario_names():
            assert name in help_text


class TestInputValidation:
    """Inputs that used to be dropped or reach a traceback now exit 2."""

    RUNNER_COMMANDS = [
        ["case-a"], ["case-b"], ["case-c"], ["case-d"], ["case-e"],
        ["portfolio"], ["graph", "case-a"], ["stream"],
        ["profile", "case-b", "--ticks-short"],
        ["sweep", "--scenario", "case-b"],
    ]

    @pytest.mark.parametrize("flag", ["--reps", "--workers", "--shards"])
    @pytest.mark.parametrize(
        "command", RUNNER_COMMANDS, ids=lambda argv: argv[0]
    )
    def test_runner_flags_must_be_positive(self, command, flag, capsys):
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exit_:
                main(command + [flag, value])
            assert exit_.value.code == 2
            assert "must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--reps", "--workers", "--shards"])
    def test_capture_rejected_with_the_runner(self, flag, tmp_path, capsys):
        trace = tmp_path / "run.rptr"
        with pytest.raises(SystemExit) as exit_:
            main(["stream", "--capture", str(trace), flag, "2"])
        assert exit_.value.code == 2
        assert "--capture" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["table1", "case-c"])
    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_scale_must_be_positive(self, command, scale, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--scale", scale])
        assert exit_.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_train_needs_a_training_world(self, tmp_path):
        from repro.scenarios.learned import LearnedCaseConfig

        with pytest.raises(ValueError, match="training_worlds"):
            LearnedCaseConfig(training_worlds=0)
        out = tmp_path / "model.rpml"
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--worlds", "0", "--ticks-short",
                  "--out", str(out)])
        assert "training_worlds must be >= 1" in str(exit_.value.code)
        assert not out.exists()


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """A one-world model plus its ``--store`` file, saved under a name
    without ``.npz``; returns the model path and the printed store
    path."""
    root = tmp_path_factory.mktemp("train")
    model = root / "model.rpml"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([
            "train", "--worlds", "1", "--epochs", "1", "--ticks-short",
            "--out", str(model), "--store", str(root / "store"),
        ]) == 0
    last = out.getvalue().strip().splitlines()[-1]
    prefix = "feature store written: "
    assert last.startswith(prefix)
    return model, last[len(prefix):]


class TestFeatureStoreFiles:
    def test_train_prints_the_store_path_written(
        self, trained_store, capsys
    ):
        model, store = trained_store
        assert store.endswith("store.npz")
        assert os.path.exists(store)
        assert main(["predict", str(model), "--store", store]) == 0
        assert "sessions scored" in capsys.readouterr().out

    def _predict_error(self, model, store) -> str:
        with pytest.raises(SystemExit) as exit_:
            main(["predict", str(model), "--store", str(store)])
        message = str(exit_.value.code)
        assert message.startswith("error: ")
        assert "\n" not in message
        return message

    def test_predict_missing_store_is_a_one_line_error(
        self, trained_store, tmp_path
    ):
        model, _ = trained_store
        message = self._predict_error(model, tmp_path / "absent.npz")
        assert "absent.npz" in message

    def test_predict_store_without_the_arrays_is_a_one_line_error(
        self, trained_store, tmp_path
    ):
        model, _ = trained_store
        path = tmp_path / "other.npz"
        np.savez_compressed(path, features=np.zeros((1, 2)))
        message = self._predict_error(model, path)
        assert "other.npz" in message
        assert "session_ids" in message
