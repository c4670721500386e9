"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure7_defaults(self):
        args = build_parser().parse_args(["figure7"])
        assert args.rho == 0.5
        assert args.m == 25
        assert not args.simulate

    def test_simulate_protocol_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "psychic"])

    @pytest.mark.parametrize(
        "command",
        ["figure7", "simulate", "ablations", "sensitivity", "validity",
         "robustness"],
    )
    def test_backend_flag_accepts_exactly_compiled_and_reference(self, command):
        parser = build_parser()
        assert parser.parse_args([command]).backend == "compiled"
        assert parser.parse_args(
            [command, "--backend", "reference"]
        ).backend == "reference"
        for retired in ("auto", "fast"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--backend", retired])
        for retired in ("--batch", "--no-batch", "--no-fast-path"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, retired])


class TestCommands:
    def test_capacity_output(self, capsys):
        assert main(["capacity", "--m", "25"]) == 0
        out = capsys.readouterr().out
        assert "max offered load" in out
        assert "25" in out

    def test_figure7_table(self, capsys):
        assert main(["figure7", "--rho", "0.5", "--m", "25"]) == 0
        out = capsys.readouterr().out
        assert "controlled_analytic" in out
        assert "fcfs_analytic" in out

    def test_figure7_csv(self, capsys):
        assert main(["figure7", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("deadline,")

    def test_simulate_runs(self, capsys):
        code = main([
            "simulate", "--protocol", "controlled", "--rho", "0.5",
            "--m", "25", "--deadline", "100", "--horizon", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss fraction" in out

    def test_theorem1_verifies(self, capsys):
        code = main(["theorem1", "--deadline", "6", "--m", "3", "--window", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 1 verified: True" in out

    def test_ablations_run(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out


class TestSeedFlag:
    def test_every_subcommand_accepts_seed(self):
        parser = build_parser()
        argvs = (
            ["figure7", "--seed", "5"],
            ["theorem1", "--seed", "5"],
            ["simulate", "--seed", "5"],
            ["capacity", "--seed", "5"],
            ["ablations", "--seed", "5"],
            ["sensitivity", "--seed", "5"],
            ["validity", "--seed", "5"],
            ["robustness", "--seed", "5"],
            ["report", "show", "report.json", "--seed", "5"],
            ["cache", "info", "--seed", "5"],
        )
        for argv in argvs:
            assert parser.parse_args(argv).seed == 5
        # The list must name every subcommand: adding or deleting one
        # without updating it fails here.
        (subparsers,) = (
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert {argv[0] for argv in argvs} == set(subparsers.choices)

    def test_capacity_ignores_seed(self, capsys):
        assert main(["capacity", "--m", "25", "--seed", "99"]) == 0
        assert "max offered load" in capsys.readouterr().out


class TestSimulateExtras:
    def test_slot_shares_reported(self, capsys):
        code = main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "100",
            "--horizon", "20000", "--stations", "25",
        ])
        assert code == 0
        assert "slot shares" in capsys.readouterr().out

    def test_feedback_error_reports_telemetry(self, capsys):
        code = main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "75",
            "--horizon", "15000", "--stations", "25",
            "--feedback-error", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault telemetry" in out
        assert "lost to faults" in out

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_nonpositive_message_length_is_a_clean_error(self, capsys, m):
        assert main(["simulate", "--m", m]) == 2
        assert "message length" in capsys.readouterr().err

    def test_negative_feedback_error_is_a_clean_error(self, capsys):
        assert main(["simulate", "--feedback-error", "-0.1"]) == 2
        assert "error rate" in capsys.readouterr().err


class TestRobustnessCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["robustness"])
        assert args.scenario == "feedback"
        assert args.rho == 0.5
        assert args.m == 25
        assert args.seeds == 3

    def test_feedback_sweep_runs(self, capsys):
        code = main([
            "robustness", "--seeds", "1", "--horizon", "8000",
            "--errors", "0", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Graceful degradation" in out
        assert "error rate" in out

    def test_recovery_without_feedback_errors_is_a_clean_error(self, capsys):
        # Only the --feedback-errors sweep reads --recovery; the
        # per-station sweep would silently ignore it.
        assert main(["robustness", "--recovery", "drop-out"]) == 2
        assert "--recovery applies only to --feedback-errors" in (
            capsys.readouterr().err
        )

    def test_failure_scenario_with_feedback_errors_is_a_clean_error(self, capsys):
        # --feedback-errors would run the degradation sweep, not the soak.
        code = main(["robustness", "--scenario", "failures", "--feedback-errors"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--feedback-errors" in err
        assert "--scenario failures" in err

    def test_failure_soak_runs(self, capsys):
        code = main([
            "robustness", "--scenario", "failures", "--seeds", "1",
            "--horizon", "8000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Station-failure soak" in out
        assert "all runs completed" in out


class TestResilienceFlags:
    def test_sweep_commands_accept_the_flags(self):
        parser = build_parser()
        for command in ("figure7", "ablations", "sensitivity", "robustness"):
            args = parser.parse_args([
                command, "--checkpoint", "/tmp/j", "--task-timeout", "30",
                "--max-retries", "1",
            ])
            assert args.checkpoint == "/tmp/j"
            assert args.task_timeout == 30.0
            assert args.max_retries == 1
            assert not args.resume

    def test_resume_without_checkpoint_is_a_clean_error(self, capsys):
        assert main(["robustness", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_verify_replay_without_resume_is_a_clean_error(self, capsys):
        assert main(["robustness", "--checkpoint", "/tmp/j",
                     "--verify-replay"]) == 2
        assert "--verify-replay requires --resume" in capsys.readouterr().err

    def test_resume_from_missing_journal_is_a_clean_error(self, tmp_path, capsys):
        code = main([
            "robustness", "--seeds", "1", "--horizon", "4000",
            "--errors", "0",
            "--checkpoint", str(tmp_path / "absent"), "--resume",
        ])
        assert code == 2
        assert "no journal at" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure7", "ablations"])
    def test_sequential_without_simulate_is_a_clean_error(self, command, capsys):
        # The analytic modes run no replications; --sequential there is
        # refused, never silently dropped.
        assert main([command, "--sequential"]) == 2
        err = capsys.readouterr().err
        assert "--sequential does not apply" in err
        assert "--simulate" in err

    def test_checkpointed_sweep_resumes_with_a_note(self, tmp_path, capsys):
        argv = [
            "robustness", "--seeds", "1", "--horizon", "4000",
            "--errors", "0", "0.02", "--checkpoint", str(tmp_path / "j"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "replayed" not in first
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        # Same degradation table, plus the explicit replay provenance.
        assert "2 replayed from journal" in resumed
        assert first.splitlines()[0] in resumed


class TestSensitivityCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sensitivity"])
        assert args.scenario == "stations"
        assert args.workers is None

    def test_scheduling_scenario_is_analytic_and_fast(self, capsys):
        assert main(["sensitivity", "--scenario", "scheduling"]) == 0
        out = capsys.readouterr().out
        assert "scheduling-time law" in out
        assert "geometric" in out

    def test_stations_scenario_runs_simulation(self, capsys):
        code = main([
            "sensitivity", "--scenario", "stations", "--horizon", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stations" in out
        assert "population" in out


class TestAblationsSimulate:
    def test_default_stays_analytic(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert "Two-endpoint fit" in out

    def test_simulate_mode_runs_all_four_sections(self, capsys):
        code = main([
            "ablations", "--simulate", "--horizon", "3000", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Element 4", "Element 2", "Element 3", "Section 5"):
            assert marker in out


class TestSimulateTiming:
    def test_reports_elapsed_and_loop_only_speed(self, capsys):
        code = main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "100",
            "--horizon", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert "simulation speed" in out
        assert "slots/s" in out


class TestObservabilityFlags:
    def test_sim_commands_accept_metrics_and_trace(self):
        parser = build_parser()
        for command in ("figure7", "theorem1", "simulate", "ablations",
                        "sensitivity", "robustness"):
            args = parser.parse_args([command, "--metrics", "--trace", "t.jsonl"])
            assert args.metrics == "report.json"  # bare --metrics default
            assert args.trace == "t.jsonl"
            args = parser.parse_args([command, "--metrics", "custom.json"])
            assert args.metrics == "custom.json"
            assert parser.parse_args([command]).metrics is None

    def test_metrics_flag_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "100",
            "--horizon", "20000", "--metrics", str(report_path),
        ])
        assert code == 0
        assert f"report written to {report_path}" in capsys.readouterr().err

        from repro.obs import load_report

        report = load_report(report_path)
        assert report["command"] == "simulate"
        assert report["metrics"]["mac.runs"]["value"] == 1
        assert report["metrics"]["mac.slots.idle"]["value"] > 0
        assert report["timings"]["total_s"] > 0

    def test_trace_flag_writes_parseable_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "figure7", "--rho", "0.5", "--m", "25",
            "--trace", str(trace_path),
        ])
        assert code == 0
        capsys.readouterr()

        from repro.obs.tracing import load_trace

        events = load_trace(trace_path)
        assert any(e["name"] == "figure7.analytic" for e in events)
        assert all(e["ph"] in ("X", "i") for e in events)

    def test_global_registry_uninstalled_after_command(self, tmp_path):
        from repro.obs.metrics import global_registry

        assert main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "100",
            "--horizon", "20000", "--metrics", str(tmp_path / "r.json"),
        ]) == 0
        assert global_registry() is None


class TestReportCommand:
    def _write_report(self, path, seed=1, horizon="20000"):
        assert main([
            "simulate", "--rho", "0.5", "--m", "25", "--deadline", "100",
            "--horizon", horizon, "--seed", str(seed),
            "--metrics", str(path),
        ]) == 0

    def test_show_renders_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        self._write_report(path)
        capsys.readouterr()
        assert main(["report", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "mac.runs" in out

    def test_diff_same_seed_runs_agree(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(a)
        self._write_report(b)
        capsys.readouterr()
        assert main(["report", "diff", str(a), str(b)]) == 0
        assert "no metric drift" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_drift(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(a, horizon="20000")
        self._write_report(b, horizon="15000")
        capsys.readouterr()
        assert main(["report", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "difference(s):" in out
        assert "mac.slots" in out

    def test_show_requires_exactly_one_file(self, tmp_path, capsys):
        code = main(["report", "show", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 2
        assert "exactly one FILE" in capsys.readouterr().err

    def test_diff_requires_exactly_two_files(self, tmp_path, capsys):
        assert main(["report", "diff", str(tmp_path / "a")]) == 2
        assert "exactly two FILE" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_reports_schema_and_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "repro-cache-v" in out

    def test_clear_removes_disk_entries(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro import cache

        cache.get_or_compute("cli-test", (1,), lambda: "x")
        assert list(tmp_path.glob("*.pkl"))
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached entry" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.pkl"))


#: Runs ``repro <argv>`` with stdout swallowed; a failing command fails
#: the probe.
_RUN_CLI = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
if code:
    sys.exit(code)
"""


def _fresh_modules(statement, *argv):
    """``sys.modules`` after ``statement`` runs in a fresh interpreter.

    The analytic memo is off, so a cached curve cannot hide the import
    its computation would make.
    """
    probe = statement + "\nimport sys\nprint(*sys.modules)"
    return set(subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "REPRO_NO_CACHE": "1"},
    ).stdout.split())


def _scipy(modules):
    return {name for name in modules if name.split(".")[0] == "scipy"}


def _loaded(modules, *prefixes):
    """The loaded modules named ``prefix`` or inside it, for each prefix."""
    return {name for name in modules for prefix in prefixes
            if name == prefix or name.startswith(prefix + ".")}


#: The process-pool stack, needed only when a sweep starts a pool.
_POOL_STACK = ("concurrent.futures", "multiprocessing")

_PACKAGES = ("repro", "repro.core", "repro.crp", "repro.des",
             "repro.experiments", "repro.faults", "repro.mac", "repro.obs",
             "repro.queueing", "repro.resilience", "repro.smdp",
             "repro.stats", "repro.workloads")


class TestStartupImports:
    def test_cli_import_loads_no_asyncio_or_service(self):
        # A fresh interpreter, so the modules counted are the ones every
        # CLI start pays for.
        loaded = _fresh_modules("import repro.cli")
        assert "repro.cli" in loaded
        assert "asyncio" not in loaded
        subpackages = {
            name.split(".")[1] for name in loaded if name.startswith("repro.")
        }
        assert "service" not in subpackages

    @pytest.mark.parametrize(
        "statement, argv",
        [
            ("import repro.cli", []),
            (_RUN_CLI, ["validity", "--families", "stationary", "--rho",
                        "0.5", "--m", "25", "--deadline-factors", "3",
                        "--horizon", "4000"]),
            (_RUN_CLI, ["figure7", "--rho", "0.5", "--m", "25"]),
            # Sequential looks take their normal quantiles from the
            # Cephes port in repro.stats.normal, not scipy.special.
            (_RUN_CLI, ["figure7", "--rho", "0.5", "--m", "25", "--simulate",
                        "--horizon", "4000", "--sequential", "--ci-target",
                        "0.05", "--max-replications", "8"]),
        ],
        ids=["import", "validity-cell", "figure7-analytic",
             "figure7-sequential"],
    )
    def test_default_paths_load_no_scipy(self, statement, argv):
        assert not _scipy(_fresh_modules(statement, *argv))

    def test_analytic_figure7_loads_no_engine_or_pool(self):
        loaded = _fresh_modules(_RUN_CLI, "figure7", "--rho", "0.5", "--m", "25")
        assert "repro.experiments.figure7" in loaded
        assert not _loaded(loaded, "repro.mac", "repro.faults", "repro.smdp")
        assert not _loaded(loaded, *_POOL_STACK)

    def test_inline_simulation_loads_no_pool(self):
        loaded = _fresh_modules(_RUN_CLI, "figure7", "--rho", "0.5", "--m",
                                "25", "--simulate", "--horizon", "4000")
        assert "repro.mac.simulator" in loaded
        assert not _loaded(loaded, *_POOL_STACK)

    def test_fully_journaled_parallel_resume_loads_no_pool(self, tmp_path):
        argv = ["validity", "--families", "stationary", "--rho", "0.5",
                "--m", "25", "--deadline-factors", "1", "3", "--horizon",
                "4000", "--workers", "2", "--checkpoint", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        probe = _RUN_CLI.replace(
            "code = main(sys.argv[1:])",
            "code = main(sys.argv[1:])\n"
            "    assert 'sweep: 0 executed' in sys.stdout.getvalue()",
        )
        loaded = _fresh_modules(probe, *argv, "--resume")
        assert "repro.resilience.journal" in loaded
        assert not _loaded(loaded, *_POOL_STACK)

    def test_every_exported_name_resolves(self):
        # Lazy exports (PEP 562): each package's __all__ must still
        # resolve, and dir() must list it, in a fresh interpreter.  Every
        # name served only lazily must be in __all__ too, so a stale
        # lazy-map entry cannot linger.
        probe = (
            "import importlib\n"
            f"for name in {_PACKAGES!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    lazy = set(dir(package)) - set(vars(package))\n"
            "    stale = lazy - set(package.__all__)\n"
            "    assert not stale, (name, stale)\n"
            "    for export in package.__all__:\n"
            "        getattr(package, export)\n"
            "    assert set(package.__all__) <= set(dir(package)), name\n"
            "from repro import ControlPolicy, WindowMACSimulator\n"
            "from repro.experiments import *\n"
        )
        assert "repro.smdp.value_iteration" in _fresh_modules(probe)

    def test_names_shared_with_submodules_stay_functions(self):
        # Importing the submodule first binds it on the package; the
        # exported function must still win.
        probe = (
            "import types\n"
            "import repro.smdp.policy_iteration\n"
            "import repro.resilience.fingerprint\n"
            "import repro.smdp, repro.resilience\n"
            "from repro.smdp import policy_iteration\n"
            "from repro.resilience import fingerprint\n"
            "from repro import policy_iteration as top\n"
            "for f in (policy_iteration, fingerprint, top,\n"
            "          repro.smdp.policy_iteration,\n"
            "          repro.resilience.fingerprint):\n"
            "    assert isinstance(f, types.FunctionType), f\n"
        )
        _fresh_modules(probe)
