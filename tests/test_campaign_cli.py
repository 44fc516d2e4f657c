"""Tests for the ``python -m repro.campaign`` command-line front end."""

import dataclasses
import os
import subprocess
import sys
import time

import pytest

import repro
import repro.campaign as campaign_module
from repro.campaign import (
    build_parser,
    campaign_from_args,
    main,
    make_config,
    parse_compiler_sets,
)
from repro.compilers.base import registered_compilers
from repro.core.oracle import registered_oracles
from repro.core.parallel import run_parallel_campaign
from repro.core.strategy import registered_strategies
from repro.testing import FoldCounter, campaign_signature, read_journal


def _parse(*argv):
    return build_parser().parse_args(list(argv))


class TestArgumentParsing:
    def test_compilers_accumulate_subsets(self):
        args = _parse("--compilers", "graphrt,deepc", "--compilers", "turbo")
        assert parse_compiler_sets(args) == [["graphrt", "deepc"], ["turbo"]]

    def test_matrix_flag_expands_to_singletons(self):
        args = _parse("--matrix")
        assert parse_compiler_sets(args) == [["deepc"], ["graphrt"], ["turbo"]]

    def test_explicit_compilers_win_over_matrix_flag(self):
        args = _parse("--matrix", "--compilers", "turbo")
        assert parse_compiler_sets(args) == [["turbo"]]

    def test_no_matrix_flags_means_flat_mode(self):
        assert parse_compiler_sets(_parse()) is None
        campaign = campaign_from_args(_parse())
        assert campaign.compiler_sets is None
        assert campaign.opt_levels is None

    def test_opt_levels_parsed(self):
        assert campaign_from_args(
            _parse("--opt-levels", "0,2")).opt_levels == [0, 2]

    def test_generators_parsed(self):
        args = _parse("--generators", "nnsmith,graphfuzzer, lemon")
        assert campaign_from_args(args).generators == \
            ["nnsmith", "graphfuzzer", "lemon"]
        assert campaign_from_args(_parse()).generators is None

    def test_oracle_and_pool_mode_defaults(self):
        args = _parse()
        assert args.oracle == "difftest"
        assert args.pool_mode == "union"
        assert _parse("--pool-mode", "per-subset").pool_mode == "per-subset"

    def test_oracles_axis_parsed(self):
        args = _parse("--oracles", "difftest,perf, gradcheck")
        assert campaign_from_args(args).oracles == \
            ["difftest", "perf", "gradcheck"]
        assert campaign_from_args(_parse()).oracles is None

    def test_campaign_and_serve_build_the_same_campaign(self):
        # One builder serves both commands; serve only defaults to
        # surviving worker death and adds its transport.
        from repro.core.fabric.service import _serve_parser

        argv = ["--iterations", "6", "--workers", "3", "--compilers",
                "turbo", "--opt-levels", "0,2", "--oracles", "difftest,perf",
                "--pipelines", "O0", "--seed", "4", "--coverage"]
        local = campaign_from_args(_parse(*argv))
        served = campaign_from_args(_serve_parser().parse_args(argv))
        assert (local.fault_tolerance, served.fault_tolerance) == \
            ("fail", "requeue")
        assert served._checkpoint_fingerprint(1) == \
            local._checkpoint_fingerprint(1)
        assert served.trace_coverage and local.trace_coverage

    @pytest.mark.parametrize("argv", [
        ["--time-budget", "1"],
        ["--stagnation-budget", "1"],
        ["serve", "--time-budget", "1"],
        ["serve", "--stagnation-budget", "1"],
    ], ids=["time-budget", "stagnation-budget", "serve-time-budget",
            "serve-stagnation-budget"])
    def test_wall_clock_budgets_are_unknown_arguments(self, argv, capsys):
        # Iterations alone bound a campaign; a wall-clock budget flag must
        # fail loudly rather than be taken for a bound that still applies.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--schedule", "coverage"],
        ["serve", "--schedule", "coverage"],
    ], ids=["campaign", "serve"])
    def test_schedule_is_an_unknown_argument(self, argv, capsys):
        # Every cell is one lease; --coverage is what tracing asks for.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --schedule coverage" in \
            capsys.readouterr().err

    def test_coverage_flag_parses_on_campaign_and_serve(self):
        from repro.core.fabric.service import _serve_parser

        assert _parse("--coverage").coverage is True
        assert _parse().coverage is False
        assert _serve_parser().parse_args(["--coverage"]).coverage is True


#: Axis flags naming something no registry holds, and the usage error
#: each gets (built from the live registries, as argparse checks them).
_UNKNOWN_NAMES = [
    (["--oracle", "nosuch"],
     "argument --oracle: unknown oracle 'nosuch'; registered: "
     + ", ".join(registered_oracles())),
    (["--oracles", "difftest,nosuch"],
     "argument --oracles: unknown oracle 'nosuch'; registered: "
     + ", ".join(registered_oracles())),
    (["--generators", "nosuch"],
     "argument --generators: unknown generation strategy 'nosuch'; "
     "registered: " + ", ".join(registered_strategies())),
    (["--compilers", "graphrt,nosuch"],
     "argument --compilers: unknown compiler 'nosuch'; registered: "
     + ", ".join(registered_compilers())),
    (["--pipelines", "O2,bogus"],
     "argument --pipelines: unknown pipeline token 'bogus'; expected "
     "'O<k>', 'rand:<seed>:<index>' or 'random:<k>@<seed>'"),
    # O7 would build exactly like O2: two cell keys, one pipeline.
    (["--pipelines", "O2,O7"],
     "argument --pipelines: unknown opt level in pipeline token 'O7'; "
     "expected one of O0, O1, O2"),
]
_UNKNOWN_NAME_IDS = ["oracle", "oracles", "generators", "compilers",
                     "pipelines", "pipelines-opt-level"]


class TestAxisNamesAreValidated:
    @pytest.mark.parametrize("argv,message", _UNKNOWN_NAMES,
                             ids=_UNKNOWN_NAME_IDS)
    def test_campaign_rejects_unknown_name(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--iterations", "1", "--workers", "1",
                  "--nodes", "2", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign ")
        assert message in err

    @pytest.mark.parametrize("argv,message", _UNKNOWN_NAMES,
                             ids=_UNKNOWN_NAME_IDS)
    def test_serve_rejects_unknown_name(self, argv, message, capsys,
                                        within):
        # Rejected while parsing: never a campaign waiting for workers
        # (bounded, since one that started would wait for them forever).
        with pytest.raises(SystemExit) as excinfo:
            within(60, lambda: main(["serve", *argv, "--min-workers", "0",
                                     "--iterations", "1", "--nodes", "2",
                                     "--quiet"]))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign serve ")
        assert message in err

    def test_names_registered_before_parsing_count(self, monkeypatch):
        import repro.core.strategy as strategy_module

        monkeypatch.setitem(strategy_module._STRATEGY_REGISTRY, "mine",
                            strategy_module._STRATEGY_REGISTRY["nnsmith"])
        args = _parse("--generators", "nnsmith,mine")
        assert campaign_from_args(args).generators == ["nnsmith", "mine"]


#: Axis flags whose comma list names nothing, and the usage error each gets:
#: an empty list must not quietly run the campaign without the axis.
_EMPTY_AXES = [
    (["--oracles", ","], "argument --oracles: expected at least one oracle "
     "name, got ','"),
    (["--generators", " , "], "argument --generators: expected at least one "
     "generation strategy name, got ' , '"),
    (["--compilers", ","], "argument --compilers: expected at least one "
     "compiler name, got ','"),
    (["--pipelines", ","], "argument --pipelines: expected at least one "
     "pipeline token, got ','"),
]


class TestEmptyAxisListsAreRejected:
    @pytest.mark.parametrize("argv,message", _EMPTY_AXES,
                             ids=["oracles", "generators", "compilers",
                                  "pipelines"])
    def test_campaign_rejects_empty_axis(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--iterations", "1", "--workers", "1", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign ")
        assert message in err


#: Counts a campaign cannot run, and the usage error each gets.
_BAD_COUNTS = [
    (["--iterations", "-3"], "argument --iterations: must be at least 1"),
    (["--iterations", "0"], "argument --iterations: must be at least 1"),
    (["--nodes", "0"], "argument --nodes: must be at least 1"),
    (["--shards", "0"], "argument --shards: must be at least 1"),
    (["--workers", "-2"], "argument --workers: must be at least 0"),
]
_BAD_COUNT_IDS = ["iterations-negative", "iterations-zero", "nodes-zero",
                  "shards-zero", "workers-negative"]


class TestCountsAreValidated:
    @pytest.mark.parametrize("argv,message", _BAD_COUNTS, ids=_BAD_COUNT_IDS)
    def test_campaign_rejects_count(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign ")
        assert message in err

    @pytest.mark.parametrize("argv,message", _BAD_COUNTS, ids=_BAD_COUNT_IDS)
    def test_serve_rejects_count(self, argv, message, capsys):
        # Rejected while parsing, before the coordinator binds a port.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign serve ")
        assert message in err


#: --opt-levels values no campaign can run: the pass registry tells only
#: O0, O1 and O2 apart.
_BAD_OPT_LEVELS = ["x", "7", "0,7", "-1", ""]
_BAD_OPT_LEVEL_IDS = ["word", "seven", "zero-seven", "negative", "empty"]


class TestOptLevelsAreValidated:
    @pytest.mark.parametrize("value", _BAD_OPT_LEVELS, ids=_BAD_OPT_LEVEL_IDS)
    def test_campaign_rejects_opt_levels(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--compilers", "graphrt", "--opt-levels", value,
                  "--iterations", "1", "--workers", "1", "--nodes", "2",
                  "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign ")
        assert ("argument --opt-levels: expected comma-separated levels "
                "0, 1 or 2") in err

    @pytest.mark.parametrize("value", _BAD_OPT_LEVELS, ids=_BAD_OPT_LEVEL_IDS)
    def test_serve_rejects_opt_levels(self, value, capsys):
        # Rejected while parsing, before the coordinator binds a port.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--compilers", "graphrt", "--opt-levels", value,
                  "--iterations", "1", "--worker-wait", "0.1", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.campaign serve ")
        assert ("argument --opt-levels: expected comma-separated levels "
                "0, 1 or 2") in err


class TestSerialModeErrorsLoudly:
    def test_serial_with_checkpoint_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--serial", "--iterations", "2",
                  "--checkpoint", str(tmp_path / "c.json")])
        assert excinfo.value.code == 2
        assert "--checkpoint requires the parallel engine" in \
            capsys.readouterr().err

    def test_workers_zero_with_checkpoint_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--workers", "0", "--iterations", "2",
                  "--checkpoint", str(tmp_path / "c.json")])

    def test_serial_with_matrix_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--serial", "--iterations", "2", "--compilers", "turbo"])

    def test_serial_with_generators_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--serial", "--iterations", "2",
                  "--generators", "nnsmith,lemon"])

    def test_serial_with_oracles_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--serial", "--iterations", "2",
                  "--oracles", "difftest,perf"])

    def test_serial_with_coverage_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--serial", "--iterations", "2", "--coverage"])
        assert "--coverage requires the parallel engine" in \
            capsys.readouterr().err

    def test_serial_with_opt_levels_is_an_error(self, capsys):
        # The reference path runs O2 only; ignoring the flag silently would
        # hand the user an O2 campaign labeled as what they asked for.
        with pytest.raises(SystemExit) as excinfo:
            main(["--serial", "--iterations", "2", "--opt-levels", "0"])
        assert excinfo.value.code == 2
        assert "--opt-levels/" in capsys.readouterr().err


@pytest.mark.campaign
class TestCampaignRuns:
    def test_serial_reference_path_still_runs(self, capsys):
        assert main(["--serial", "--iterations", "2", "--nodes", "4",
                     "--quiet"]) == 0
        assert "iterations" in capsys.readouterr().out

    def test_serial_reference_path_honours_shards(self, monkeypatch):
        # Both paths split the campaign over --shards, so the same flags
        # give the same findings with and without --serial.
        results = []
        monkeypatch.setattr(campaign_module, "print_summary", results.append)
        flags = ["--workers", "1", "--shards", "2", "--iterations", "6",
                 "--nodes", "6", "--seed", "4", "--quiet"]
        assert main(["--serial", *flags]) == 0
        assert main(flags) == 0
        serial, engine = results
        assert campaign_signature(serial)[:7] == \
            campaign_signature(engine)[:7]

    @pytest.mark.smoke
    def test_workers_one_runs_in_process_with_checkpoint(
            self, tmp_path, monkeypatch, capsys):
        from multiprocessing.process import BaseProcess

        def _no_processes(*args, **kwargs):
            raise AssertionError("--workers 1 must not spawn processes")

        # Every process start goes through BaseProcess.start, whatever the
        # start method or context.
        monkeypatch.setattr(BaseProcess, "start", _no_processes)
        path = tmp_path / "solo.ckpt.jsonl"
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--quiet", "--checkpoint", str(path)]) == 0
        _header, folds = read_journal(path)
        assert [(entry["cell"], entry["iteration"]) for entry in folds] == [
            ("shard0|deepc+graphrt+turbo|O2", 1),
            ("shard0|deepc+graphrt+turbo|O2", 2)]

    @pytest.mark.smoke
    def test_a_sigkilled_campaign_resumes_from_its_journal(self, tmp_path):
        # One child process, killed outright once its journal holds a few
        # folds (the kill may cut the line being appended); the resume in
        # this process runs only what the journal lacks.
        path = tmp_path / "killed.ckpt.jsonl"
        argv = ["--workers", "1", "--iterations", "60", "--nodes", "6",
                "--seed", "3", "--quiet"]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", *argv,
             "--checkpoint", str(path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while not path.exists() or \
                    path.read_bytes().count(b"\n") < 4:  # header + 3 folds
                assert child.poll() is None, "the campaign ended unkilled"
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            child.kill()  # SIGKILL: no handler, no flush, no cleanup
            child.wait()
        lines = path.read_bytes().splitlines()
        assert 4 <= len(lines) < 61

        reference = campaign_from_args(_parse(*argv)).run()
        campaign = campaign_from_args(_parse(*argv, "--checkpoint",
                                             str(path)))
        resumed = FoldCounter(**{field.name: getattr(campaign, field.name)
                                 for field in dataclasses.fields(campaign)})
        assert campaign_signature(resumed.run()) == \
            campaign_signature(reference)
        replayed = len(read_journal(path)[1]) - \
            sum(map(len, resumed.folds.values()))
        assert replayed in (len(lines) - 1, len(lines) - 2)  # a cut tail
        assert len(read_journal(path)[1]) == 60

    def test_checkpoint_every_is_an_unknown_argument(self, capsys):
        # Every fold is appended to the journal as it happens: there is no
        # save interval left to choose.
        with pytest.raises(SystemExit) as excinfo:
            main(["--checkpoint-every", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --checkpoint-every 2" in \
            capsys.readouterr().err

    def test_a_file_that_is_no_journal_is_refused(self, tmp_path, capsys):
        # A mistyped --checkpoint path must not overwrite the user's file.
        path = tmp_path / "notes.txt"
        path.write_text("remember the milk\n", encoding="utf-8")
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--quiet", "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {path} is not a campaign "
                              "checkpoint journal")
        assert path.read_text(encoding="utf-8") == "remember the milk\n"

    def test_expected_error_prints_a_message_not_a_traceback(
            self, tmp_path, capsys):
        # A checkpoint of another campaign is a user error: main reports it
        # on one line and returns 1.
        flags = ["--iterations", "2", "--workers", "1", "--nodes", "4",
                 "--quiet", "--checkpoint", str(tmp_path / "ck.json")]
        assert main(flags) == 0
        capsys.readouterr()
        assert main([*flags, "--seed", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ")
        assert "seed" in err
        assert "Traceback" not in err

    def test_matrix_cli_prints_per_subset_venn(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--compilers", "turbo", "--compilers", "graphrt",
                     "--opt-levels", "0,2",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "matrix [turbo | graphrt] x O[0,2]" in out
        assert "Seeded bugs by compiler subset:" in out
        assert "Seeded bugs by opt level:" in out

    def test_opt_levels_without_compilers_cross_the_default_subset(
            self, tmp_path, capsys):
        path = tmp_path / "o0.ckpt.json"
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--opt-levels", "0", "--quiet",
                     "--checkpoint", str(path)]) == 0
        assert "matrix [deepc,graphrt,turbo] x O[0]" in \
            capsys.readouterr().out
        _header, folds = read_journal(path)
        assert {entry["cell"] for entry in folds} == \
            {"shard0|deepc+graphrt+turbo|O0"}

    def test_default_campaign_prints_no_venn_table(self, capsys):
        # One compiler subset at one opt level: nothing to compare.
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Fuzzing deepc, graphrt, turbo for 2 iterations" in out
        assert "Seeded bugs by" not in out

    def test_generator_axis_cli_prints_per_generator_venn(self, capsys):
        assert main(["--workers", "1", "--iterations", "3", "--nodes", "4",
                     "--generators", "nnsmith,targeted",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "x gen[nnsmith,targeted]" in out
        assert "Seeded bugs by generator:" in out

    def test_coverage_cli_prints_coverage(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--coverage",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "in-process, tracing coverage ..." in out
        assert "Compiler coverage:" in out
        assert "branch arcs" in out

    def test_crash_oracle_cli_runs(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--generators", "targeted", "--oracle", "crash",
                     "--quiet"]) == 0
        assert "iterations" in capsys.readouterr().out

    def test_oracle_axis_cli_prints_per_oracle_venn(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--oracles", "difftest,crash",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "x oracle[difftest,crash]" in out
        assert "Seeded bugs by oracle:" in out

    def test_default_campaign_reproduces_across_worker_counts(self):
        # Value search is bounded by steps alone, so a default config needs
        # no extra flag to give the same findings on every run.
        args = _parse("--iterations", "6", "--nodes", "5", "--seed", "3",
                      "--shards", "2")
        config = make_config(args)
        assert config.value_search_max_steps == 32
        signatures = {
            campaign_signature(run_parallel_campaign(
                config=config, n_workers=workers, n_shards=args.shards))
            for workers in (1, 2)}
        assert len(signatures) == 1
