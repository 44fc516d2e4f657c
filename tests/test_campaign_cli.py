"""Tests for the ``python -m repro.campaign`` command-line front end."""

import json

import pytest

from repro.campaign import (
    build_parser,
    main,
    make_config,
    parse_compiler_sets,
    parse_generators,
    parse_opt_levels,
    parse_oracles,
)
from repro.core.parallel import run_parallel_campaign
from repro.testing import campaign_signature


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
        assert parse_opt_levels(_parse()) is None

    def test_opt_levels_parsed(self):
        assert parse_opt_levels(_parse("--opt-levels", "0,2")) == [0, 2]

    def test_generators_parsed(self):
        args = _parse("--generators", "nnsmith,graphfuzzer, lemon")
        assert parse_generators(args) == ["nnsmith", "graphfuzzer", "lemon"]
        assert parse_generators(_parse()) is None

    def test_oracle_and_pool_mode_defaults(self):
        args = _parse()
        assert args.oracle == "difftest"
        assert args.pool_mode == "union"
        assert _parse("--pool-mode", "per-subset").pool_mode == "per-subset"

    def test_oracles_axis_parsed(self):
        args = _parse("--oracles", "difftest,perf, gradcheck")
        assert parse_oracles(args) == ["difftest", "perf", "gradcheck"]
        assert parse_oracles(_parse()) is None


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

    def test_serial_with_schedule_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--serial", "--iterations", "2",
                  "--schedule", "coverage"])

    def test_opt_levels_without_compilers_is_an_error(self, capsys):
        # factory mode fixes its own opt levels; ignoring the flag silently
        # would hand the user an O2 campaign labeled as what they asked for
        with pytest.raises(SystemExit):
            main(["--iterations", "2", "--opt-levels", "0"])
        assert "--opt-levels requires" in capsys.readouterr().err


@pytest.mark.campaign
class TestCampaignRuns:
    def test_serial_reference_path_still_runs(self, capsys):
        assert main(["--serial", "--iterations", "2", "--nodes", "4",
                     "--quiet"]) == 0
        assert "iterations" in capsys.readouterr().out

    @pytest.mark.smoke
    def test_workers_one_runs_in_process_with_checkpoint(
            self, tmp_path, monkeypatch, capsys):
        from multiprocessing.process import BaseProcess

        def _no_processes(*args, **kwargs):
            raise AssertionError("--workers 1 must not spawn processes")

        # Every process start goes through BaseProcess.start, whatever the
        # start method or context.
        monkeypatch.setattr(BaseProcess, "start", _no_processes)
        path = tmp_path / "solo.ckpt.json"
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--quiet", "--checkpoint-every", "2",
                     "--checkpoint", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert all(entry["done"] for entry in payload["cells"].values())

    def test_matrix_cli_prints_per_subset_venn(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--compilers", "turbo", "--compilers", "graphrt",
                     "--opt-levels", "0,2",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "matrix [turbo | graphrt] x O[0,2]" in out
        assert "Seeded bugs by compiler subset:" in out
        assert "Seeded bugs by opt level:" in out

    def test_generator_axis_cli_prints_per_generator_venn(self, capsys):
        assert main(["--workers", "1", "--iterations", "3", "--nodes", "4",
                     "--generators", "nnsmith,targeted",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "x gen[nnsmith,targeted]" in out
        assert "Seeded bugs by generator:" in out

    def test_coverage_schedule_cli_prints_coverage(self, capsys):
        assert main(["--workers", "1", "--iterations", "2", "--nodes", "4",
                     "--schedule", "coverage",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "(coverage scheduling)" in out
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
