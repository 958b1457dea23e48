"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_bounds(self, capsys):
        assert main(["bounds", "--n-max", "4", "--k-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "lower" in out
        assert "yes" in out  # consensus rows are tight

    def test_simulate(self, capsys):
        assert main(["simulate", "--k", "1", "--m", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 28 correspondence: OK" in out

    def test_falsify(self, capsys):
        assert main(["falsify", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "safety violation" in out
        assert "3/3" in out

    def test_falsify_larger_m_still_below_bound(self, capsys):
        """n is derived from m, so any m sits below the Theorem 3 bound —
        the simulation pivot — and the falsifier always has work to do."""
        assert main(["falsify", "--m", "3", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3 bound=4" in out

    def test_approx(self, capsys):
        assert main(["approx", "--m", "2", "--eps-exp", "30"]) == 0
        out = capsys.readouterr().out
        assert "ε-independent" in out
        assert "beats the lower bound" in out

    def test_check(self, capsys):
        assert main(["check", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "all Appendix B lemma checks passed" in out

    def test_campaign(self, capsys):
        assert main([
            "campaign", "--seeds", "8", "--workers", "2",
            "--fuzz-runs", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign complete: all expectations held" in out
        assert "runs/sec" in out
        assert "first violating seed: 0" in out

    def test_campaign_single_experiment(self, capsys):
        assert main([
            "campaign", "--seeds", "5", "--workers", "1",
            "--experiment", "protocol",
        ]) == 0
        out = capsys.readouterr().out
        assert "protocol safety" in out
        assert "falsifier" not in out

    def test_explore_truncated_finds_violation(self, capsys):
        assert main([
            "explore", "--scenario", "truncated", "--workers", "2",
            "--verify-serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "violation" in out
        assert "counterexample schedule" in out
        assert "serial verification: sharded report identical" in out

    def test_explore_safe_scenarios(self, capsys):
        for scenario in ("racing", "minseen"):
            assert main([
                "explore", "--scenario", scenario, "--workers", "2",
                "--verify-serial",
            ]) == 0
            out = capsys.readouterr().out
            assert "safe" in out
            assert "serial verification: sharded report identical" in out

    def test_campaign_checkpoint_then_resume(self, tmp_path, capsys):
        """A checkpointed campaign resumes by replaying the journal."""
        ckpt = str(tmp_path / "campaign.ckpt")
        assert main([
            "campaign", "--seeds", "6", "--workers", "1",
            "--experiment", "protocol", "--checkpoint", ckpt,
        ]) == 0
        first = capsys.readouterr().out
        assert "resumed past" not in first
        assert main([
            "campaign", "--seeds", "6", "--workers", "1",
            "--experiment", "protocol", "--resume", ckpt,
        ]) == 0
        resumed = capsys.readouterr().out
        assert "resumed past 3 checkpointed chunks" in resumed
        assert "campaign complete: all expectations held" in resumed

    def test_explore_checkpoint_then_bare_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "explore.ckpt")
        common = [
            "explore", "--scenario", "racing", "--workers", "1",
            "--max-configs", "20000", "--checkpoint", ckpt,
        ]
        assert main(common) == 0
        capsys.readouterr()
        assert main(common + ["--resume", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "resumed past" in out
        assert "safe" in out

    def test_resume_without_checkpoint_path_is_usage_error(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--resume needs a path" in capsys.readouterr().err

    def test_resume_with_missing_journal_notices_and_starts_fresh(
        self, tmp_path, capsys
    ):
        """``--resume`` pointing at a journal that doesn't exist yet (in
        a directory that doesn't exist yet either) starts fresh with a
        notice instead of failing — the first boot of a scripted
        checkpoint-and-resume loop."""
        ckpt = str(tmp_path / "state" / "run" / "campaign.ckpt")
        args = [
            "campaign", "--seeds", "6", "--workers", "1",
            "--experiment", "protocol", "--checkpoint", ckpt,
            "--resume",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "notice: no checkpoint found at" in captured.err
        assert "starting fresh" in captured.err
        assert "campaign complete: all expectations held" in captured.out
        # Second boot finds the journal: resumes silently, no notice.
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "notice: no checkpoint found" not in captured.err
        assert "resumed past 3 checkpointed chunks" in captured.out

    def test_explore_resume_with_missing_journal_notices(
        self, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "missing-dir" / "explore.ckpt")
        assert main([
            "explore", "--scenario", "racing", "--workers", "1",
            "--max-configs", "20000", "--resume", ckpt,
        ]) == 0
        captured = capsys.readouterr()
        assert "notice: no checkpoint found at" in captured.err
        assert "safe" in captured.out

    def test_campaign_rejects_negative_max_retries(self, capsys):
        assert main(["campaign", "--max-retries", "-1"]) == 2
        assert "--max-retries must be >= 0" in capsys.readouterr().err

    def test_explore_rejects_bad_workers(self, capsys):
        assert main(["explore", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert main(["explore", "--chunk-size", "-3"]) == 2
        assert "--chunk-size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["campaign", "--experiment", "protocol", "--seeds", "-3"],
         "--seeds must be >= 0, got -3"),
        (["campaign", "--experiment", "fuzz", "--fuzz-runs", "-3"],
         "--fuzz-runs must be >= 0, got -3"),
        (["explore", "--max-configs", "0"],
         "--max-configs must be >= 1, got 0"),
        (["explore", "--max-steps", "0"],
         "--max-steps must be >= 1, got 0"),
        (["explore", "--prefix-depth", "-1"],
         "--prefix-depth must be >= 0, got -1"),
        (["certify", "emit", "--runs", "-1"],
         "--runs must be >= 0, got -1"),
        (["simulate", "--k", "0"], "--k must be >= 1, got 0"),
        (["simulate", "--x", "5"], "--x must be <= --k (2), got 5"),
        (["falsify", "--m", "0"], "--m must be >= 1, got 0"),
        (["falsify", "--runs", "-3"], "--runs must be >= 0, got -3"),
        (["approx", "--m", "-1"], "--m must be >= 1, got -1"),
        (["approx", "--eps-exp", "-5"], "--eps-exp must be >= 1, got -5"),
    ], ids=["seeds", "fuzz-runs", "max-configs", "max-steps",
            "prefix-depth", "emit-runs", "simulate-k", "simulate-x-above-k",
            "falsify-m", "falsify-runs", "approx-m", "approx-eps-exp"])
    def test_size_flag_below_its_floor_is_usage_error(
        self, argv, message, tmp_path, capsys
    ):
        if argv[0] == "certify":
            argv = argv + ["--out", str(tmp_path / "certs")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("base_object", ["swap", "tas", "cas"])
    def test_campaign_base_object_sweeps_run_end_to_end(
        self, base_object, capsys
    ):
        assert main([
            "campaign", "--experiment", "protocol",
            "--base-object", base_object, "--seeds", "6", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "protocol safety" in out
        assert "campaign complete: all expectations held" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])


class TestBenchCli:
    """Exit-code contract of the `repro bench` subcommands."""

    def run_quick(self, out_dir):
        """Measure the fastest experiment into ``out_dir``; returns rc."""
        return main([
            "bench", "run", "--quick", "--experiments", "E2",
            "--repeats", "1", "--warmup", "0", "--out", str(out_dir),
        ])

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "E13" in out and "campaign" in out
        assert "E14" in out and "explore" in out

    def test_bench_run_writes_artifacts(self, tmp_path, capsys):
        assert self.run_quick(tmp_path) == 0
        out = capsys.readouterr().out
        assert "wrote 1 artifact(s)" in out
        assert (tmp_path / "BENCH_E2_bounds.json").exists()

    def test_bench_compare_pass_is_zero(self, tmp_path, capsys):
        base, cur = tmp_path / "base", tmp_path / "cur"
        assert self.run_quick(base) == 0
        assert self.run_quick(cur) == 0
        assert main([
            "bench", "compare", "--baseline", str(base),
            "--current", str(cur), "--threshold", "100",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_compare_injected_slowdown_is_one(self, tmp_path, capsys):
        assert self.run_quick(tmp_path) == 0
        assert main([
            "bench", "compare", "--baseline", str(tmp_path),
            "--current", str(tmp_path), "--slowdown", "4.0",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "injected slowdown x4.0" in out

    def test_bench_compare_different_work_is_one(self, tmp_path, capsys):
        base, cur = tmp_path / "base", tmp_path / "cur"
        assert self.run_quick(base) == 0
        assert self.run_quick(cur) == 0
        path = cur / "BENCH_E2_bounds.json"
        data = json.loads(path.read_text())
        data["timing"]["units"] += 1
        path.write_text(json.dumps(data))
        assert main([
            "bench", "compare", "--baseline", str(base),
            "--current", str(cur), "--threshold", "100",
        ]) == 1
        out = capsys.readouterr().out
        units = data["timing"]["units"]
        assert "incomparable  E2_bounds" in out
        assert f"units {units - 1} != {units}" in out

    def test_bench_compare_missing_baseline_is_two(self, tmp_path, capsys):
        assert self.run_quick(tmp_path) == 0
        assert main([
            "bench", "compare",
            "--baseline", str(tmp_path / "missing"),
            "--current", str(tmp_path),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_run_unknown_experiment_is_two(self, tmp_path, capsys):
        assert main([
            "bench", "run", "--experiments", "E999",
            "--out", str(tmp_path),
        ]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCliModes:
    """--symmetry wiring and the anonymous scenario."""

    def test_explore_anonymous_scenario_finds_the_m_lt_n_attack(self, capsys):
        assert main([
            "explore", "--scenario", "anonymous", "--workers", "2",
            "--verify-serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "anonymous-sweep" in out
        assert "violation" in out
        assert "counterexample schedule" in out
        assert "serial verification: sharded report identical" in out

    def test_explore_symmetry_reduces_and_agrees(self, capsys):
        assert main([
            "explore", "--scenario", "anonymous", "--workers", "2",
            "--symmetry", "--verify-serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "symmetry-reduced" in out
        assert "violation" in out
        assert "serial verification: sharded report identical" in out

    def test_explore_no_packed_is_rejected(self, capsys):
        """The unpacked encoding is retired; its flag is now unknown."""
        for flag in ("--no-packed", "--packed"):
            with pytest.raises(SystemExit) as excinfo:
                main(["explore", "--scenario", "racing", flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_campaign_zero_seeds_zero_fuzz_completes(self, capsys):
        """The zero-unit degenerate campaign is complete success, and
        the must-violate fuzz expectation is vacuous at 0 runs."""
        assert main([
            "campaign", "--seeds", "0", "--fuzz-runs", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign complete: all expectations held" in out


class TestConsoleScript:
    """`prog` and the packaged `repro` entry point are one name."""

    def test_help_text_uses_the_repro_program_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro")
        assert "python -m repro" not in out.split("\n\n")[0]

    def test_subcommand_usage_lines_use_repro(self, capsys):
        assert main(["explore", "--workers", "0"]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["explore", "--scenario", "bogus"])
        err = capsys.readouterr().err
        assert "usage: repro explore" in err

    def test_setup_cfg_entry_point_targets_cli_main(self):
        import configparser
        import importlib
        import os

        config = configparser.ConfigParser()
        config.read(os.path.join(
            os.path.dirname(__file__), os.pardir, "setup.cfg"
        ))
        scripts = config["options.entry_points"]["console_scripts"]
        entries = dict(
            line.replace(" ", "").split("=", 1)
            for line in scripts.strip().splitlines()
        )
        assert "repro" in entries
        module_name, function_name = entries["repro"].split(":")
        module = importlib.import_module(module_name)
        assert getattr(module, function_name) is main
