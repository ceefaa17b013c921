"""Tests for the command-line interface."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.api import Session
from repro.experiments.config import PRESETS


def _documented_invocations() -> list[list[str]]:
    """The argv of every ``repro-experiments`` line of README.md and of
    the ``repro.cli`` module docstring (shell comments and anything after
    ``|``, ``&`` or ``;`` dropped), without repeats."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines() + cli.__doc__.splitlines()
    invocations = {}
    for line in lines:
        text = line.strip()
        if text.startswith("repro-experiments "):
            argv = shlex.split(re.split(r"[|&;]", text)[0], comments=True)[1:]
            invocations[tuple(argv)] = argv
    return list(invocations.values())


class TestCli:
    def test_static_experiments_no_dataset(self, capsys):
        assert cli.main(["table2", "fig3", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "288,000" in output
        assert "39" in output

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            cli.main(["table2", "--scale", "galactic"])

    def test_data_experiment_at_tiny_scale(
        self, tiny_data, capsys, monkeypatch, tmp_path
    ):
        # The memo is keyed by persistence config, so the disk-cached CLI
        # builds its own tiny dataset (seconds) into the env-var cache dir.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        assert cli.main(["fig4", "--scale", "tiny", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "AVERAGE" in output

    def test_list_subcommand(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        for name in cli.EXPERIMENTS:
            assert name in output
        assert "available experiments" in output

    def test_jobs_and_cache_dir_flags_accepted(self, tmp_path):
        assert cli.main(
            [
                "table2",
                "--quiet",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path),
            ]
        ) == 0

    def test_run_rejects_nonpositive_max_shards(self, tmp_path):
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit):
                cli.main(
                    ["run", "--scale", "tiny", "--max-shards", bad,
                     "--cache-dir", str(tmp_path)]
                )

    def test_status_before_any_run(self, tmp_path, capsys):
        assert cli.main(
            ["status", "--scale", "tiny", "--cache-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "no store" in output
        assert "repro-experiments run" in output

    def test_run_max_shards_then_status_then_resume(self, tmp_path, capsys):
        base = ["--scale", "tiny", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli.main(["run", "--max-shards", "2"] + base) == 0
        assert "2/6 complete" in capsys.readouterr().out

        assert cli.main(["status", "--scale", "tiny", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "2/6 complete" in output
        assert "pending" in output

        # A second 'run' without --resume refuses to touch the partial store.
        with pytest.raises(SystemExit):
            cli.main(["run"] + base)
        capsys.readouterr()

        assert cli.main(["run", "--resume"] + base) == 0
        assert "6/6 complete" in capsys.readouterr().out

        # Complete store: 'run' is a cheap no-op, resumed or not.
        assert cli.main(["run"] + base) == 0
        assert "already complete" in capsys.readouterr().out

        assert cli.main(["status", "--scale", "tiny", "--cache-dir", str(tmp_path)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_status_with_corrupt_manifest_is_friendly(self, tmp_path, capsys):
        """A broken store must diagnose, not traceback (exit 0)."""
        from repro.experiments.config import preset
        from repro.experiments.dataset import store_root

        root = store_root(preset("tiny"), tmp_path)
        root.mkdir(parents=True)
        (root / "manifest.json").write_text('{"format": 99}')
        assert cli.main(
            ["status", "--scale", "tiny", "--cache-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "not usable" in output
        assert "repro-experiments run" in output

        (root / "manifest.json").write_text("not json at all")
        assert cli.main(
            ["status", "--scale", "tiny", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "not usable" in capsys.readouterr().out

    def test_train_then_models_then_rollback(self, tiny_data, tmp_path, capsys):
        base = ["--scale", "tiny", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli.main(["train"] + base) == 0
        output = capsys.readouterr().out
        assert "registered and promoted model v0001" in output

        assert cli.main(["train", "--no-promote"] + base) == 0
        assert "registered model v0002" in capsys.readouterr().out

        assert cli.main(["models", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "v0001" in output and "v0002" in output
        assert output.count("*promoted*") == 1

        assert cli.main(["models", "--promote", "2", "--cache-dir", str(tmp_path)]) == 0
        assert "promoted model v0002" in capsys.readouterr().out
        assert cli.main(["models", "--rollback", "--cache-dir", str(tmp_path)]) == 0
        assert "v0001" in capsys.readouterr().out

    def test_models_on_empty_registry(self, tmp_path, capsys):
        assert cli.main(["models", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_models_promote_unknown_version_fails(self, tmp_path, capsys):
        assert cli.main(
            ["models", "--promote", "7", "--cache-dir", str(tmp_path)]
        ) == 1
        assert "registry error" in capsys.readouterr().err

    def test_models_promote_and_rollback_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(
                ["models", "--promote", "2", "--rollback",
                 "--cache-dir", str(tmp_path)]
            )
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_registry_flags_rejected_elsewhere(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["table2", "--promote", "1"])
        with pytest.raises(SystemExit):
            cli.main(["table2", "--rollback"])
        with pytest.raises(SystemExit):
            cli.main(["run", "--no-promote", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            cli.main(["table2", "--registry", str(tmp_path)])
        with pytest.raises(SystemExit):
            cli.main(["table2", "--port", "9999"])
        with pytest.raises(SystemExit):
            cli.main(["report", "--host", "0.0.0.0"])

    def test_serve_binds_and_shuts_down(self, tmp_path, capsys, monkeypatch):
        """The serve command binds, prints its address, and exits cleanly
        on interrupt (the loop itself is interrupted immediately)."""
        import repro.service.server as server_module

        def interrupted(self, poll_interval=0.5):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            server_module.ThreadingHTTPServer, "serve_forever", interrupted
        )
        assert cli.main(
            ["serve", "--scale", "tiny", "--cache-dir", str(tmp_path),
             "--port", "0", "--quiet"]
        ) == 0
        captured = capsys.readouterr()
        assert "serving predictions on http://127.0.0.1:" in captured.out
        assert "no promoted model" in captured.err  # empty registry warns

    def test_report_writes_svg_beside_md_and_json(self, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert cli.main(
            ["report", "--scale", "tiny", "--only", "headline",
             "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
             "--quiet"]
        ) == 0
        assert (out / "report-tiny.md").is_file()
        assert (out / "report-tiny.json").is_file()
        svg = (out / "report-tiny.svg").read_text()
        assert svg.startswith("<svg xmlns=")
        assert "report-tiny.svg" in capsys.readouterr().out

    def test_report_without_base_folds_skips_svg(self, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert cli.main(
            ["report", "--scale", "tiny", "--only", "table2",
             "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
             "--quiet"]
        ) == 0
        assert (out / "report-tiny.md").is_file()
        assert not (out / "report-tiny.svg").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", ["run fig4", "fig4 run", "list fig4", "table2 all", "all table2"]
    )
    def test_commands_and_experiment_names_do_not_mix(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv.split())
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "models --jobs 2",
            "status --executor process",
            "fsck --scale tiny",
            "chaos --cache-dir x",
            "worker --jobs 2",
        ],
    )
    def test_option_the_command_never_reads_is_rejected(
        self, argv, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv.split())
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", ["run", "status", "report", "worker", "fsck"])
    def test_lease_ttl_must_be_positive(self, command):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--lease-ttl", "0"])
        assert exit_info.value.code == 2

    def test_options_follow_the_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--quiet", "table2"])
        assert exit_info.value.code == 2
        assert cli.main(["table2", "--quiet"]) == 0
        assert "288,000" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", _documented_invocations(), ids=" ".join)
    def test_documented_invocation_parses(self, argv):
        args = cli._parser().parse_args(argv)
        if "scale" in args:
            assert args.scale in PRESETS
        if "names" in args:
            names = [args.command, *args.names]
            assert names == ["all"] or set(names) <= set(cli.EXPERIMENTS)

    def test_all_includes_every_experiment_name(self):
        assert set(cli.EXPERIMENTS) >= {
            "table1",
            "table2",
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "headline",
            "iterations",
        }


#: Every experiment the protocol's leave-one-out folds back.
CV_EXPERIMENTS = [
    "fig5", "fig6", "fig7", "headline", "iterations", "ablate-k",
    "ablate-beta", "ablate-quantile", "ablate-features", "ablate-iid",
]


class TestProtocolBackedExperiments:
    def test_sections_match_golden_artifact_fingerprints(self, tmp_path, capsys):
        golden = json.loads(
            (
                Path(__file__).parent / "golden" / "tiny_protocol_golden.json"
            ).read_text()
        )["artifacts"]
        assert cli.main(
            CV_EXPERIMENTS
            + ["--scale", "tiny", "--quiet", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        # Each render is printed with one blank line after it.
        sections = out.split("\n\n")
        assert sections[-1] == ""
        assert len(sections[:-1]) == len(CV_EXPERIMENTS)
        for name, section in zip(CV_EXPERIMENTS, sections):
            digest = hashlib.sha256(section.encode()).hexdigest()[:16]
            assert digest == golden[name], name

    def test_report_reuses_folds_of_an_experiment_command(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert cli.main(
            ["fig6", "--scale", "tiny", "--quiet", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["report", "--scale", "tiny", "--quiet", "--only", "fig6",
             "--cache-dir", cache, "--out", str(tmp_path / "out")]
        ) == 0
        assert "protocol: 0 folds computed" in capsys.readouterr().out

    def test_full_report_after_an_experiment_command_needs_no_resume(
        self, tmp_path, capsys
    ):
        """`fig6` leaves the base variant complete and every other one
        untouched: a finished subset run, so a full `report` computes
        just the missing folds without asking for --resume."""
        cache = str(tmp_path / "cache")
        assert cli.main(
            ["fig6", "--scale", "tiny", "--quiet", "--cache-dir", cache]
        ) == 0
        store = Session("tiny", cache_dir=cache).protocol.store()
        missing = len(store.pending_keys())
        assert 0 < missing < store.total_units()
        capsys.readouterr()
        assert cli.main(
            ["report", "--scale", "tiny", "--quiet", "--cache-dir", cache,
             "--out", str(tmp_path / "out")]
        ) == 0
        assert (
            f"protocol: {missing} folds computed" in capsys.readouterr().out
        )

    def test_report_after_a_capped_report_still_demands_resume(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        args = ["report", "--scale", "tiny", "--quiet", "--cache-dir", cache,
                "--out", str(tmp_path / "out")]
        assert cli.main(args + ["--max-folds", "3"]) == 0
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
        assert exit_info.value.code == 2
        assert "partly computed variant (base)" in capsys.readouterr().err

    def test_fig10_builds_both_spaces_under_cache_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        assert cli.main(
            ["fig10", "--scale", "tiny", "--quiet", "--cache-dir", str(cache)]
        ) == 0
        assert "Figure 10" in capsys.readouterr().out
        assert list(cache.glob("store-tiny-ext-*"))
        assert list(cache.glob("protocol-tiny-ext-*"))
        assert not (tmp_path / ".repro-cache").exists()


class TestTournamentCommand:
    def test_writes_leaderboard_and_bench_artifact(self, tmp_path, capsys):
        out = tmp_path / "tournament"
        assert cli.main(
            ["tournament", "--scale", "tiny", "--programs", "sha",
             "--machines", "1", "--budget", "10", "--seeds", "1",
             "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
             "--quiet"]
        ) == 0
        assert (out / "tournament-tiny.md").is_file()
        assert (out / "tournament-tiny.json").is_file()
        bench = json.loads((out / "BENCH_search.json").read_text())
        assert bench["benchmark"] == "search"
        assert bench["budget"] == 10
        assert {s["strategy"] for s in bench["standings"]} >= {
            "random", "model-genetic",
        }
        stdout = capsys.readouterr().out
        assert "# Search tournament" in stdout

    def test_smoke_rejects_grid_overrides(self):
        with pytest.raises(SystemExit):
            cli.main(["tournament", "--smoke", "--budget", "5"])

    def test_flags_rejected_outside_tournament(self):
        with pytest.raises(SystemExit):
            cli.main(["table2", "--budget", "5"])
        with pytest.raises(SystemExit):
            cli.main(["table2", "--smoke"])

    def test_rejects_bad_budget_and_seeds(self, tmp_path):
        base = ["tournament", "--scale", "tiny",
                "--cache-dir", str(tmp_path), "--quiet"]
        with pytest.raises(SystemExit):
            cli.main(base + ["--budget", "0"])
        with pytest.raises(SystemExit):
            cli.main(base + ["--seeds", "0"])

    def test_smoke_grid_matches_bench_script(self):
        """The CLI gate grid and benchmarks/bench_search.py must agree."""
        import importlib.util
        from pathlib import Path

        bench_path = (
            Path(cli.__file__).resolve().parents[2]
            / "benchmarks"
            / "bench_search.py"
        )
        spec = importlib.util.spec_from_file_location("bench_search", bench_path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert bench.SMOKE_GRID == {
            "programs": list(cli.SMOKE_TOURNAMENT["programs"]),
            "machines": cli.SMOKE_TOURNAMENT["machines"],
            "budget": cli.SMOKE_TOURNAMENT["budget"],
            "seeds": tuple(range(cli.SMOKE_TOURNAMENT["seeds"])),
            "tolerance": cli.SMOKE_TOURNAMENT["tolerance"],
        }
