"""Tests for the CLI entry point and the EXPERIMENTS.md generator."""

import pytest

from repro.__main__ import main as cli_main
from repro.exec import Engine
from repro.experiments import ALL_EXPERIMENTS

#: One block per experiment kind: two tables and a figure.
SAMPLE_IDS = ("table1", "table2", "fig6")


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(ALL_EXPERIMENTS)

    def test_single_experiment_runs(self, capsys):
        assert cli_main(["table2"]) == 0
        assert "RAPL" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "python -m repro" in capsys.readouterr().out


class TestReportBlocks:
    def test_table_blocks_have_paper_and_measured(self):
        for exp_id in SAMPLE_IDS:
            block = Engine(jobs=1, cache=False).run_one(exp_id)
            assert block.rows
            for quantity, paper, measured in block.rows:
                assert quantity and paper and measured

    def test_bench_paths_exist(self):
        import pathlib

        for exp_id in SAMPLE_IDS:
            bench = Engine(jobs=1, cache=False).run_one(exp_id).bench
            assert pathlib.Path(bench).exists(), bench


class TestExperimentsMdUpToDate:
    def test_committed_file_has_all_sections(self):
        import pathlib

        text = pathlib.Path("EXPERIMENTS.md").read_text()
        for section in ("Table I", "Table II", "Table III",
                        "Figure 1", "Figure 7", "Figure 8",
                        "Per-query collection overheads", "RAPL counter overflow"):
            assert section in text, f"missing section {section!r}"


class TestArgvErrors:
    """A rejected argument value is a one-line usage error (exit 2),
    never a raw exception."""

    @pytest.mark.parametrize("argv", [
        ["report", "--jobs", "0"],
        ["exec", "run", "table2", "--jobs", "0"],
        ["bench", "perf", "{tmp}/bench.json", "--smok"],
        ["bench", "perf", "{tmp}/bench.json", "{tmp}/other.json"],
        ["pack", "run", "phi-micsmc", "--jobs", "0"],
    ])
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("argv, needle", [
        (["store", "bench", "4", "4", "30"], "unknown experiment 'store'"),
        (["exec", "bench"], "usage: python -m repro exec run"),
        (["service", "bench", "--racks", "2"],
         "usage: python -m repro service smoke"),
    ])
    def test_retired_bench_verbs_exit_two(self, argv, needle, capsys):
        """The bench drivers folded into ``bench perf`` are gone, not
        aliased: each exits 2 with its command's usage."""
        assert cli_main(argv) == 2
        assert needle in capsys.readouterr().err
