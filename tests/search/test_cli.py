"""Tests for ``python -m repro.search`` and the obs summarize audit."""

import json
import shutil

import pytest

from repro.obs.cli import main as obs_main
from repro.search import CORPUS_FILE_NAME, SEARCH_TRACE_NAME
from repro.search.cli import main as search_main


class TestSpacesAndCover:
    def test_spaces_lists_families(self, capsys):
        assert search_main(["spaces"]) == 0
        out = capsys.readouterr().out
        for family in ("pedestrian", "ghost", "crossing"):
            assert family in out

    def test_cover_accepts_directory(self, falsify_run, capsys):
        _, out_dir = falsify_run
        assert search_main(["cover", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "cells occupied" in out or "coverage" in out

    def test_cover_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            search_main(["cover", str(tmp_path / "nope.json")])


class TestReplay:
    def test_replay_is_exact(self, falsify_run, capsys):
        _, out_dir = falsify_run
        assert search_main(["replay", str(out_dir / CORPUS_FILE_NAME)]) == 0
        out = capsys.readouterr().out
        assert "replayed search-pedestrian-0" in out

    def test_replay_report_sections(self, falsify_run, capsys):
        _, out_dir = falsify_run
        code = search_main(
            ["replay", str(out_dir / CORPUS_FILE_NAME), "--report"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "STL properties" in out
        assert "Counterexamples (scenario search)" in out

    def test_replay_report_runs_the_entry_once(self, falsify_run, monkeypatch, capsys):
        # The report's STL verdicts and sections come from the replay's
        # own run, not from a second run of the same spec.
        from repro.search import objective

        built = []
        build = objective.build_controller

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(objective, "build_controller", counting)
        _, out_dir = falsify_run
        code = search_main(["replay", str(out_dir / CORPUS_FILE_NAME), "--report"])
        assert code == 0
        assert len(built) == 1
        out = capsys.readouterr().out
        assert "safety: rho=" in out

    def test_replay_unknown_index(self, falsify_run):
        _, out_dir = falsify_run
        code = search_main(
            ["replay", str(out_dir / CORPUS_FILE_NAME), "--index", "99"]
        )
        assert code == 1

    def test_replay_empty_corpus(self, tmp_path):
        empty = tmp_path / CORPUS_FILE_NAME
        empty.write_text("")
        assert search_main(["replay", str(empty)]) == 1


class TestExplore:
    def test_explore_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "explore"
        code = search_main(
            [
                "explore",
                "--family",
                "pedestrian",
                "--budget",
                "3",
                "--sampler",
                "uniform",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "coverage.json").exists()
        assert (out_dir / SEARCH_TRACE_NAME).exists()
        assert "coverage:" in capsys.readouterr().out


class TestSummarizeAudit:
    def test_search_out_dir_is_consistent(self, falsify_run, capsys):
        _, out_dir = falsify_run
        assert obs_main(["summarize", str(out_dir), "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        assert "counterexamples=" in out

    def test_tampered_footer_fails(self, falsify_run, tmp_path, capsys):
        _, out_dir = falsify_run
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        shutil.copy(out_dir / SEARCH_TRACE_NAME, tampered / SEARCH_TRACE_NAME)
        path = tampered / SEARCH_TRACE_NAME
        lines = path.read_text().splitlines()
        footer = json.loads(lines[-1])
        footer["search_summary"]["evaluations"] += 1
        lines[-1] = json.dumps(footer, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert obs_main(["summarize", str(tampered), "--no-timing"]) == 1
        assert "MISMATCH" in capsys.readouterr().out
