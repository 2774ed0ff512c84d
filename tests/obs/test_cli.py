"""Tests for the ``python -m repro.obs`` CLI: summarize, tail, diff, errors."""

import json

import pytest

from repro.core import OrchestrationController, RoleKind, RoleResult, Verdict
from repro.obs import cli as cli_module
from repro.obs.cli import main, summarize_path
from repro.obs.trace import TraceWriter, trace_controller
from tests.conftest import ScriptedRole, StubEnvironment, constant_generator


def _write_trace(tmp_path, name="run-a", steps=3, fail=True):
    results = (
        [RoleResult(verdict=Verdict.FAIL, narrative="x"), RoleResult(verdict=Verdict.PASS)]
        if fail
        else [RoleResult(verdict=Verdict.PASS)]
    )
    monitor = ScriptedRole(results, name="Monitor", kind=RoleKind.SAFETY_MONITOR)
    controller = OrchestrationController(
        [constant_generator("go"), monitor], StubEnvironment(steps=steps)
    )
    path = tmp_path / f"{name}.trace.jsonl"
    recorder = trace_controller(controller, path, trace_id=name)
    result = controller.run()
    recorder.finalize(result.metrics)
    return path, result


class TestSummarize:
    def test_consistent_trace_exits_zero(self, tmp_path, capsys):
        path, result = _write_trace(tmp_path)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runs        : 1" in out
        assert f"iterations  : {result.iterations}" in out
        assert "1/1 traces match" in out

    def test_json_output(self, tmp_path, capsys):
        path, result = _write_trace(tmp_path)
        assert main(["summarize", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["iterations_completed"] == result.iterations
        assert data["mismatches"] == []

    def test_no_timing_omits_latency(self, tmp_path, capsys):
        path, _ = _write_trace(tmp_path)
        main(["summarize", str(path), "--no-timing"])
        assert "latency" not in capsys.readouterr().out

    def test_directory_aggregates(self, tmp_path, capsys):
        _, a = _write_trace(tmp_path, name="run-a")
        _, b = _write_trace(tmp_path, name="run-b")
        assert main(["summarize", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runs        : 2" in out
        assert f"iterations  : {a.iterations + b.iterations}" in out

    def test_tampered_summary_fails(self, tmp_path, capsys):
        # A footer claiming different counts than the events support must
        # be flagged: the trace is the evidence, not the summary.
        writer = TraceWriter(tmp_path / "bad.trace.jsonl")
        writer.write(
            {"kind": "trace_header", "schema": 1, "trace_kind": "run", "trace_id": "bad", "meta": {}}
        )
        writer.write(
            {"kind": "event", "seq": 1, "event": "iteration_finished", "iteration": 0, "time": 0.1, "role": None, "payload": {}}
        )
        writer.write(
            {
                "kind": "trace_footer",
                "schema": 1,
                "trace_id": "bad",
                "events": 1,
                "spans": 0,
                "metrics_summary": {
                    "iterations_completed": 99,
                    "violation_counts": {},
                    "fault_count": 0,
                    "recovery_activations": 0,
                },
                "telemetry": None,
            }
        )
        writer.close()
        assert main(["summarize", str(writer.path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_summarize_path_latency_from_spans(self, tmp_path):
        path, result = _write_trace(tmp_path)
        summary = summarize_path(path)
        monitor = summary["latency"]["role_latency_s.Monitor"]
        assert int(monitor["count"]) == result.iterations

    def test_no_dropped_events_no_warning(self, tmp_path, capsys):
        # Older recorders wrote a ``dropped_events`` count into the footer
        # (events a capped in-memory bus log lost); the bus keeps no log
        # now, and such a footer summarizes clean, with no warning.
        path, _ = _write_trace(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[-1]["dropped_events"] = 2
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dropped" not in out
        assert "1/1 traces match" in out
        assert main(["summarize", str(path), "--json"]) == 0
        assert "dropped_events" not in json.loads(capsys.readouterr().out)

    def test_a_directory_without_traces_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["summarize", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"obs: no trace under {empty}\n"
        assert captured.out == ""


class TestTail:
    def test_tail_shows_events(self, tmp_path, capsys):
        path, _ = _write_trace(tmp_path)
        assert main(["tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "violation_detected role=Monitor" in out
        assert "[it 0 t=0.0s] iteration  end=0.1s roles=Generator:info:" in out
        assert "run_terminated" in out

    def test_tail_line_limit(self, tmp_path, capsys):
        path, _ = _write_trace(tmp_path)
        main(["tail", str(path), "-n", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_tail_zero_lines_prints_nothing(self, tmp_path, capsys):
        path, _ = _write_trace(tmp_path)
        assert main(["tail", str(path), "-n", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_tail_lines_must_not_be_negative(self, tmp_path, capsys):
        path, _ = _write_trace(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["tail", str(path), "-n", "-3"])
        assert exit_info.value.code == 2
        assert "-n/--lines" in capsys.readouterr().err

    def test_tail_event_filter(self, tmp_path, capsys):
        path, result = _write_trace(tmp_path)
        main(["tail", str(path), "--event", "iteration", "-n", "100"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == result.iterations
        assert all("] iteration  end=" in line for line in lines)
        main(["tail", str(path), "--event", "violation_detected", "-n", "100"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "violation_detected" in lines[0]

    def test_tail_no_traces(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path)]) == 1

    def test_tail_resolves_service_job_dir(self, tmp_path, capsys):
        # A service job directory is marked by job.json; its traces live
        # in trace/ and search/ sub-trees.  Tail must find them there —
        # this used to exit 1 with "no run traces found".
        job_dir = tmp_path / "j000001"
        (job_dir / "search").mkdir(parents=True)
        job_dir.joinpath("job.json").write_text(json.dumps({"id": "j000001"}))
        _write_trace(job_dir / "search", name="falsify")
        assert main(["tail", str(job_dir)]) == 0
        out = capsys.readouterr().out
        assert "] iteration  end=" in out

    def test_tail_follow_picks_up_appended_events(
        self, tmp_path, capsys, monkeypatch
    ):
        path, _ = _write_trace(tmp_path)
        extra = {
            "kind": "event",
            "seq": 999,
            "event": "follow_probe",
            "iteration": 9,
            "time": 1.0,
            "role": None,
            "payload": {},
        }
        cycles = {"n": 0}

        def scripted_sleep(_interval):
            cycles["n"] += 1
            if cycles["n"] == 1:
                with path.open("a") as fh:
                    fh.write(json.dumps(extra) + "\n")
            else:
                raise KeyboardInterrupt  # the user's Ctrl-C

        monkeypatch.setattr(cli_module.time, "sleep", scripted_sleep)
        assert main(["tail", str(path), "--follow"]) == 0
        out = capsys.readouterr().out
        assert "follow_probe" in out

    def test_tail_follow_zero_lines_prints_only_new_events(
        self, tmp_path, capsys, monkeypatch
    ):
        path, _ = _write_trace(tmp_path)
        extra = {"kind": "event", "seq": 999, "event": "follow_probe",
                 "iteration": 9, "time": 1.0, "role": None, "payload": {}}
        cycles = {"n": 0}

        def scripted_sleep(_interval):
            cycles["n"] += 1
            if cycles["n"] == 1:
                with path.open("a") as fh:
                    fh.write(json.dumps(extra) + "\n")
            else:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli_module.time, "sleep", scripted_sleep)
        assert main(["tail", str(path), "--follow", "-n", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[it 9 t=1.0s] follow_probe"
        ]

    def test_tail_follow_ignores_partial_lines(
        self, tmp_path, capsys, monkeypatch
    ):
        path, _ = _write_trace(tmp_path)
        cycles = {"n": 0}

        def scripted_sleep(_interval):
            cycles["n"] += 1
            if cycles["n"] == 1:
                with path.open("a") as fh:
                    fh.write('{"kind": "event", "event": "half')  # no newline
            else:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli_module.time, "sleep", scripted_sleep)
        assert main(["tail", str(path), "--follow"]) == 0
        assert "half" not in capsys.readouterr().out


    def test_follow_prints_what_tail_prints_for_a_live_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        # The trace appears and grows while it is followed, cut mid-line
        # and mid-tick; once it is complete, follow must have printed
        # exactly what a plain tail prints.
        source, _ = _write_trace(tmp_path / "src", steps=4)
        data = source.read_bytes()
        live = tmp_path / "live" / "run-a.trace.jsonl"
        # Just past the violation (its tick record not yet written), then
        # partway through that tick record, then the rest.
        held = data.index(b"\n", data.index(b"violation_detected")) + 1
        cuts = [held, held + 20, len(data)]
        cycles = {"n": 0}

        def scripted_sleep(_interval):
            n = cycles["n"]
            cycles["n"] += 1
            if n == len(cuts):
                raise KeyboardInterrupt
            live.parent.mkdir(exist_ok=True)
            live.write_bytes(data[: cuts[n]])

        monkeypatch.setattr(cli_module.time, "sleep", scripted_sleep)
        assert main(["tail", str(live), "--follow", "-n", "1000"]) == 0
        followed = capsys.readouterr().out
        assert main(["tail", str(live), "-n", "1000"]) == 0
        printed = capsys.readouterr().out
        kinds = [json.loads(line)["kind"] for line in data.splitlines()]
        assert len(printed.splitlines()) == kinds.count("event") + kinds.count("iteration")
        first_tick = [line.split("] ")[1].split()[0] for line in printed.splitlines()[:2]]
        assert first_tick == ["violation_detected", "iteration"]
        assert followed == printed

    @pytest.mark.parametrize(
        "name,expected",
        [
            (
                "stub-crash-role",
                [
                    "[it 0 t=0.0s] violation_detected role=Monitor  category=safety detail=too close",
                    "[it 0 t=0.0s] iteration  end=0.1s "
                    "roles=Generator:info:1.4853e-05s,Monitor:fail:6.669e-06s "
                    "action=go source=Generator",
                    "[it 1 t=0.1s] violation_detected role=Monitor  category=safety detail=too close",
                    "[it 1 t=0.1s] iteration  end=0.2s "
                    "roles=Generator:info:5.404e-06s,Monitor:fail:4.949e-06s "
                    "action=go source=Generator",
                    "[it 2 t=0.2s] iteration  end=unfinished roles=Generator:info:4.481e-06s",
                ],
            ),
            (
                "stub-crash-observe",
                [
                    "[it 0 t=0.0s] iteration  end=0.1s "
                    "roles=Generator:info:7.36e-06s,Monitor:pass:5.373e-06s "
                    "action=go source=Generator",
                    "[it 1 t=0.1s] iteration  end=0.2s "
                    "roles=Generator:info:7.546e-06s,Monitor:pass:4.054e-06s "
                    "action=go source=Generator",
                    "[it 2 t=0.2s] iteration  end=unfinished roles=none",
                ],
            ),
        ],
    )
    def test_a_tick_is_one_line_after_its_events(self, name, expected, capsys):
        # Each tick line carries its iteration, start and end sim time (or
        # ``unfinished``), each role's verdict and latency in execution
        # order (``none``: it stopped before its state update) and the
        # action with its source; events written during it come first.
        from tests.obs.test_trace_fixtures import DATA

        assert main(["tail", str(DATA / f"{name}.trace.jsonl"), "-n", "100"]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
    def test_follow_interval_must_be_positive_and_finite(
        self, tmp_path, capsys, monkeypatch, interval
    ):
        path, _ = _write_trace(tmp_path)

        def no_reading(_path):
            raise AssertionError("a trace was read before --interval was checked")

        monkeypatch.setattr(cli_module, "_discover_safely", no_reading)
        with pytest.raises(SystemExit) as exit_info:
            main(["tail", str(path), "--follow", "--interval", interval])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--interval" in captured.err
        assert captured.out == ""

    def test_follow_interval_keeps_its_floor(self, tmp_path, capsys, monkeypatch):
        path, _ = _write_trace(tmp_path)
        slept = []

        def scripted_sleep(interval):
            slept.append(interval)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module.time, "sleep", scripted_sleep)
        assert main(["tail", str(path), "--follow", "--interval", "0.01"]) == 0
        assert slept == [0.1]


class TestEvidenceTampering:
    """Editing a v2 trace's records after the fact is drift, both for
    ``summarize`` (exit 1) and for ``query --verify`` (exit 2)."""

    def _indexed(self, tmp_path):
        path, _ = _write_trace(tmp_path)
        assert main(["query", str(tmp_path)]) == 0
        return path

    @staticmethod
    def _rewrite(path, edit):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in edit(records)))

    def _assert_drift(self, tmp_path, path, capsys):
        capsys.readouterr()
        assert main(["summarize", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert main(["query", str(tmp_path), "--verify"]) == 2

    def test_untouched_trace_verifies(self, tmp_path):
        self._indexed(tmp_path)
        assert main(["query", str(tmp_path), "--verify"]) == 0

    def test_edited_role_verdict(self, tmp_path, capsys):
        path = self._indexed(tmp_path)

        def flip_first_verdict(records):
            tick = next(r for r in records if r["kind"] == "iteration")
            name, verdict, latency = tick["roles"][1]
            tick["roles"][1] = [name, "pass" if verdict == "fail" else "fail", latency]
            return records

        self._rewrite(path, flip_first_verdict)
        self._assert_drift(tmp_path, path, capsys)

    def test_deleted_notable_event(self, tmp_path, capsys):
        path = self._indexed(tmp_path)

        def drop_violation(records):
            first = next(
                r for r in records if r.get("event") == "violation_detected"
            )
            return [r for r in records if r is not first]

        self._rewrite(path, drop_violation)
        self._assert_drift(tmp_path, path, capsys)


class TestSchemaV1Trace:
    """A v1 trace (``data/stub-v1.trace.jsonl``, the stub run of
    ``test_trace._traced_run`` recorded by the v1 writer) still loads,
    summarizes, verifies, and diffs clean against the same run in v2."""

    def test_summarize_verify_and_diff(self, tmp_path, capsys):
        from tests.obs.test_trace import V1_FIXTURE, _traced_run

        v1 = tmp_path / "v1" / V1_FIXTURE.name
        v1.parent.mkdir()
        v1.write_bytes(V1_FIXTURE.read_bytes())
        assert main(["summarize", str(v1)]) == 0
        assert "1/1 traces match" in capsys.readouterr().out
        assert main(["query", str(v1.parent)]) == 0
        assert main(["query", str(v1.parent), "--verify"]) == 0
        _, _, v2 = _traced_run(tmp_path / "v2", name="stub-v1")
        capsys.readouterr()
        assert main(["diff", str(v1), str(v2), "--no-timing"]) == 0
        assert "counts identical" in capsys.readouterr().out


class TestDiff:
    def test_identical_traces(self, tmp_path, capsys):
        a, _ = _write_trace(tmp_path / "a", name="run")
        b, _ = _write_trace(tmp_path / "b", name="run")
        assert main(["diff", str(a), str(b)]) == 0
        assert "counts identical" in capsys.readouterr().out

    def test_differing_traces_exit_two(self, tmp_path, capsys):
        a, _ = _write_trace(tmp_path / "a", name="run", fail=True)
        b, _ = _write_trace(tmp_path / "b", name="run", fail=False)
        assert main(["diff", str(a), str(b), "--no-timing"]) == 2
        out = capsys.readouterr().out
        assert "counts DIFFER" in out
        assert "violations.safety" in out

    def test_b_without_traces_exits_one(self, tmp_path, capsys):
        a, _ = _write_trace(tmp_path / "a", name="run")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["diff", str(a), str(empty)]) == 1
        assert capsys.readouterr().err == f"obs: no trace under {empty}\n"

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["diff", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "1  A or B names no trace file or directory" in out
        assert "2  count drift" in out


class TestQueryArguments:
    """``obs query`` refuses what it cannot apply, before it scans."""

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["--where", "nosuchfield<0"], "unknown field 'nosuchfield'"),
            (["--where", "rho<<0"], "bad --where 'rho<<0'"),
            (["--where", "rho=>0"], "bad --where 'rho=>0'"),
            (["--group-by", "nosuch"], "unknown field 'nosuch'"),
            (["--sort", "nosuch"], "unknown field 'nosuch'"),
            (["--sort=-nosuch.deep"], "unknown field 'nosuch.deep'"),
            (["--sort", "rho_min"], "unknown field 'rho_min'"),
            (["--sort", "-nosuch"], "unknown field 'nosuch'"),
        ],
        ids=["where-field", "where-value", "where-value-eq", "group-by", "sort",
             "sort-descending", "sort-group-field-ungrouped",
             "sort-descending-separate"],
    )
    def test_refused_with_a_message(self, tmp_path, capsys, argv, named):
        _write_trace(tmp_path)
        assert main(["query", str(tmp_path)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert not (tmp_path / "obs-index.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--where", "robustness<1"],
            ["--where", "violations_by_role.Monitor>=1"],
            ["--where", "rho="],
            ["--group-by", "scenario", "--sort=-rho_min"],
            ["--sort=-violations"],
            ["--group-by", "scenario", "--sort", "-violations"],
        ],
        ids=["alias", "dotted", "empty-value", "group-field", "descending",
             "group-descending-separate"],
    )
    def test_known_fields_accepted(self, tmp_path, capsys, argv):
        _write_trace(tmp_path)
        assert main(["query", str(tmp_path)] + argv) == 0

    def test_sort_descending_takes_a_separate_value(self, tmp_path, capsys):
        # ``--sort -FIELD``, as documented, is ``--sort=-FIELD``.
        _write_trace(tmp_path, name="run-a", fail=False)
        _write_trace(tmp_path, name="run-b", fail=True)
        out = {}
        for sort in ("--sort=-rho", "--sort -rho", "--sort -violations", "--sort violations"):
            assert main(["query", str(tmp_path), "--format", "json", *sort.split()]) == 0
            out[sort] = capsys.readouterr().out
        assert out["--sort -rho"] == out["--sort=-rho"]
        order = {sort: [row["trace_id"] for row in json.loads(out[sort])] for sort in out}
        assert order["--sort -violations"] == ["run-b", "run-a"]
        assert order["--sort violations"] == ["run-a", "run-b"]

    def test_group_rows_carry_the_group_fields(self, tmp_path, capsys):
        from repro.obs.index import GROUP_FIELDS

        _write_trace(tmp_path)
        assert main(["query", str(tmp_path), "--group-by", "seed", "--format", "json"]) == 0
        (group,) = json.loads(capsys.readouterr().out)
        assert list(group) == sorted(("seed",) + GROUP_FIELDS)

    def test_limit_must_not_be_negative(self, tmp_path, capsys):
        _write_trace(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["query", str(tmp_path), "--limit", "-1"])
        assert exit_info.value.code == 2
        assert "--limit" in capsys.readouterr().err


class TestTopArguments:
    def test_interval_must_be_positive(self, tmp_path, capsys):
        _write_trace(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["top", "--dir", str(tmp_path), "--interval", "-1", "--iterations", "2"])
        assert exit_info.value.code == 2
        assert "--interval" in capsys.readouterr().err

    def test_iterations_must_be_at_least_one(self, tmp_path, capsys):
        _write_trace(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["top", "--dir", str(tmp_path), "--iterations", "0"])
        assert exit_info.value.code == 2
        assert "--iterations" in capsys.readouterr().err


class TestParentWrittenTraces:
    """Traces recorded by the earlier writer (their footers carry
    ``dropped_events``) summarize, verify and diff clean."""

    def test_summarize_verify_and_diff(self, tmp_path, capsys):
        from tests.obs.test_trace_fixtures import DATA, RUNS

        recorded = tmp_path / "recorded"
        recorded.mkdir()
        for name in RUNS:
            (recorded / f"{name}.trace.jsonl").write_bytes(
                (DATA / f"{name}.trace.jsonl").read_bytes()
            )
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name, run in RUNS.items():
            run(fresh / f"{name}.trace.jsonl")
        assert main(["summarize", str(recorded), "--no-timing"]) == 0
        old = capsys.readouterr().out
        assert "3/3 traces match" in old
        assert main(["summarize", str(fresh), "--no-timing"]) == 0
        assert capsys.readouterr().out == old
        assert main(["query", str(recorded)]) == 0
        assert main(["query", str(recorded), "--verify"]) == 0
        assert main(["diff", str(recorded), str(fresh), "--no-timing"]) == 0
        assert "counts identical" in capsys.readouterr().out


class TestMissingPath:
    @pytest.mark.parametrize(
        "command",
        [["summarize"], ["tail"], ["query"], ["query", "--verify"], ["diff", "{missing}"]],
        ids=["summarize", "tail", "query", "query-verify", "diff"],
    )
    def test_missing_path_is_an_error_message(self, tmp_path, capsys, command):
        missing = tmp_path / "no-such-trace"
        argv = [arg.format(missing=missing) for arg in command] + [str(missing)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"obs: no trace file or directory at {missing}\n"
