"""Round-trip tests for the plain-dict spec constructors shared by the
CLIs and the service's JSON payloads: a spec that crosses a JSON
boundary must produce the *same* options object — same digests, same
journal keys, same reports — as one built in-process."""

import json

import pytest

from repro.exec import load_journal
from repro.experiments import fault_matrix
from repro.experiments.campaign import (
    CampaignOptions,
    RunOutcome,
    build_campaign_report,
    campaign_spec_fingerprint,
    options_digest,
    unit_key,
    write_campaign_report,
)
from repro.experiments.ablations import main as ablations_main
from repro.experiments.campaign import main as campaign_main
from repro.experiments.fault_matrix import main as fault_matrix_main
from repro.experiments.recovery import main as recovery_main
from repro.experiments.runner import main as runner_main
from repro.llm.surrogate import SurrogateConfig
from repro.obs.cli import main as obs_main
from repro.search.cli import main as search_main
from repro.search.driver import SearchConfig, SearchDriver
from repro.search.objective import candidate_key
from repro.service.__main__ import main as service_main
from repro.sim.scenario import ScenarioType


def json_round_trip(data):
    """What an HTTP submission does to a payload."""
    return json.loads(json.dumps(data))


class TestCampaignOptionsRoundTrip:
    def test_defaults_round_trip(self):
        options = CampaignOptions()
        assert CampaignOptions.from_dict(options.to_dict()) == options

    def test_full_round_trip_through_json(self):
        options = CampaignOptions(
            use_recovery=False,
            recovery_strategy="replan",
            planner="rule",
            surrogate_config=SurrogateConfig(hesitation_rate=0.2),
            monitor_horizon_s=2.0,
            halt_on_violation=True,
            deadline_ms=100.0,
            breaker=True,
            crash_window=(10, 20),
            continue_on_role_error=True,
        )
        rebuilt = CampaignOptions.from_dict(json_round_trip(options.to_dict()))
        assert rebuilt == options
        assert options_digest(rebuilt) == options_digest(options)

    def test_json_integers_coerce_to_float_fields(self):
        # JSON has one number type: {"deadline_ms": 100} must equal a
        # CLI-built CampaignOptions(deadline_ms=100.0) digest-for-digest.
        rebuilt = CampaignOptions.from_dict(
            {"deadline_ms": 100, "monitor_horizon_s": 1}
        )
        direct = CampaignOptions(deadline_ms=100.0, monitor_horizon_s=1.0)
        assert rebuilt == direct
        assert repr(rebuilt) == repr(direct)
        assert options_digest(rebuilt) == options_digest(direct)
        assert campaign_spec_fingerprint(rebuilt) == campaign_spec_fingerprint(direct)

    def test_surrogate_config_dict_is_normalized(self):
        rebuilt = CampaignOptions.from_dict(
            {"surrogate_config": {"hesitation_rate": 0, "decision_period_ticks": 5}}
        )
        direct = CampaignOptions(
            surrogate_config=SurrogateConfig(
                hesitation_rate=0.0, decision_period_ticks=5
            )
        )
        assert options_digest(rebuilt) == options_digest(direct)

    def test_crash_window_list_becomes_tuple(self):
        rebuilt = CampaignOptions.from_dict({"crash_window": [10, 20]})
        assert rebuilt.crash_window == (10, 20)

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown campaign option"):
            CampaignOptions.from_dict({"deadline_msec": 100})

    def test_unknown_surrogate_key_raises(self):
        with pytest.raises(ValueError, match="unknown SurrogateConfig"):
            CampaignOptions.from_dict({"surrogate_config": {"nope": 1}})

    def test_bad_crash_window_raises(self):
        with pytest.raises(ValueError, match="crash_window"):
            CampaignOptions.from_dict({"crash_window": [1, 2, 3]})

    def test_none_and_empty_give_defaults(self):
        assert CampaignOptions.from_dict(None) == CampaignOptions()
        assert CampaignOptions.from_dict({}) == CampaignOptions()


class TestSearchConfigRoundTrip:
    def test_round_trip_through_json(self):
        config = SearchConfig(
            family="congested", mode="explore", seed=7, budget=12,
            batch=4, sampler="grid", grid_points=2, bins=3, jobs=2,
            timeout_s=30.0,
        )
        rebuilt = SearchConfig.from_dict(json_round_trip(config.to_dict()))
        assert rebuilt == config

    def test_json_number_coercion(self):
        rebuilt = SearchConfig.from_dict(
            {"family": "congested", "scale": 1, "cooling": 1, "seed": 3.0}
        )
        direct = SearchConfig(family="congested", scale=1.0, cooling=1.0, seed=3)
        assert rebuilt == direct
        assert repr(rebuilt) == repr(direct)

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown SearchConfig"):
            SearchConfig.from_dict({"family": "congested", "budge": 5})

    def test_validation_still_runs(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SearchConfig.from_dict({"family": "congested", "mode": "wander"})


class TestRetiredInputs:
    """Retired knobs (block dispatch, the phase profiler, the in-tree
    bench harness, ``--hosts`` and the queue backend) are errors, not
    silent no-ops."""

    def test_search_config_rejects_block_size(self):
        with pytest.raises(ValueError, match=r"unknown SearchConfig field\(s\) \['block_size'\]"):
            SearchConfig.from_dict({"family": "congested", "block_size": 4})

    def test_search_config_rejects_hosts(self):
        with pytest.raises(ValueError, match=r"unknown SearchConfig field\(s\) \['hosts'\]"):
            SearchConfig.from_dict({"family": "congested", "hosts": 2})

    def test_search_config_rejects_backend(self):
        with pytest.raises(ValueError, match=r"unknown SearchConfig field\(s\) \['backend'\]"):
            SearchConfig.from_dict({"family": "pedestrian", "backend": "local"})

    @pytest.mark.parametrize(
        "main, argv, refused",
        [
            (campaign_main, ["--seeds", "1", "--block-size", "2"],
             "unrecognized arguments: --block-size"),
            (search_main, ["falsify", "--family", "pedestrian", "--block-size", "2"],
             "unrecognized arguments: --block-size"),
            (campaign_main, ["--seeds", "0", "--profile", "{tmp}"],
             "unrecognized arguments: --profile"),
            (campaign_main, ["--seeds", "0", "--hotspots", "5"],
             "unrecognized arguments: --hotspots"),
            (runner_main, ["--seeds", "0", "--profile", "{tmp}"],
             "unrecognized arguments: --profile"),
            (fault_matrix_main, ["--seeds", "0", "--profile", "{tmp}"],
             "unrecognized arguments: --profile"),
            (search_main, ["falsify", "--family", "pedestrian", "--budget", "0",
                           "--out", "{tmp}", "--profile", "{tmp}"],
             "unrecognized arguments: --profile"),
            (obs_main, ["profile", "{tmp}"], "invalid choice: 'profile'"),
            (obs_main, ["bench", "--list"], "invalid choice: 'bench'"),
            (obs_main, ["regress", "{tmp}", "{tmp}"], "invalid choice: 'regress'"),
            (campaign_main, ["--seeds", "0", "--hosts", "2"],
             "unrecognized arguments: --hosts"),
            (search_main, ["falsify", "--family", "pedestrian", "--budget", "0",
                           "--out", "{tmp}", "--hosts", "2"],
             "unrecognized arguments: --hosts"),
            (campaign_main, ["--seeds", "0", "--backend", "queue"],
             "unrecognized arguments: --backend queue"),
            (campaign_main, ["--seeds", "0", "--spool", "{tmp}"],
             "unrecognized arguments: --spool"),
            (search_main, ["falsify", "--family", "pedestrian", "--budget", "0",
                           "--out", "{tmp}", "--backend", "queue"],
             "unrecognized arguments: --backend queue"),
            (service_main, ["serve", "--root", "{tmp}", "--backend", "queue"],
             "unrecognized arguments: --backend queue"),
        ],
        ids=[
            "campaign-block-size", "search-block-size", "campaign-profile",
            "campaign-hotspots", "runner-profile", "fault-matrix-profile",
            "search-profile", "obs-profile", "obs-bench", "obs-regress",
            "campaign-hosts", "search-hosts", "campaign-backend",
            "campaign-spool", "search-backend", "service-backend",
        ],
    )
    def test_cli_flag_is_a_usage_error(self, main, argv, refused, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exit_info.value.code == 2
        assert refused in capsys.readouterr().err


class TestExecutionFlags:
    """The execution flags are validated in one place: a combination no
    run can honour is a usage error on every campaign CLI."""

    @pytest.mark.parametrize(
        "main",
        [campaign_main, runner_main, recovery_main, fault_matrix_main],
        ids=["campaign", "runner", "recovery", "fault-matrix"],
    )
    def test_resume_without_journal_is_a_usage_error(self, main, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "0", "--resume"])
        assert exit_info.value.code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "main, argv, message",
        [
            (search_main, ["falsify", "--family", "pedestrian", "--jobs", "0"],
             "python -m repro.search falsify: error: jobs must be >= 1, got 0"),
            (search_main, ["explore", "--family", "pedestrian", "--jobs", "0"],
             "python -m repro.search explore: error: jobs must be >= 1, got 0"),
            (search_main, ["falsify", "--family", "pedestrian", "--budget", "0"],
             "python -m repro.search falsify: error: budget must be >= 1, got 0"),
            (ablations_main, ["--seeds", "0", "--jobs", "0"],
             "error: --jobs must be >= 1, got 0"),
        ],
        ids=["search-falsify-jobs", "search-explore-jobs", "search-budget",
             "ablations-jobs"],
    )
    def test_invalid_value_is_a_usage_error(self, main, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        if main is search_main:
            argv = argv + ["--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")
        assert not out.exists()  # refused before anything is written


class TestPinnedIdentities:
    def test_journal_keys_and_spec_fingerprints_keep_their_values(self, tmp_path):
        # Resume handles: a journal written by an earlier version must
        # still resume, so the values themselves are pinned.
        assert unit_key(ScenarioType.NOMINAL, 0) == "nominal:0:ddcf3b906d75"
        assert campaign_spec_fingerprint(None) == "38740e6788c9"
        driver = SearchDriver(
            SearchConfig(family="pedestrian", seed=0), CampaignOptions(),
            out_dir=tmp_path / "search",
        )
        assert driver.spec_fingerprint() == "a7631d940a26"
        assert (
            candidate_key("pedestrian", 0, 0, {"a": 1.0})
            == "search:pedestrian:0:00000:013446df8fd1"
        )
        # A journaled, traced, resilient sweep fills every payload slot.
        journal = tmp_path / "matrix.jsonl"
        fault_matrix.generate(
            seeds=(0,), scenarios=(ScenarioType.NOMINAL,), deadline_ms=100.0,
            breaker=True, journal=journal, trace=tmp_path / "trace",
        )
        keys = list(load_journal(journal).tasks)
        assert keys[0] == "nominal:0:none:res-d100.0-b1"
        assert len(keys) == len(fault_matrix.FAULT_FACTORIES)
        assert len(list((tmp_path / "trace" / "units").iterdir())) == len(keys)


def _outcome(seed, wall=0.5, trace=None):
    return RunOutcome(
        scenario="nominal", seed=seed, monitor_flagged=False,
        safety_flag_count=0, collision=False, clearance_time=3.0,
        gridlocked=False, timed_out=False, recovery_activations=0,
        faults_injected=0, comfort_violations=0, performance_flags=0,
        iterations=30, wall_time_s=wall, trace_file=trace,
        stl_robustness=0.5,
    )


class TestCanonicalReport:
    def test_nondeterministic_fields_excluded(self):
        results = {ScenarioType.NOMINAL: [_outcome(0, wall=1.23, trace="/tmp/a")]}
        report = build_campaign_report(results)
        row = report["scenarios"]["nominal"]["runs"][0]
        assert "wall_time_s" not in row
        assert "trace_file" not in row
        assert row["seed"] == 0

    def test_byte_identical_across_wall_times(self, tmp_path):
        options = CampaignOptions.from_dict({"deadline_ms": 100})
        a = {ScenarioType.NOMINAL: [_outcome(0, wall=0.1), _outcome(1, wall=9.9)]}
        b = {ScenarioType.NOMINAL: [_outcome(0, wall=7.7, trace="/x"), _outcome(1)]}
        path_a = write_campaign_report(a, tmp_path / "a.json", options)
        path_b = write_campaign_report(b, tmp_path / "b.json", options)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_report_carries_spec_fingerprint_and_options(self):
        options = CampaignOptions(breaker=True)
        report = build_campaign_report(
            {ScenarioType.NOMINAL: [_outcome(0)]}, options
        )
        assert report["spec_fingerprint"] == campaign_spec_fingerprint(options)
        assert report["options"]["breaker"] is True
        assert report["total_runs"] == 1
