"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

RUN_MINI = [
    "run", "single_platform",
    "--set", "platforms=intel_purley",
    "--set", "models=ce_count_threshold",
    "--set", "scale=0.05",
    "--set", "hours=1440",
    "--set", "max_samples_per_dimm=8",
]


def test_run_single_platform_prints_matrix_and_cache_stats(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(RUN_MINI + ["--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "SCENARIO single_platform" in captured
    assert "artifact cache" in captured
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "single_platform"
    assert payload["cells"][0]["train_platform"] == "intel_purley"
    assert payload["cache_stats"]["simulation"]["builds"] == 1


def test_run_second_invocation_served_from_disk_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "artifacts")
    assert main(RUN_MINI + ["--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert "simulations built=1" in first
    assert main(RUN_MINI + ["--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert "simulations built=0" in second
    assert "sample sets built=0" in second


def test_run_spec_file_with_engine_and_workers(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenario": "single_platform",
        "platforms": ["intel_purley"],
        "models": ["ce_count_threshold"],
        "scale": 0.05,
        "hours": 1440.0,
        "max_samples_per_dimm": 8,
    }))
    code = main([
        "run", "--spec", str(spec_path),
        "--engine", "per_sample", "--workers", "2",
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "engine=per_sample" in captured


def test_run_unknown_scenario_lists_choices(capsys):
    code = main(["run", "frobnicate"])
    captured = capsys.readouterr()
    assert code == 2
    assert "frobnicate" in captured.err
    assert "transfer_matrix" in captured.err


def test_run_without_scenario_or_spec_errors(capsys):
    code = main(["run"])
    captured = capsys.readouterr()
    assert code == 2
    assert "scenario" in captured.err


def test_run_bad_override_errors(capsys):
    code = main(["run", "single_platform", "--set", "frobnicate=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "frobnicate" in captured.err


def test_simulate_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "logs.jsonl"
    code = main([
        "simulate", "--platform", "intel_purley", "--scale", "0.02",
        "--hours", "500", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "wrote" in captured and "CE DIMMs" in captured


def test_analyze_reads_logs_back(tmp_path, capsys):
    out = tmp_path / "logs.jsonl"
    main([
        "simulate", "--platform", "intel_purley", "--scale", "0.02",
        "--hours", "500", "--seed", "3", "--out", str(out),
    ])
    capsys.readouterr()
    code = main(["analyze", "--logs", str(out), "--platform", "intel_purley"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Relative UE rate" in captured
    assert "dq_count" in captured


def test_analyze_mismatched_platform_count_errors(tmp_path, capsys):
    out = tmp_path / "logs.jsonl"
    out.write_text("")
    code = main([
        "analyze", "--logs", str(out),
        "--platform", "a", "--platform", "b",
    ])
    assert code == 2
    assert "counts must match" in capsys.readouterr().err


def test_analyze_duplicate_platform_labels_error(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    first.write_text("")
    second.write_text("")
    code = main([
        "analyze", "--logs", str(first), "--logs", str(second),
        "--platform", "same", "--platform", "same",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "duplicate platform labels" in captured.err


def test_analyze_duplicate_file_stems_error(tmp_path, capsys):
    """Two logs files with the same stem would silently merge; refuse."""
    first = tmp_path / "x" / "logs.jsonl"
    second = tmp_path / "y" / "logs.jsonl"
    first.parent.mkdir()
    second.parent.mkdir()
    first.write_text("")
    second.write_text("")
    code = main(["analyze", "--logs", str(first), "--logs", str(second)])
    captured = capsys.readouterr()
    assert code == 2
    assert "duplicate platform labels" in captured.err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _dump_obs(path, events, extra=False):
    from repro.obs import Observability, write_observability

    obs = Observability()
    obs.metrics.counter(
        "repro_replay_events_total", "Events.", labels=("platform",)
    ).labels(platform="k920").inc(events)
    if extra:
        obs.metrics.counter("repro_alerts_total", "Alerts.").inc(2)
    write_observability(path, obs)
    return path


def test_metrics_diff_renders_per_family_deltas(tmp_path, capsys):
    a = _dump_obs(tmp_path / "a.obs.jsonl", 100)
    b = _dump_obs(tmp_path / "b.obs.jsonl", 250, extra=True)
    assert main(["metrics", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "metrics diff:" in out
    assert "{platform=k920}: 100 -> 250 (+150)" in out
    assert "repro_alerts_total (counter): only in" in out


def test_metrics_diff_excludes_positional_dump(tmp_path, capsys):
    a = _dump_obs(tmp_path / "a.obs.jsonl", 1)
    assert main(["metrics", str(a), "--diff", str(a), str(a)]) == 2
    assert "not both" in capsys.readouterr().err


def test_metrics_without_dump_or_diff_errors(capsys):
    assert main(["metrics"]) == 2
    assert "give a dump file" in capsys.readouterr().err


def test_top_polls_a_live_telemetry_endpoint(capsys):
    from repro.obs import Observability, TelemetryServer

    obs = Observability()
    obs.heartbeat("replay", {"events": 120, "scored": 40})
    with TelemetryServer(obs, port=0) as server:
        assert main(["top", server.url, "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert "repro top @" in out
    assert "replay #0" in out
    assert "events=120" in out


def test_top_reports_unreachable_endpoint(capsys):
    assert main(
        ["top", "127.0.0.1:1", "--count", "1", "--interval", "0"]
    ) == 1
    assert "cannot poll" in capsys.readouterr().err
