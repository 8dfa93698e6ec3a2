"""Tiny-scale smoke test of the benchmark harness.

Runs the workloads at a small fleet scale, checks that every metric named
in ``BENCHMARK.json`` is printed with its unit, and that the output checks
fail when a result is deliberately corrupted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0"]


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Every workload on a small fleet."""
    for workload in workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "default_scale", 0.05)


@pytest.fixture
def small_ladder(monkeypatch):
    """A ladder short enough for the tiny stream, p99 still supported."""
    monkeypatch.setattr(workloads.Serving, "ladder_rates", (2000.0, 4000.0))
    monkeypatch.setattr(workloads.Serving, "reference_rate", 2000.0)
    monkeypatch.setattr(workloads.Serving, "warmup_requests", 200)
    monkeypatch.setattr(workloads.Serving, "rung_requests", 1000)


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("streaming_replay", 0),
        ("streaming_replay", 1),
        ("fleet_ops", 0),
        ("serving", 1),
    ],
)
def test_every_declared_metric_is_printed_with_its_unit(
    capsys, small_ladder, workload, trace
):
    code, result, lines = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert f"{name} {value!r} {unit}" in lines
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_serving_ladder_reports_supported_percentiles(capsys, small_ladder):
    _, result, _ = _run(capsys, "serving", 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["serve.samples"] == 1000
    assert 0 < metrics["serve.p50_ms"] <= metrics["serve.p99_ms"]
    assert metrics["streaming.incremental_serve.calls"] > 0
    assert metrics["mlops.ingest_calls"] > 0


def test_corrupted_replay_fails_the_run(capsys, monkeypatch):
    honest = workloads.StreamingReplay.run_units

    def corrupted(self, pause=None):
        units = honest(self, pause)
        units[0].output["scored"] += 1
        return units

    monkeypatch.setattr(workloads.StreamingReplay, "run_units", corrupted)
    code, result, lines = _run(capsys, "streaming_replay", 0)
    assert code == 1 and result["correct"] is False
    assert any(line.startswith("CHECK FAILED: timed replay") for line in lines)


def _unit(**output):
    return workloads.Unit(1.0, 10, 5, 0, dict(output))


def test_checks_catch_corrupted_outputs():
    reference = {
        "events": 10, "scored": 5, "batches": 2, "alarms": {"tp": 1},
        "score_log": [("d", 1.0, 0.0)],
    }
    assert workloads.check_streaming(
        reference, dict(reference), [_unit(**reference)], 10
    ) == []
    bad_log = dict(reference, score_log=[("d", 1.0, 0.5)])
    assert workloads.check_streaming(reference, bad_log, [], 10)
    bad_alarms = _unit(**dict(reference, alarms={"tp": 2}))
    assert workloads.check_streaming(reference, reference, [bad_alarms], 10)

    fleet = {"events": 10, "scored": 5, "digest": "abc", "f1": {"k920": 0.5}}
    assert workloads.check_fleet(fleet, [_unit(**fleet)]) == []
    assert workloads.check_fleet(fleet, [_unit(**dict(fleet, digest="abd"))])
    assert workloads.check_fleet(
        fleet, [_unit(**dict(fleet, f1={"k920": 0.4}))]
    )

    segment = {"records": 10, "ces": 8, "submitted": 10, "answered": 10,
               "scored": 4, "skipped": 4, "fallbacks": 0}
    assert workloads.check_serving([_unit(**segment)]) == []
    lost = _unit(**dict(segment, answered=9))
    assert workloads.check_serving([lost])
    unaccounted = _unit(**dict(segment, skipped=3))
    assert workloads.check_serving([unaccounted])


def _rung(rate, latencies):
    return loadgen.Rung(
        rate=rate, submitted=len(latencies), answered=len(latencies),
        fallbacks=0, shed=0, batches=1, scored=len(latencies),
        latencies_ms=list(latencies), late_ms=[0.0], backlog=0,
    )


def test_fallback_answers_are_one_infinite_sample_each():
    serving = workloads.Serving(3)
    serving.setup()
    front = serving.service()
    front.service.min_ces_before_scoring = 0
    records = [r for r in serving.records
               if isinstance(r, workloads.CERecord)][:40]

    def model_down(X):
        raise RuntimeError("model down")

    production = front.service.registry.production_model(workloads.PURLEY)
    production.model.predict_proba = model_down
    (rung,) = loadgen.run_ladder(lambda: front, [], records, [400.0])
    assert rung.fallbacks > 0
    assert len(rung.samples_ms()) == rung.submitted == len(records)
    assert rung.samples_ms().count(math.inf) == rung.failed


def test_max_rps_stops_at_the_first_failing_rung():
    fast = [1.0] * 1000
    slow = [1.0] * 980 + [500.0] * 20
    assert loadgen.max_passing_rate(
        [_rung(100.0, fast), _rung(200.0, slow), _rung(400.0, fast)]
    ) == 100.0
    assert loadgen.max_passing_rate(
        [_rung(400.0, fast), _rung(100.0, slow)]
    ) == 0.0


def test_rates_are_scaled_to_the_nominal_host_speed():
    # The reference ran at twice its nominal time around the unit, so the
    # unit's 2 s would have taken 1 s on the nominal host.
    slow = [2 * hostspeed.REFERENCE_NOMINAL_S] * run.REFERENCE_SAMPLES
    units = [[workloads.Unit(2.0, 10, 4, 0)]]
    assert run.scaled_seconds(units, [slow, slow]) == [1.0]
    assert run.median_rate(units, "events", [slow, slow]) == 10.0


def test_layer_map_names_every_layer_metric_once():
    mapped = [
        name
        for row in json.loads((HERE / "layer_map.json").read_text())["layers"]
        for name in row["metrics"]
    ]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
