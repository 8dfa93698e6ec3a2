"""P9 — Observability overhead: instrumented vs uninstrumented replay.

Replays the three-platform heterogeneous fleet through
:class:`~repro.fleetops.engine.FleetReplayEngine` twice — once bare,
once with a full :class:`~repro.obs.Observability` bundle wired in
(metrics registry + hierarchical tracer) — and gates the layer's core
contract:

* **bit-parity** — per-platform score logs, alarm summaries, bus counts
  and the settled cost digest of the instrumented run are bit-for-bit
  the uninstrumented run's.  Instrumentation only *reads* finished
  reports and clocks; it never touches RNG, ordering, or numerics.
* **exporters** — the run's Prometheus text exposition parses back
  cleanly and the JSONL dump round-trips to an identical payload.
* **overhead** — best-of-N wall clock with instrumentation on stays
  within 10% of the bare run (gated by
  ``check_observability_overhead.py`` on the recorded artifact).

Artifact: ``results/observability.json`` at ``--bench-scale 1.0``,
``results/observability_smoke.json`` otherwise (the CI smoke job's
input).

Run with::

    pytest benchmarks/bench_observability.py --observability [--bench-scale S]
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import SEED, best_of, write_result
from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import PolicyEngine
from repro.fleetops.stream import merge_fleet_streams
from repro.obs import (
    Observability,
    parse_prometheus,
    payload_from_jsonl,
    payload_to_jsonl,
    to_prometheus,
)
from repro.simulator import simulate_study

THRESHOLD = 0.985
DURATION_HOURS = 2880.0
#: Heartbeat cadence for the instrumented runs: frequent enough to prove
#: the live-telemetry path is exercised, coarse enough to stay cheap.
HEARTBEAT_EVERY = 2000


class _EchoModel:
    """Deterministic feature-dependent scores (no ML fit, full parity)."""

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


def _assignments(study, pipelines):
    model = _EchoModel()
    return {
        name: ServingAssignment(
            platform=name,
            model_name="echo",
            train_platform=name,
            model=model,
            threshold=THRESHOLD,
            pipeline=pipelines[name],
            configs=simulation.store.configs,
            live_from_hour=0.6 * simulation.duration_hours,
        )
        for name, simulation in study.items()
    }


def _run(study, pipelines, obs=None, collect_scores=False, heartbeat_every=0):
    stores = {name: sim.store for name, sim in study.items()}
    engine = FleetReplayEngine(
        _assignments(study, pipelines),
        labeling=LabelingParams(),
        policy=PolicyEngine(seed=SEED),
        rescore_interval_hours=0.0,
        batch_size=256,
        engine="batched",
        collect_scores=collect_scores,
        obs=obs,
        heartbeat_every=heartbeat_every,
    )
    stream = merge_fleet_streams(stores)
    report = engine.replay(stream, stores)
    if obs is not None:
        obs.record_fleet_report(report)
    return engine, report


def _cost_digest(report) -> str:
    body = json.dumps(
        {
            "costs": report.costs,
            "fleet_cost": report.fleet_cost,
            "actions": report.actions,
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _alarm_summaries(report) -> dict:
    return {
        name: payload["alarms"] for name, payload in report.platforms.items()
    }


def test_observability_overhead(request):
    """--observability mode: parity + exporter health + overhead."""
    if not request.config.getoption("--observability"):
        pytest.skip("run with --observability to benchmark the obs layer")
    scale = float(request.config.getoption("--bench-scale"))
    study = simulate_study(
        scale=scale, seed=SEED, duration_hours=DURATION_HOURS
    )
    pipelines = {}
    for name, simulation in study.items():
        pipeline = FeaturePipeline()
        pipeline.fit(simulation.store)
        pipelines[name] = pipeline

    # -- bit-parity gate (untimed) -----------------------------------------
    plain_engine, plain_report = _run(
        study, pipelines, collect_scores=True
    )
    obs = Observability()
    obs_engine, obs_report = _run(
        study, pipelines, obs=obs, collect_scores=True,
        heartbeat_every=HEARTBEAT_EVERY,
    )
    parity = {
        "score_logs": all(
            plain_engine.score_logs[name] == obs_engine.score_logs[name]
            for name in study
        ),
        "alarm_summaries": (
            _alarm_summaries(plain_report) == _alarm_summaries(obs_report)
        ),
        "bus_counts": plain_report.bus_counts == obs_report.bus_counts,
        "cost_digest": _cost_digest(plain_report) == _cost_digest(obs_report),
    }
    parity["all"] = all(parity.values())
    assert parity["all"], parity

    # -- exporter health ----------------------------------------------------
    exposition = to_prometheus(obs)
    parsed = parse_prometheus(exposition)
    prometheus_ok = (
        parsed["types"].get("repro_replay_events_total") == "counter"
        and len(parsed["samples"]) > 0
    )
    assert prometheus_ok, "prometheus exposition failed to round-trip"
    payload = obs.payload()
    rebuilt = payload_from_jsonl(payload_to_jsonl(obs))
    # the dump carries samples + spans verbatim; registration-order
    # metadata (label_names order, histogram bounds) is not round-tripped
    jsonl_ok = rebuilt["spans"] == payload["spans"] and all(
        rebuilt["metrics"][name]["samples"] == family["samples"]
        and rebuilt["metrics"][name]["type"] == family["type"]
        for name, family in payload["metrics"].items()
    )
    assert jsonl_ok, "JSONL dump did not round-trip"
    roots = [span["name"] for span in payload["spans"]]
    assert "fleet_replay" in roots, roots

    # -- overhead: median of 3 paired (plain, instrumented) samples --------
    # Pairing each instrumented run with an adjacent bare run, then taking
    # the median ratio, damps one-sided scheduler noise that a single
    # best-of comparison can mistake for instrumentation cost.  The
    # instrumented side runs with live heartbeats on, so the gate covers
    # the telemetry plane's hot path, not just the report projection.
    overhead_samples = []
    plain_seconds = obs_seconds = float("inf")
    for _ in range(3):
        pair_plain, (_, timed_plain) = best_of(
            1, lambda: _run(study, pipelines)
        )
        pair_obs, (_, timed_obs) = best_of(
            1,
            lambda: _run(
                study, pipelines, obs=Observability(),
                heartbeat_every=HEARTBEAT_EVERY,
            ),
        )
        assert timed_plain.events == timed_obs.events
        overhead_samples.append(pair_obs / pair_plain - 1.0)
        plain_seconds = min(plain_seconds, pair_plain)
        obs_seconds = min(obs_seconds, pair_obs)
    overhead = sorted(overhead_samples)[len(overhead_samples) // 2]

    result = {
        "scale": scale,
        "platforms": sorted(study),
        "events": timed_plain.events,
        "scored": timed_plain.scored,
        "plain_seconds": round(plain_seconds, 4),
        "instrumented_seconds": round(obs_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_samples": [
            round(sample, 4) for sample in overhead_samples
        ],
        "heartbeat_every": HEARTBEAT_EVERY,
        "parity": parity,
        "cost_digest": _cost_digest(obs_report),
        "prometheus_ok": prometheus_ok,
        "jsonl_ok": jsonl_ok,
        "metric_families": len(payload["metrics"]),
        "metric_samples": sum(
            len(family["samples"])
            for family in payload["metrics"].values()
        ),
        "root_spans": roots,
    }
    artifact = (
        "observability.json" if scale >= 1.0 else "observability_smoke.json"
    )
    write_result(artifact, json.dumps({"observability": result}, indent=2))
