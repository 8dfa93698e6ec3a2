"""CI gate: the live telemetry plane serves mid-run and changes nothing.

Replays a small fleet twice — once bare (the baseline digest), once with
a full live telemetry plane: :class:`~repro.obs.Observability` with the
replay SLO alert rules, event-count heartbeats, and a
:class:`~repro.obs.TelemetryServer` being hammered by concurrent scraper
threads for the whole run.  Gates:

* every ``/metrics`` response parses as Prometheus text exposition and
  every ``/metrics.json`` / ``/progress`` response parses as JSON — no
  torn scrapes under concurrency;
* at least one scrape observed in-flight ``repro_heartbeat`` gauges
  (the run was actually visible mid-flight, not just after the fact);
* ``/healthz`` answers throughout, and 200 by the end of a clean run;
* the instrumented run's score logs, alarm summaries, bus counts and
  settled cost digest are bit-for-bit the baseline's.

Usage::

    python benchmarks/check_telemetry_smoke.py [--scale 0.1]
        [--heartbeat-every 500] [--scrapers 4]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import PolicyEngine
from repro.fleetops.stream import merge_fleet_streams
from repro.obs import (
    DEFAULT_REPLAY_RULES,
    AlertEngine,
    Observability,
    TelemetryServer,
    parse_prometheus,
)
from repro.simulator import simulate_study

SEED = 7
THRESHOLD = 0.985
DURATION_HOURS = 1440.0


class _EchoModel:
    """Deterministic feature-dependent scores (no ML fit, full parity)."""

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


def _run(study, pipelines, obs=None, heartbeat_every=0):
    model = _EchoModel()
    assignments = {
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
    stores = {name: sim.store for name, sim in study.items()}
    engine = FleetReplayEngine(
        assignments,
        labeling=LabelingParams(),
        policy=PolicyEngine(seed=SEED),
        rescore_interval_hours=0.0,
        batch_size=256,
        engine="batched",
        collect_scores=True,
        obs=obs,
        heartbeat_every=heartbeat_every,
    )
    stream = merge_fleet_streams(stores)
    report = engine.replay(stream, stores)
    if obs is not None:
        obs.record_fleet_report(report)
    return engine, report


def _digest(engine, report) -> dict:
    body = json.dumps(
        {
            "costs": report.costs,
            "fleet_cost": report.fleet_cost,
            "actions": report.actions,
        },
        sort_keys=True,
    )
    return {
        "score_logs": {
            name: hashlib.sha256(
                json.dumps(log).encode("utf-8")
            ).hexdigest()
            for name, log in sorted(engine.score_logs.items())
        },
        "alarms": {
            name: payload["alarms"]
            for name, payload in sorted(report.platforms.items())
        },
        "bus_counts": dict(sorted(report.bus_counts.items())),
        "cost_digest": hashlib.sha256(body.encode("utf-8")).hexdigest()[:16],
    }


class _Scraper(threading.Thread):
    """Hammer the endpoint until stopped; validate every response."""

    def __init__(self, url: str, stop: threading.Event):
        super().__init__(daemon=True)
        self.url = url
        self.stop = stop
        self.scrapes = 0
        self.heartbeat_sightings = 0
        self.healthz_answers = 0
        self.failures: list[str] = []

    def run(self) -> None:
        while not self.stop.is_set():
            try:
                with urllib.request.urlopen(
                    self.url + "/metrics", timeout=5
                ) as response:
                    text = response.read().decode("utf-8")
                parse_prometheus(text)
                self.scrapes += 1
                if "repro_heartbeat{" in text:
                    self.heartbeat_sightings += 1
                with urllib.request.urlopen(
                    self.url + "/progress", timeout=5
                ) as response:
                    json.loads(response.read().decode("utf-8"))
                try:
                    with urllib.request.urlopen(
                        self.url + "/healthz", timeout=5
                    ) as response:
                        json.loads(response.read().decode("utf-8"))
                    self.healthz_answers += 1
                except urllib.error.HTTPError as error:
                    # 503 is a *valid* healthz answer (degraded), not a
                    # torn response; anything else is a failure.
                    if error.code != 503:
                        raise
                    self.healthz_answers += 1
            except Exception as error:  # noqa: BLE001 - gate reports all
                self.failures.append(repr(error))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--heartbeat-every", type=int, default=500)
    parser.add_argument("--scrapers", type=int, default=4)
    args = parser.parse_args(argv)

    study = simulate_study(
        scale=args.scale, seed=SEED, duration_hours=DURATION_HOURS
    )
    pipelines = {}
    for name, simulation in study.items():
        pipeline = FeaturePipeline()
        pipeline.fit(simulation.store)
        pipelines[name] = pipeline

    baseline_engine, baseline_report = _run(study, pipelines)
    baseline = _digest(baseline_engine, baseline_report)

    obs = Observability(alerts=AlertEngine(DEFAULT_REPLAY_RULES))
    failures: list[str] = []
    stop = threading.Event()
    with TelemetryServer(obs, port=0) as server:
        scrapers = [
            _Scraper(server.url, stop) for _ in range(max(1, args.scrapers))
        ]
        for scraper in scrapers:
            scraper.start()
        obs_engine, obs_report = _run(
            study, pipelines, obs=obs,
            heartbeat_every=args.heartbeat_every,
        )
        stop.set()
        for scraper in scrapers:
            scraper.join(10.0)
        # Final (quiescent) scrape: routes answer and the run is healthy.
        with urllib.request.urlopen(
            server.url + "/healthz", timeout=5
        ) as response:
            health = json.loads(response.read().decode("utf-8"))
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=5
        ) as response:
            final = parse_prometheus(response.read().decode("utf-8"))

    scrapes = sum(scraper.scrapes for scraper in scrapers)
    sightings = sum(scraper.heartbeat_sightings for scraper in scrapers)
    healthz = sum(scraper.healthz_answers for scraper in scrapers)
    for scraper in scrapers:
        failures.extend(scraper.failures)
    print(
        f"scrapes: {scrapes} parsed, {sightings} saw live heartbeats, "
        f"{healthz} healthz answers, {len(failures)} failures"
    )
    if failures:
        for failure in failures[:5]:
            print(f"FAIL: scrape error {failure}", file=sys.stderr)
        return 1
    if not scrapes:
        print("FAIL: no successful concurrent scrape", file=sys.stderr)
        return 1
    if not sightings:
        print("FAIL: no scrape saw in-flight heartbeats", file=sys.stderr)
        return 1
    if health.get("status") != "ok":
        print(f"FAIL: healthz degraded after clean run: {health}",
              file=sys.stderr)
        return 1
    if "repro_heartbeats_total" not in final["types"]:
        print("FAIL: final scrape lacks heartbeat family", file=sys.stderr)
        return 1

    instrumented = _digest(obs_engine, obs_report)
    if instrumented != baseline:
        for key in baseline:
            if baseline[key] != instrumented[key]:
                print(f"FAIL: digest mismatch in {key}", file=sys.stderr)
        return 1
    print("telemetry smoke: OK (digests bit-identical, scrapes clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
