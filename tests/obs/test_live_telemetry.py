"""Live telemetry plane: snapshot series, SLO alerts, HTTP scrapes.

Covers the in-process pieces (:class:`SnapshotSeries`,
:class:`AlertRule` / :class:`AlertEngine`), the scrape endpoint's
routes and lifecycle, and the load-bearing integration contract: a
replay hammered by concurrent scrapers mid-flight stays bit-identical
to an uninstrumented run, and no scrape ever observes torn state.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.features.labeling import LabelingParams
from repro.obs import (
    DEFAULT_REPLAY_RULES,
    DEFAULT_SERVE_RULES,
    AlertEngine,
    AlertRule,
    Observability,
    SnapshotSeries,
    TelemetryServer,
    parse_prometheus,
)
from repro.streaming.bus import EventBus
from repro.streaming.replay import ReplayEngine


def _get(url: str, timeout: float = 5.0):
    """GET returning ``(status, body_text)``; HTTP errors are answers."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestSnapshotSeries:
    def test_append_and_last(self):
        series = SnapshotSeries()
        series.append("replay", {"events": 10})
        series.append("serve", {"submitted": 3})
        series.append("replay", {"events": 20})
        assert len(series) == 3
        assert series.last()["source"] == "replay"
        assert series.last("serve")["fields"] == {"submitted": 3}
        assert series.last("nope") is None

    def test_ring_is_bounded_but_seq_keeps_counting(self):
        series = SnapshotSeries(maxlen=4)
        for i in range(10):
            series.append("replay", {"events": i})
        assert len(series) == 4
        dump = series.to_dict()["entries"]
        assert [entry["seq"] for entry in dump] == [6, 7, 8, 9]

    def test_rates_between_two_most_recent_snapshots(self, monkeypatch):
        clock = iter([10.0, 12.0, 13.0])
        monkeypatch.setattr(
            "repro.obs.timeseries.time.time", lambda: next(clock)
        )
        series = SnapshotSeries()
        series.append("replay", {"events": 100, "note": "warm"})
        series.append("replay", {"events": 300, "note": "hot"})
        series.append("serve", {"submitted": 5})  # one snapshot: no rate
        rates = series.rates()
        assert rates == {"replay": {"events": 100.0}}

    def test_to_dict_is_json_serializable(self):
        series = SnapshotSeries()
        series.append("replay", {"events": 1})
        dump = series.to_dict()
        assert set(dump) == {"entries", "rates"}
        json.dumps(dump)


class TestAlertRule:
    def test_ratio_rule_fires_over_threshold(self):
        rule = AlertRule(
            name="shed_rate", field="shed", per="submitted", threshold=0.10
        )
        assert rule.check({"shed": 5, "submitted": 20}) == 0.25
        assert rule.check({"shed": 1, "submitted": 20}) is None

    def test_zero_denominator_stays_quiet(self):
        rule = AlertRule(
            name="shed_rate", field="shed", per="submitted", threshold=0.10
        )
        assert rule.check({"shed": 5, "submitted": 0}) is None

    def test_missing_fields_skip_the_rule(self):
        rule = AlertRule(
            name="shed_rate", field="shed", per="submitted", threshold=0.10
        )
        assert rule.check({"submitted": 20}) is None
        assert rule.check({"shed": 5}) is None
        assert rule.check({"shed": "n/a", "submitted": 20}) is None

    def test_absolute_rule_and_op_variants(self):
        rule = AlertRule(name="p99", field="p99_ms", threshold=250.0, op=">=")
        assert rule.check({"p99_ms": 250.0}) == 250.0
        rule = AlertRule(name="floor", field="scored", threshold=10, op="<")
        assert rule.check({"scored": 3}) == 3.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown alert op"):
            AlertRule(name="bad", field="x", threshold=1.0, op="!=")


class TestAlertEngine:
    def test_firings_hit_log_registry_and_dedicated_bus(self):
        engine = AlertEngine(DEFAULT_SERVE_RULES)
        obs = Observability(alerts=engine)
        obs.heartbeat(
            "serve",
            {"shed": 5, "submitted": 10, "p99_ms": 300.0, "answered": 0,
             "fallbacks": 0},
        )
        assert [entry["rule"] for entry in engine.log] == [
            "shed_rate", "p99_latency_ms"
        ]
        assert engine.critical_fired
        summary = engine.summary()
        assert summary == {
            "fired": 2,
            "by_rule": {"shed_rate": 1, "p99_latency_ms": 1},
            "critical": True,
        }
        snapshot = obs.metrics.snapshot()
        samples = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["repro_alerts_total"]["samples"]
        }
        assert samples[
            (("rule", "shed_rate"), ("severity", "critical"))
        ] == 1
        assert engine.bus.counts().get("obs.alert") == 2

    def test_alert_bus_is_isolated_from_replay_buses(self):
        replay_bus = EventBus()
        engine = AlertEngine(DEFAULT_REPLAY_RULES)
        engine.evaluate(
            "replay", {"dead_letters": 10, "events": 100}, None
        )
        assert engine.bus.counts().get("obs.alert") == 1
        assert replay_bus.counts() == {}

    def test_quiet_heartbeat_fires_nothing(self):
        engine = AlertEngine(DEFAULT_REPLAY_RULES)
        fired = engine.evaluate(
            "replay",
            {"dead_letters": 0, "events": 100, "fallbacks": 0, "scored": 50},
            None,
        )
        assert fired == []
        assert engine.summary() == {
            "fired": 0, "by_rule": {}, "critical": False,
        }


def make_served_bundle() -> Observability:
    obs = Observability()
    obs.metrics.counter(
        "repro_events_total", "Events.", labels=("platform",)
    ).labels(platform="k920").inc(7)
    with obs.tracer.span("replay", platform="k920"):
        obs.tracer.record("replay.stage.predict", wall_seconds=0.1)
    obs.heartbeat("replay", {"events": 7, "scored": 3})
    return obs


class TestTelemetryServer:
    def test_routes_serve_consistent_payloads(self):
        obs = make_served_bundle()
        with TelemetryServer(obs, port=0) as server:
            assert server.port != 0
            status, text = _get(server.url + "/metrics")
            assert status == 200
            parsed = parse_prometheus(text)
            assert parsed["samples"][
                ("repro_events_total", (("platform", "k920"),))
            ] == 7.0
            assert parsed["types"]["repro_heartbeat"] == "gauge"

            status, text = _get(server.url + "/metrics.json")
            assert status == 200
            metrics = json.loads(text)
            assert metrics["repro_events_total"]["type"] == "counter"

            status, text = _get(server.url + "/spans")
            assert status == 200
            spans = json.loads(text)
            assert [span["name"] for span in spans] == ["replay"]
            assert spans[0]["children"][0]["name"] == "replay.stage.predict"

            status, text = _get(server.url + "/progress")
            assert status == 200
            progress = json.loads(text)
            assert progress["entries"][0]["fields"] == {
                "events": 7, "scored": 3,
            }

    def test_unknown_route_is_a_json_404(self):
        with TelemetryServer(make_served_bundle(), port=0) as server:
            status, text = _get(server.url + "/nope")
        assert status == 404
        assert json.loads(text)["path"] == "/nope"

    def test_healthz_ok_by_default(self):
        with TelemetryServer(make_served_bundle(), port=0) as server:
            status, text = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(text)["status"] == "ok"

    def test_healthz_degrades_on_critical_alert(self):
        obs = Observability(alerts=AlertEngine(DEFAULT_SERVE_RULES))
        obs.heartbeat("serve", {"shed": 9, "submitted": 10})
        with TelemetryServer(obs, port=0) as server:
            status, text = _get(server.url + "/healthz")
        body = json.loads(text)
        assert status == 503
        assert body["status"] == "degraded"
        assert body["alerts"]["by_rule"] == {"shed_rate": 1}

    def test_healthz_consults_the_health_provider(self):
        provider = lambda: {"ok": False, "mode": "degraded_serving"}  # noqa: E731
        server = TelemetryServer(
            make_served_bundle(), port=0, health=provider
        )
        with server:
            status, text = _get(server.url + "/healthz")
        body = json.loads(text)
        assert status == 503
        assert body["health"] == {"mode": "degraded_serving"}

    def test_stop_closes_the_socket(self):
        server = TelemetryServer(make_served_bundle(), port=0)
        server.start()
        url = server.url
        assert _get(url + "/healthz")[0] == 200
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/healthz", timeout=2)


# -- live replay under concurrent scrape fire ------------------------------


class _EchoModel:
    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


@pytest.fixture(scope="module")
def purley(tiny_study):
    from repro.features.pipeline import FeaturePipeline

    simulation = tiny_study["intel_purley"]
    pipeline = FeaturePipeline()
    pipeline.fit(simulation.store)
    return simulation, pipeline


def _replay(simulation, pipeline, obs=None, heartbeat_every=0):
    engine = ReplayEngine(
        pipeline,
        _EchoModel(),
        0.985,
        "intel_purley",
        configs=simulation.store.configs,
        labeling=LabelingParams(),
        bus=EventBus(),
        rescore_interval_hours=0.0,
        batch_size=64,
        collect_scores=True,
        obs=obs,
        heartbeat_every=heartbeat_every,
    )
    report = engine.replay(simulation.store, model_name="echo")
    return engine, report


class _Scraper(threading.Thread):
    """Hammer /metrics until stopped; every response must parse whole."""

    def __init__(self, url: str, stop: threading.Event):
        super().__init__(daemon=True)
        self.url = url
        self.stop = stop
        self.heartbeat_counts: list = []
        self.scrapes = 0
        self.failures: list = []

    def run(self) -> None:
        while not self.stop.is_set():
            try:
                status, text = _get(self.url + "/metrics")
                assert status == 200
                parsed = parse_prometheus(text)
                total = sum(
                    value
                    for (name, _), value in parsed["samples"].items()
                    if name == "repro_heartbeats_total"
                )
                self.heartbeat_counts.append(total)
                self.scrapes += 1
            except Exception as error:  # noqa: BLE001 - reported below
                self.failures.append(repr(error))


class TestLiveReplayTelemetry:
    def test_heartbeats_and_server_change_nothing(self, purley):
        """The acceptance pin: scraped + heartbeating == bare replay."""
        simulation, pipeline = purley
        plain_engine, plain = _replay(simulation, pipeline)
        obs = Observability(alerts=AlertEngine(DEFAULT_REPLAY_RULES))
        with TelemetryServer(obs, port=0) as server:
            obs_engine, live = _replay(
                simulation, pipeline, obs=obs, heartbeat_every=25
            )
            status, _ = _get(server.url + "/metrics")
            assert status == 200
        assert plain_engine.score_log == obs_engine.score_log
        assert plain.alarms == live.alarms
        assert plain.bus_counts == live.bus_counts
        assert plain.events == live.events
        assert plain.scored == live.scored
        assert len(obs.progress) > 0

    def test_concurrent_scrapes_never_tear(self, purley):
        simulation, pipeline = purley
        obs = Observability()
        stop = threading.Event()
        with TelemetryServer(obs, port=0) as server:
            scrapers = [_Scraper(server.url, stop) for _ in range(3)]
            for scraper in scrapers:
                scraper.start()
            _replay(simulation, pipeline, obs=obs, heartbeat_every=10)
            stop.set()
            for scraper in scrapers:
                scraper.join(10.0)
        assert not any(scraper.failures for scraper in scrapers), [
            scraper.failures for scraper in scrapers
        ]
        assert sum(scraper.scrapes for scraper in scrapers) > 0
        for scraper in scrapers:
            # Counters are monotone: a torn scrape would show a dip.
            assert scraper.heartbeat_counts == sorted(
                scraper.heartbeat_counts
            )

    def test_heartbeat_gauges_track_the_run(self, purley):
        simulation, pipeline = purley
        obs = Observability()
        _, report = _replay(
            simulation, pipeline, obs=obs, heartbeat_every=25
        )
        snapshot = obs.metrics.snapshot()
        beats = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["repro_heartbeats_total"]["samples"]
        }
        assert beats[(("source", "fleet_replay"), ("worker", ""))] >= 1
        latest = obs.progress.last("fleet_replay")
        assert latest is not None
        assert latest["fields"]["events"] <= report.events
