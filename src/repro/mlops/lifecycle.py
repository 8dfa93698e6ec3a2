"""MLOps lifecycle orchestrator: the whole of paper Figure 6, end to end.

Given one platform's simulated campaign, :func:`run_lifecycle`:

1. ingests the training period through the data pipeline into a data lake;
2. materialises training features in the feature store;
3. trains the production algorithm, registers it, passes it through the
   CI/CD gate;
4. replays the held-out period as a live stream through the streaming
   :class:`~repro.streaming.replay.ReplayEngine` — columnar fleet merge,
   incremental windowed features, alarm incidents — resolving alarms via
   mitigation/migration and feeding the drift monitor and dashboards;
5. reports the ledger's confusion counts and VIRR plus drift status.

The replay step used to walk record objects one at a time through
``OnlinePredictionService.observe``; it now rides the replay engine with
the exact same serving semantics — score every CE from hour zero (warming
the rescore throttle), alarm only once the model is live at the split
hour, and block an alarmed DIMM until its UE (an infinite-horizon
:class:`~repro.streaming.alarms.AlarmManager` mirrors the old
``AlarmSystem``).  Scores and alarms are identical to the retired loop,
enforced by ``tests/mlops/test_lifecycle_replay.py``; the drift monitor
now sees the engine-served vectors (scored CEs) instead of per-CE
recomputed ones.

This is what the ``mlops_lifecycle.py`` example and the MLOps integration
tests run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.evaluation.experiment import MODEL_BUILDERS
from repro.evaluation.protocol import ExperimentProtocol
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.features.sampling import temporal_split
from repro.ml.metrics import ConfusionCounts
from repro.ml.threshold import select_threshold
from repro.mlops.data_pipeline import DataLake, default_ingestion_pipeline
from repro.mlops.feature_store import FeatureStore
from repro.mlops.migration import MigrationSimulator
from repro.mlops.model_registry import CiCdPipeline, ModelRegistry
from repro.mlops.monitoring import Dashboard, DriftMonitor
from repro.mlops.serving import (
    MIN_CES_BEFORE_SCORING,
    RESCORE_INTERVAL_HOURS,
    Alarm,
)
from repro.simulator.fleet import SimulationResult
from repro.streaming.bus import EventBus
from repro.streaming.replay import ReplayEngine


@dataclass
class LifecycleReport:
    """Outcome of one lifecycle run."""

    platform: str
    deployed: bool
    gate_reason: str
    model_version: int | None
    alarms: int
    scored: int
    confusion: ConfusionCounts | None
    virr: float | None
    observed_cold_fraction: float
    drifted: bool
    dashboard: dict[str, float]


def replay_held_out(
    simulation: SimulationResult,
    protocol: ExperimentProtocol,
    feature_pipeline: FeaturePipeline,
    model,
    threshold: float,
    split_hour: float,
    migration: MigrationSimulator,
    drift: DriftMonitor | None = None,
    dashboard: Dashboard | None = None,
    model_version: int = 0,
):
    """Stream the campaign through the replay engine with serving semantics.

    Scores every CE from hour zero exactly like the retired ``observe()``
    loop (the pre-deployment period warms the rescore throttle), raises
    alarms only from ``split_hour`` on, and keeps an alarmed DIMM blocked
    until its UE via an infinite-horizon alarm manager — the semantics of
    the serving layer's ``AlarmSystem``.  Alarms feed ``migration`` in
    stream order over the event bus; scored vectors feed ``drift``.
    Returns the engine's :class:`~repro.streaming.replay.StreamingReport`.
    """
    platform = simulation.platform.name
    configs = simulation.store.configs
    bus = EventBus()

    def _route_alarm(topic, incident) -> None:
        config = configs.get(incident.dimm_id)
        path = migration.on_alarm(
            Alarm(
                timestamp_hours=incident.opened_hour,
                platform=platform,
                server_id=config.server_id if config is not None else "",
                dimm_id=incident.dimm_id,
                score=incident.score,
                model_version=model_version,
            )
        )
        if dashboard is not None:
            dashboard.increment(f"migration.{path.value}")
            dashboard.record(
                "alarms.score", incident.opened_hour, incident.score
            )

    bus.subscribe("alarm.raised", _route_alarm)

    def _observe_drift(dimm_id, t, features, score) -> None:
        if drift is not None and t >= split_hour:
            drift.observe(features)

    engine = ReplayEngine(
        feature_pipeline,
        model,
        threshold,
        platform,
        configs=simulation.store.configs,
        # An infinite prediction window blocks an alarmed DIMM until its
        # UE, like the serving layer's AlarmSystem.
        labeling=replace(
            protocol.labeling, prediction_window_hours=float("inf")
        ),
        bus=bus,
        live_from_hour=0.0,
        alarm_from_hour=split_hour,
        min_ces_before_scoring=MIN_CES_BEFORE_SCORING,
        rescore_interval_hours=RESCORE_INTERVAL_HOURS,
        # One score per flush keeps the alarm schedule identical to the
        # synchronous observe() loop this replaced (queued scores behind a
        # fresh incident would otherwise surface as suppressed alarms).
        batch_size=1,
        score_hook=_observe_drift if drift is not None else None,
    )
    report = engine.replay(simulation.store)

    # Ground-truth failures for the ledger: every UE in the live window,
    # in time order (first UE per DIMM wins, as in the retired loop).
    live_ues = sorted(
        (
            (ue.timestamp_hours, ue.dimm_id)
            for ue in simulation.store.ues
            if ue.timestamp_hours >= split_hour
        ),
    )
    for hour, dimm_id in live_ues:
        migration.on_ue(dimm_id, hour)
        if dashboard is not None:
            dashboard.increment("ues.observed")
    return report


def run_lifecycle(
    simulation: SimulationResult,
    protocol: ExperimentProtocol,
    lake_root: str | Path,
    algorithm: str = "lightgbm",
    vms_per_server: float = 10.0,
) -> LifecycleReport:
    platform = simulation.platform.name
    dashboard = Dashboard()
    split_hour = protocol.sampling.train_fraction * simulation.duration_hours

    # 1. Data pipeline: raw records -> data lake -> training log store.
    pipeline = default_ingestion_pipeline()
    lake = DataLake(Path(lake_root))
    all_records = (
        list(simulation.store.configs.values())
        + list(simulation.store.ces)
        + list(simulation.store.ues)
        + list(simulation.store.events)
    )
    train_records = [
        record
        for record in all_records
        if getattr(record, "timestamp_hours", 0.0) < split_hour
    ]
    cleaned, stage_results = pipeline.run(train_records)
    for result in stage_results:
        dashboard.increment(f"pipeline.{result.stage}.records", result.records_out)
    lake.write_partition("bmc_train", cleaned)
    train_store = lake.as_log_store(("bmc_train",))
    for config in simulation.store.configs.values():
        train_store.add_config(config)

    # 2. Feature store: materialise the training snapshot.
    feature_pipeline = FeaturePipeline(
        FeaturePipelineConfig(labeling=protocol.labeling, sampling=protocol.sampling)
    )
    feature_store = FeatureStore(feature_pipeline)
    snapshot = feature_store.materialize(
        "train-v1", train_store, platform, campaign_end_hour=split_hour
    )
    dashboard.increment("feature_store.snapshots")
    samples = snapshot.samples

    # 3. Train, tune, register, gate.
    split = temporal_split(samples, split_hour, protocol.sampling)
    train, validation = split.train, split.validation
    if len(train) == 0 or train.y.sum() == 0:
        return LifecycleReport(
            platform=platform,
            deployed=False,
            gate_reason="insufficient training data",
            model_version=None,
            alarms=0,
            scored=0,
            confusion=None,
            virr=None,
            observed_cold_fraction=0.0,
            drifted=False,
            dashboard=dashboard.snapshot(),
        )
    model = MODEL_BUILDERS[algorithm](samples.feature_names, protocol.seed)
    eval_set = (
        (validation.X, validation.y) if len(validation) else (train.X, train.y)
    )
    model.fit(train.X, train.y, eval_set=eval_set)

    # Tune at *sample* granularity: the online service raises an alarm the
    # moment any single scoring crosses the threshold, so the threshold must
    # be calibrated against single-sample scores, not pooled DIMM scores.
    # A perfect validation F1 tends to sit at an extreme score; cap the
    # threshold with an alarm budget of ~3x the positive rate so serving
    # stays sensitive to slightly weaker scores (score calibration drifts
    # between the training period and live operation).
    tune_split = validation if len(validation) and validation.y.sum() else train
    tune_scores = model.predict_proba(tune_split.X)
    if tune_split.y.sum() > 0:
        point = select_threshold(tune_split.y, tune_scores, objective="f1")
        positive_rate = float(tune_split.y.mean())
        budget_cut = float(
            np.quantile(tune_scores, 1.0 - min(0.5, 3.0 * positive_rate))
        )
        threshold, tuned_f1 = min(point.threshold, budget_cut), point.f1
    else:
        threshold, tuned_f1 = 0.5, 0.0

    registry = ModelRegistry()
    cicd = CiCdPipeline(registry)
    version = registry.register(
        platform=platform,
        algorithm=algorithm,
        model=model,
        threshold=threshold,
        metrics={"f1": tuned_f1},
    )
    decision = cicd.submit(version)
    dashboard.increment("cicd.submissions")
    if not decision.promoted:
        return LifecycleReport(
            platform=platform,
            deployed=False,
            gate_reason=decision.reason,
            model_version=version.version,
            alarms=0,
            scored=0,
            confusion=None,
            virr=None,
            observed_cold_fraction=0.0,
            drifted=False,
            dashboard=dashboard.snapshot(),
        )

    # 4. Replay the held-out period as a live stream via the replay engine.
    migration = MigrationSimulator(
        vms_per_server=vms_per_server, rng=np.random.default_rng(protocol.seed)
    )
    drift = DriftMonitor(
        reference=samples.X, feature_names=samples.feature_names, min_samples=50
    )
    stream_report = replay_held_out(
        simulation,
        protocol,
        feature_pipeline,
        model,
        threshold,
        split_hour,
        migration,
        drift=drift,
        dashboard=dashboard,
        model_version=version.version,
    )

    ledger = migration.ledger
    counts = ledger.confusion()
    breakdown = ledger.virr(y_c=protocol.y_c)
    alarms_raised = stream_report.alarms.get("raised", 0)
    dashboard.increment("alarms.total", alarms_raised)

    return LifecycleReport(
        platform=platform,
        deployed=True,
        gate_reason=decision.reason,
        model_version=version.version,
        alarms=alarms_raised,
        scored=stream_report.scored,
        confusion=counts,
        virr=breakdown.virr,
        observed_cold_fraction=migration.orchestrator.observed_cold_fraction,
        drifted=drift.needs_retraining(),
        dashboard=dashboard.snapshot(),
    )
