"""P2 — Feature-engine throughput: fleet extraction and streaming replay.

Measures the hot paths the vectorized engine rebuilt:

* ``--fleet`` mode — ``FeaturePipeline.build_samples``: the cross-DIMM
  fleet engine vs the per-sample ``transform_one`` reference:
  ``pytest benchmarks/bench_pipeline_throughput.py --fleet
  [--bench-scale S]``.  Acceptance bars at ``scale=1.0``: >= 5x on the
  paper-shape platform (Purley), >= 3x on every platform, bit-identical
  sample sets (``results/pipeline_throughput_fleet.json``; other scales
  write the ``_smoke`` variant the CI regression gate diffs against).
* Streaming replay — CEs/sec through ``OnlinePredictionService`` on
  amortised-O(1) ``AppendableDimmHistory`` state vs the old
  rebuild-from-records approach (quadratic per DIMM).

Writes JSON perf artifacts to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import SEED, best_of, write_result
from repro.features.pipeline import FeaturePipeline
from repro.features.windows import DimmHistory
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.telemetry.log_store import iter_stream
from repro.telemetry.records import CERecord, MemEventRecord


class _ConstantModel:
    """Fixed-score model: replay cost is pure feature extraction."""

    def predict_proba(self, X) -> np.ndarray:
        return np.zeros(np.asarray(X).shape[0])


def _deploy_constant_model(platform: str) -> ModelRegistry:
    registry = ModelRegistry()
    version = registry.register(
        platform, "const", _ConstantModel(), threshold=0.99, metrics={"f1": 0.9}
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    return registry


def test_fleet_extraction_speedup(request):
    """--fleet mode: one cross-DIMM pass vs the per-sample reference."""
    if not request.config.getoption("--fleet"):
        pytest.skip("run with --fleet to benchmark the fleet engine")
    from repro.simulator import simulate_study

    scale = float(request.config.getoption("--bench-scale"))
    study = simulate_study(scale=scale, seed=SEED, duration_hours=2880.0)

    # Sub-paper (smoke) scales time the fleet pass in milliseconds: take
    # the best of more rounds so the CI regression gate sees scheduler
    # noise damped out.  The per-sample side runs for seconds per round.
    fleet_rounds, reference_rounds = (5, 2) if scale >= 1.0 else (11, 3)

    report: dict[str, dict] = {"scale": scale}
    for platform, simulation in study.items():
        store = simulation.store
        pipeline = FeaturePipeline()
        pipeline.fit(store)

        fleet_seconds, fleet_samples = best_of(
            fleet_rounds,
            lambda: pipeline.build_samples(
                store, platform, simulation.duration_hours, engine="fleet"
            ),
        )
        reference_seconds, reference_samples = best_of(
            reference_rounds,
            lambda: pipeline.build_samples(
                store, platform, simulation.duration_hours,
                engine="per_sample",
            ),
        )
        assert np.array_equal(fleet_samples.X, reference_samples.X)
        assert np.array_equal(fleet_samples.y, reference_samples.y)
        assert np.array_equal(fleet_samples.times, reference_samples.times)
        assert list(fleet_samples.dimm_ids) == list(reference_samples.dimm_ids)

        report[platform] = {
            "samples": len(fleet_samples),
            "fleet_seconds": round(fleet_seconds, 4),
            "per_sample_seconds": round(reference_seconds, 4),
            "speedup": round(reference_seconds / fleet_seconds, 2),
            "samples_per_second": round(len(fleet_samples) / fleet_seconds),
        }

    if scale >= 1.0:
        # Acceptance bars: >= 5x on the paper-shape platform, >= 3x
        # everywhere.
        assert report["intel_purley"]["speedup"] >= 5.0, report
        for platform in study:
            assert report[platform]["speedup"] >= 3.0, (platform, report)
        artifact = "pipeline_throughput_fleet.json"
    else:
        artifact = "pipeline_throughput_fleet_smoke.json"
    write_result(
        artifact, json.dumps({"fleet_vs_per_sample": report}, indent=2)
    )


def _replay_incremental(records, service) -> int:
    scored_records = 0
    for record in records:
        service.observe(record)
        scored_records += 1
    return scored_records


def _replay_rebuild(records, feature_store, configs, model) -> int:
    """The pre-engine serving loop: rebuild every array view per CE."""
    ces: dict[str, list] = {}
    events: dict[str, list] = {}
    processed = 0
    for record in records:
        processed += 1
        if isinstance(record, MemEventRecord):
            events.setdefault(record.dimm_id, []).append(record)
            continue
        if not isinstance(record, CERecord):
            continue
        dimm_ces = ces.setdefault(record.dimm_id, [])
        dimm_ces.append(record)
        if len(dimm_ces) < 2:
            continue
        config = configs.get(record.dimm_id)
        if config is None:
            continue
        history = DimmHistory.from_records(
            record.dimm_id, dimm_ces, events.get(record.dimm_id, [])
        )
        features = feature_store.serve_online(
            history, config, record.timestamp_hours
        )
        model.predict_proba(features.reshape(1, -1))
    return processed


def test_streaming_replay_throughput(paper_study):
    simulation = paper_study["intel_purley"]
    store = simulation.store
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    feature_store = FeatureStore(pipeline)
    registry = _deploy_constant_model("intel_purley")
    configs = store.configs

    records = list(iter_stream(store))
    ce_count = sum(1 for r in records if isinstance(r, CERecord))

    service = OnlinePredictionService(
        feature_store, registry, AlarmSystem(), "intel_purley",
        rescore_interval_hours=0.0,
    )
    for dimm_id, config in configs.items():
        service.register_config(dimm_id, config)
    start = time.perf_counter()
    _replay_incremental(records, service)
    incremental_seconds = time.perf_counter() - start
    assert service.scored > 0

    # The rebuild baseline is quadratic per DIMM; cap its workload and
    # normalise to CEs/sec over what it actually processed.
    cap = min(len(records), 30_000)
    start = time.perf_counter()
    _replay_rebuild(records[:cap], feature_store, configs, _ConstantModel())
    rebuild_seconds = time.perf_counter() - start
    rebuild_ces = sum(
        1 for r in records[:cap] if isinstance(r, CERecord)
    )

    incremental_rate = ce_count / incremental_seconds
    rebuild_rate = rebuild_ces / rebuild_seconds
    report = {
        "records": len(records),
        "ces": ce_count,
        "incremental_seconds": round(incremental_seconds, 3),
        "incremental_ces_per_second": round(incremental_rate),
        "rebuild_ces_scored": rebuild_ces,
        "rebuild_seconds": round(rebuild_seconds, 3),
        "rebuild_ces_per_second": round(rebuild_rate),
        "replay_speedup": round(incremental_rate / rebuild_rate, 2),
    }
    write_result(
        "pipeline_throughput_streaming.json",
        json.dumps({"streaming_replay": report}, indent=2),
    )
    assert incremental_rate > rebuild_rate


def test_streaming_long_history_scaling(paper_study):
    """One chatty DIMM: per-CE cost stays flat instead of growing with n."""
    simulation = paper_study["intel_purley"]
    store = simulation.store
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    feature_store = FeatureStore(pipeline)
    registry = _deploy_constant_model("intel_purley")
    dimm_id = store.dimm_ids_with_ces()[0]
    config = store.config_for(dimm_id)

    n_ces = 3000
    records = [
        CERecord(
            timestamp_hours=1.0 + 0.01 * i, server_id="bench-server",
            dimm_id="bench-dimm", rank=0, bank=i % 4, row=i % 64,
            column=i % 32, devices=(i % 4,), dq_count=1 + i % 2,
            beat_count=1 + i % 3, dq_interval=0, beat_interval=i % 5,
            error_bit_count=1 + i % 4,
        )
        for i in range(n_ces)
    ]

    service = OnlinePredictionService(
        feature_store, registry, AlarmSystem(), "intel_purley",
        rescore_interval_hours=0.0,
    )
    service.register_config("bench-dimm", config)
    start = time.perf_counter()
    _replay_incremental(records, service)
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    _replay_rebuild(
        records, feature_store, {"bench-dimm": config}, _ConstantModel()
    )
    rebuild_seconds = time.perf_counter() - start

    report = {
        "ces": n_ces,
        "incremental_seconds": round(incremental_seconds, 3),
        "rebuild_seconds": round(rebuild_seconds, 3),
        "speedup": round(rebuild_seconds / incremental_seconds, 2),
    }
    write_result(
        "pipeline_throughput_long_history.json",
        json.dumps({"streaming_long_history": report}, indent=2),
    )
    assert rebuild_seconds > incremental_seconds
