"""Replay coordinator: fan fleet-replay partitions out, merge bit-for-bit.

The coordinator shards the fleet by DIMM (see
:mod:`repro.distributed.shards`), runs one
:class:`~repro.fleetops.engine.FleetReplayEngine` per shard in a worker
process, and merges the per-partition score logs, alarm managers and
event-bus traffic back into one :class:`FleetReport` that is
**bit-for-bit identical** to the single-process replay:

* every replay decision is per-DIMM (min-CE gating, rescore throttle,
  alarm suppression window, incident lifecycle) and the model is
  stateless across rows; workers run with the engine's
  ``coherent_flush`` mode so micro-batch flush timing — the one
  cross-DIMM coupling (admission consults the alarm state, incidents
  open at flush) — cannot leak between DIMMs, and a DIMM partition
  reproduces exactly the scores and incidents its DIMMs see in the
  full merged walk.  The single-process baseline the parity suite and
  CI gate compare against runs with the same mode;
* score logs are concatenated and stably sorted by ``(t, dimm_id)`` —
  the canonical order the parity suite compares in;
* per-platform alarm managers merge by concatenating incidents (sorted
  by ``(opened_hour, dimm_id)``), unioning the disjoint per-DIMM UE
  maps, and summing counters; every field of
  :meth:`AlarmManager.summary` is an order-invariant reduction over
  incidents, so the merged summary equals the single-process one;
* each worker records its bus traffic via an ``ALL_TOPICS`` subscriber
  and ships the ``(topic, payload)`` batch home; the coordinator
  republishes them in partition order, so downstream subscribers and
  ``bus_counts`` see exactly the single-process event totals — the
  ``EventBus`` is the cross-process fan-in seam;
* workers replay with ``policy=None``; mitigation is applied
  coordinator-side over the merged incidents in canonical
  ``(opened_hour, platform, dimm_id)`` order, then costs settle on the
  merged alarm managers.  (In-engine policy feed order depends on
  micro-batch flush timing, so the deterministic canonical order is the
  distributed contract; the parity suite applies the same canonical
  pass to the single-process baseline when comparing settled costs.)

Fault tolerance reuses the PR 7 machinery end to end: the process pool
falls back to threads then inline on pool-level failures, a worker that
dies with a transient error is retried with backoff and finally rerun
inline, a worker halted mid-partition (``halt_after``) leaves a
checkpoint that the coordinator resumes deterministically, and
duplicate result delivery is idempotent (partitions merge keyed by
index, first result wins).
"""

from __future__ import annotations

import pickle
import tempfile
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.distributed.shards import ShardManifest, load_shard, write_fleet_shards
from repro.features.labeling import LabelingParams
from repro.features.pipeline import _extract_fleet_shard
from repro.features.sampling import SampleSet, thinning_jitters
from repro.fleetops.cost import CostModel, combine_summaries
from repro.fleetops.engine import (
    _NULL_POLICY,
    FleetReplayEngine,
    FleetReport,
    ServingAssignment,
    _ColumnsStore,
)
from repro.fleetops.stream import merge_fleet_streams
from repro.obs.bridge import Observability
from repro.obs.tracing import NULL_TRACER
from repro.streaming.alarms import AlarmManager
from repro.streaming.bus import ALL_TOPICS, EventBus


@dataclass
class PartitionOutcome:
    """Everything one worker ships home for one partition."""

    index: int
    halted: bool = False
    checkpoint: str | None = None
    events: int = 0
    seconds: float = 0.0
    predict_seconds: float = 0.0
    #: platform -> {"alarms": AlarmManager, "score_log": [...], counters}.
    platforms: dict = field(default_factory=dict)
    #: The worker bus's traffic, in publish order.
    bus_events: list = field(default_factory=list)
    #: The worker bus's final per-topic counts.  Equals the recorded
    #: traffic for an uninterrupted run; a checkpoint-resumed run only
    #: records post-resume publishes, so the coordinator reconciles its
    #: counts against these (the resumed engine restores the pre-halt
    #: accounting from the snapshot).
    bus_counts: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    #: The worker's serialized Observability bundle (metrics snapshot +
    #: span tree + heartbeat progress), when the coordinator runs with
    #: observability on.  Folded into the coordinator registry under a
    #: ``worker="wN"`` label and grafted into the coordinator span tree.
    obs_payload: dict | None = None


def _replay_partition(payload: dict) -> PartitionOutcome:
    """Worker body: replay one shard with a private engine and bus.

    Module-level so it pickles into worker processes (the same
    constraint as ``features.pipeline._extract_payload``).
    """
    manifest = ShardManifest.from_dict(payload["manifest"])
    index = payload["index"]
    columns_by = load_shard(
        payload["shard_dir"], manifest, index, mmap=payload["mmap"]
    )
    stores = {
        platform: _ColumnsStore(columns)
        for platform, columns in columns_by.items()
        if len(columns.ces) + len(columns.ues) + len(columns.events)
    }
    outcome = PartitionOutcome(index=index)
    if payload.get("fail_partition") == index:
        # Test hook: simulate a worker crash once (a marker on shared
        # disk makes the retry succeed, like a real transient death).
        marker = Path(payload["shard_dir"]) / f"failed_{index:04d}.marker"
        if not marker.exists():
            marker.write_text("injected", encoding="utf-8")
            raise OSError(f"injected worker failure on partition {index}")
    if not stores:
        return outcome
    bus = EventBus()
    bus.subscribe(
        ALL_TOPICS,
        lambda topic, event: outcome.bus_events.append((topic, event)),
    )
    wobs = Observability() if payload.get("observability") else None
    engine = FleetReplayEngine(
        payload["assignments"],
        labeling=payload["labeling"],
        policy=None,
        cost_model=CostModel(),
        bus=bus,
        min_ces_before_scoring=payload["min_ces_before_scoring"],
        rescore_interval_hours=payload["rescore_interval_hours"],
        batch_size=payload["batch_size"],
        engine=payload["engine"],
        collect_scores=True,
        end_hours=payload["end_hours"],
        coherent_flush=True,
        obs=wobs,
        heartbeat_every=payload.get("heartbeat_every", 0),
    )
    stream = merge_fleet_streams(
        stores, decode_payloads=(payload["engine"] != "batched")
    )
    report = engine.replay(
        stream,
        stores,
        checkpoint_path=payload.get("checkpoint_path"),
        resume_from=payload.get("resume_from"),
        halt_after=payload.get("halt_after"),
    )
    outcome.events = report.events
    outcome.seconds = report.seconds
    outcome.predict_seconds = report.predict_seconds
    if report.halted:
        outcome.halted = True
        outcome.checkpoint = payload.get("checkpoint_path")
        outcome.bus_events = []  # superseded by the resumed run's outcome
        return outcome
    outcome.bus_counts = bus.counts()
    outcome.health = dict(report.health)
    if wobs is not None:
        wobs.record_fleet_report(report)
        # Plain dicts/lists only — pickles cleanly across the pool seam.
        outcome.obs_payload = wobs.payload()
    for platform, runtime in engine.runtimes.items():
        alarms = runtime.alarms
        alarms.bus = None  # handler closures don't pickle
        outcome.platforms[platform] = {
            "alarms": alarms,
            "score_log": engine.score_logs.get(platform, []),
            "events": report.platforms[platform]["events"],
            "ces": report.platforms[platform]["ces"],
            "ues": report.platforms[platform]["ues"],
            "mem_events": report.platforms[platform]["mem_events"],
            "scored": runtime.scored,
            "batches": runtime.batches,
            "scored_dimms": len(runtime.scored_dimms),
            "fallbacks": runtime.fallbacks(),
            "rebuilds": runtime.rebuilds(),
            "health": report.platforms[platform]["health"],
        }
    return outcome


def _partition_result(
    pool, fn, payload, future, retries: int = 2, backoff: float = 0.05
):
    """One partition's result with the crashed-worker retry taxonomy.

    Mirrors ``features.pipeline._shard_result``: a broken pool re-raises
    so the caller falls back to the next pool class wholesale; a
    transient worker death (OSError / pickling / memory) retries with
    backoff and finally reruns inline; anything else is a genuine bug.
    """
    for attempt in range(retries):
        try:
            return future.result()
        except BrokenExecutor:
            raise
        except (OSError, pickle.PicklingError, MemoryError):
            time.sleep(backoff * (2**attempt))
            try:
                future = pool.submit(fn, payload)
            except (RuntimeError, BrokenExecutor):
                return fn(payload)
    try:
        return future.result()
    except BrokenExecutor:
        raise
    except (OSError, pickle.PicklingError, MemoryError):
        return fn(payload)


def _run_pool(fn, payloads: list, workers: int) -> list:
    """Run ``fn`` over ``payloads``: process pool -> threads -> inline.

    The same resilience ladder as the sharded sample build — each rung
    catches pool-construction/teardown failures wholesale, and the
    inline rung gives every transient worker death one retry.
    """
    if workers > 1 and len(payloads) > 1:
        for pool_cls in (ProcessPoolExecutor, ThreadPoolExecutor):
            try:
                with pool_cls(
                    max_workers=min(workers, len(payloads))
                ) as pool:
                    futures = [
                        pool.submit(fn, payload) for payload in payloads
                    ]
                    return [
                        _partition_result(pool, fn, payload, future)
                        for payload, future in zip(payloads, futures)
                    ]
            except (
                OSError,
                PermissionError,
                RuntimeError,
                pickle.PicklingError,
                BrokenExecutor,
            ):
                continue
    results = []
    for payload in payloads:
        try:
            results.append(fn(payload))
        except (OSError, pickle.PicklingError, MemoryError):
            results.append(fn(payload))
    return results


class ReplayCoordinator:
    """Shard a fleet, replay partitions in workers, merge bit-for-bit."""

    def __init__(
        self,
        assignments: dict[str, ServingAssignment],
        labeling: LabelingParams | None = None,
        *,
        policy=None,
        cost_model: CostModel | None = None,
        bus: EventBus | None = None,
        workers: int = 2,
        n_shards: int | None = None,
        min_ces_before_scoring: int = 2,
        rescore_interval_hours: float = 0.0,
        batch_size: int = 256,
        engine: str = "batched",
        shard_dir=None,
        mmap: bool = True,
        obs=None,
        heartbeat_every: int = 0,
    ):
        if not assignments:
            raise ValueError("ReplayCoordinator needs at least one assignment")
        self.assignments = dict(assignments)
        self.labeling = labeling if labeling is not None else LabelingParams()
        self.policy = policy
        self.cost_model = cost_model or CostModel()
        self.bus = bus if bus is not None else EventBus()
        self.workers = max(1, int(workers))
        self.n_shards = int(n_shards) if n_shards else self.workers
        self.min_ces_before_scoring = int(min_ces_before_scoring)
        self.rescore_interval_hours = float(rescore_interval_hours)
        self.batch_size = int(batch_size)
        self.engine = engine
        self.shard_dir = shard_dir
        self.mmap = bool(mmap)
        #: Populated by :meth:`replay` (same surface as the engine's).
        self.score_logs: dict[str, list] = {}
        self.alarm_managers: dict[str, AlarmManager] = {}
        self.cost_summaries: dict = {}
        self.manifest: ShardManifest | None = None
        #: Optional :class:`repro.obs.Observability` bundle — spans cover
        #: shard write, worker fan-out (one recorded child per partition,
        #: deterministic: partition count is fixed by the manifest) and
        #: merge; the merged report fills the registry.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        #: Shipped to every worker: each worker engine publishes its own
        #: live heartbeats into its private registry, which comes home in
        #: :attr:`PartitionOutcome.obs_payload`.
        self.heartbeat_every = int(heartbeat_every)

    # -- orchestration -----------------------------------------------------

    def replay(
        self,
        stores: dict[str, object],
        *,
        shards: tuple | None = None,
        halt_partition: int | None = None,
        halt_after: int | None = None,
        fail_partition: int | None = None,
    ) -> FleetReport:
        """Shard ``stores``, replay every partition, merge the results.

        ``shards`` optionally reuses a pre-written ``(dir, manifest)``
        pair (e.g. from the artifact cache).  ``halt_partition`` /
        ``halt_after`` kill one worker after N walked entries — the
        coordinator resumes it from its checkpoint; ``fail_partition``
        injects a crash on first delivery (retry-path coverage).  Both
        are test/chaos knobs; merged output is identical either way.
        """
        start = time.perf_counter()
        global_stream = merge_fleet_streams(stores, decode_payloads=False)
        if shards is not None:
            shard_dir, manifest = shards
            return self._replay_sharded(
                Path(shard_dir), manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )
        if self.shard_dir is not None:
            shard_dir = Path(self.shard_dir)
            with self._tracer.span("coordinator.shard_write"):
                manifest = write_fleet_shards(
                    {p: s.columns for p, s in stores.items()},
                    self.n_shards,
                    shard_dir,
                )
            return self._replay_sharded(
                shard_dir, manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
            shard_dir = Path(tmp)
            with self._tracer.span("coordinator.shard_write"):
                manifest = write_fleet_shards(
                    {p: s.columns for p, s in stores.items()},
                    self.n_shards,
                    shard_dir,
                )
            return self._replay_sharded(
                shard_dir, manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )

    def _payloads(
        self,
        shard_dir: Path,
        manifest: ShardManifest,
        end_hours: dict,
        halt_partition,
        halt_after,
        fail_partition,
    ) -> list[dict]:
        payloads = []
        for entry in manifest.shards:
            index = entry["index"]
            payload = {
                "shard_dir": str(shard_dir),
                "manifest": manifest.to_dict(),
                "index": index,
                "assignments": self.assignments,
                "labeling": self.labeling,
                "min_ces_before_scoring": self.min_ces_before_scoring,
                "rescore_interval_hours": self.rescore_interval_hours,
                "batch_size": self.batch_size,
                "engine": self.engine,
                "end_hours": end_hours,
                "mmap": self.mmap,
                "checkpoint_path": None,
                "resume_from": None,
                "halt_after": None,
                "fail_partition": fail_partition,
                "observability": self.obs is not None,
                "heartbeat_every": self.heartbeat_every,
            }
            if halt_partition == index and halt_after is not None:
                payload["halt_after"] = int(halt_after)
                payload["checkpoint_path"] = str(
                    shard_dir / f"checkpoint_{index:04d}.pkl"
                )
            payloads.append(payload)
        return payloads

    def _run_payloads(self, payloads: list[dict]) -> list[PartitionOutcome]:
        outcomes = _run_pool(_replay_partition, payloads, self.workers)
        # A halted worker left its checkpoint on shared disk; resume it
        # deterministically (PR 7 pins resumed == uninterrupted).
        resumed = []
        for payload, outcome in zip(payloads, outcomes):
            while outcome is not None and outcome.halted:
                resume = dict(
                    payload,
                    halt_after=None,
                    resume_from=outcome.checkpoint,
                    fail_partition=None,
                )
                outcome = _replay_partition(resume)
            resumed.append(outcome)
        return resumed

    # -- merging -----------------------------------------------------------

    def merge(
        self,
        outcomes: list[PartitionOutcome],
        global_stream,
        wall_seconds: float,
    ) -> FleetReport:
        """Fold partition outcomes into one canonical fleet report.

        Duplicate deliveries of the same partition are idempotent: the
        first outcome per index wins, later ones are dropped.
        """
        by_index: dict[int, PartitionOutcome] = {}
        for outcome in outcomes:
            if outcome is not None and outcome.index not in by_index:
                by_index[outcome.index] = outcome
        ordered = [by_index[index] for index in sorted(by_index)]

        # Cross-process fan-in: worker buses recorded their traffic;
        # republishing in partition order reproduces the single-process
        # per-topic counts on the coordinator bus.  A checkpoint-resumed
        # partition only recorded post-resume publishes (pre-halt counts
        # live in its restored accounting), so any deficit between a
        # worker's final counts and its recorded traffic is reconciled
        # numerically after the republish.
        deficits: dict[str, int] = {}
        for outcome in ordered:
            recorded: dict[str, int] = {}
            for topic, event in outcome.bus_events:
                self.bus.publish(topic, event)
                recorded[topic] = recorded.get(topic, 0) + 1
            for topic, count in outcome.bus_counts.items():
                delta = count - recorded.get(topic, 0)
                if delta:
                    deficits[topic] = deficits.get(topic, 0) + delta
        if deficits:
            counts = self.bus.counts()
            for topic, delta in deficits.items():
                counts[topic] = counts.get(topic, 0) + delta
            self.bus.restore_counts(counts)

        platforms = list(global_stream.platforms)
        merged_alarms: dict[str, AlarmManager] = {}
        merged_logs: dict[str, list] = {}
        totals: dict[str, dict] = {}
        for platform in platforms:
            merged_alarms[platform] = AlarmManager(
                self.labeling.lead_hours,
                self.labeling.prediction_window_hours,
                bus=None,
            )
            merged_logs[platform] = []
            totals[platform] = {
                "scored": 0, "batches": 0, "scored_dimms": 0,
                "fallbacks": 0, "rebuilds": 0, "rejected_events": 0,
                "rejects": {},
            }
        predict_seconds = 0.0
        for outcome in ordered:
            predict_seconds += outcome.predict_seconds
            for platform, part in outcome.platforms.items():
                merged = merged_alarms[platform]
                alarms: AlarmManager = part["alarms"]
                merged.incidents.extend(alarms.incidents)
                merged.ue_hours.update(alarms.ue_hours)
                merged.ue_predictable.update(alarms.ue_predictable)
                merged.raised += alarms.raised
                merged.suppressed += alarms.suppressed
                merged.expired += alarms.expired
                merged.resolved += alarms.resolved
                merged_logs[platform].extend(part["score_log"])
                total = totals[platform]
                total["scored"] += part["scored"]
                total["batches"] += part["batches"]
                total["scored_dimms"] += part["scored_dimms"]
                total["fallbacks"] += part["fallbacks"]
                total["rebuilds"] += part["rebuilds"]
                health = part["health"]
                total["rejected_events"] += health["rejected_events"]
                for reason, count in health["rejects"].items():
                    total["rejects"][reason] = (
                        total["rejects"].get(reason, 0) + count
                    )
        # Canonical orders: logs by (t, dimm), incidents by (open, dimm).
        for platform in platforms:
            merged_logs[platform].sort(key=lambda row: (row[1], row[0]))
            merged_alarms[platform].incidents.sort(
                key=lambda inc: (inc.opened_hour, inc.dimm_id)
            )
        self.score_logs = merged_logs
        self.alarm_managers = merged_alarms

        apply_policy(self.policy, merged_alarms, global_stream.end_hours)

        report = FleetReport(engine=self.engine)
        summaries = []
        for platform in platforms:
            alarms = merged_alarms[platform]
            assignment = self.assignments[platform]
            counts = global_stream.counts[platform]
            total = totals[platform]
            live_from = float(assignment.live_from_hour)
            summary, ledger = self.cost_model.settle(
                platform,
                alarms,
                self.policy if self.policy is not None else _NULL_POLICY,
                live_from,
            )
            self.cost_summaries[platform] = summary
            summaries.append(summary)
            report.costs[platform] = summary.to_dict()
            report.platforms[platform] = {
                "model": assignment.model_name,
                "train_platform": assignment.train_platform,
                "threshold": float(assignment.threshold),
                "live_from_hour": live_from,
                "events": sum(counts.values()),
                "ces": counts["ces"],
                "ues": counts["ues"],
                "mem_events": counts["events"],
                "scored": total["scored"],
                "batches": total["batches"],
                "scored_dimms": total["scored_dimms"],
                "fallbacks": total["fallbacks"],
                "alarms": alarms.summary(live_from),
                "health": {
                    "rejected_events": total["rejected_events"],
                    "rejects": dict(total["rejects"]),
                    "fallback_scores": total["fallbacks"],
                    "late_rebuilds": total["rebuilds"],
                    "outage_seconds": 0.0,
                },
            }
            report.scored += total["scored"]
        fleet = combine_summaries(summaries)
        self.cost_summaries["fleet"] = fleet
        report.fleet_cost = fleet.to_dict()
        report.actions = (
            self.policy.summary() if self.policy is not None else {}
        )
        report.events = global_stream.events
        report.seconds = wall_seconds
        report.predict_seconds = predict_seconds
        report.events_per_second = (
            report.events / wall_seconds if wall_seconds > 0 else 0.0
        )
        report.bus_counts = self.bus.counts()
        fleet_rejects: dict[str, int] = {}
        for total in totals.values():
            for reason, count in total["rejects"].items():
                fleet_rejects[reason] = fleet_rejects.get(reason, 0) + count
        report.health = {
            "rejected_events": sum(
                total["rejected_events"] for total in totals.values()
            ),
            "rejects": fleet_rejects,
            "fallback_scores": sum(
                total["fallbacks"] for total in totals.values()
            ),
            "late_rebuilds": sum(
                total["rebuilds"] for total in totals.values()
            ),
            "outage_seconds": 0.0,
        }
        report.distributed = {
            "workers": self.workers,
            "partitions": len(ordered),
            "partition_events": [outcome.events for outcome in ordered],
            "shard_fingerprint": (
                self.manifest.fingerprint if self.manifest else None
            ),
        }
        return report

    def _replay_sharded(
        self,
        shard_dir: Path,
        manifest: ShardManifest,
        global_stream,
        start: float,
        halt_partition,
        halt_after,
        fail_partition,
    ) -> FleetReport:
        tracer = self._tracer
        with tracer.span(
            "coordinator",
            workers=self.workers,
            partitions=len(manifest.shards),
            engine=self.engine,
        ) as root:
            self.manifest = manifest
            payloads = self._payloads(
                shard_dir, manifest, dict(global_stream.end_hours),
                halt_partition, halt_after, fail_partition,
            )
            with tracer.span("coordinator.fanout"):
                outcomes = self._run_payloads(payloads)
                for outcome in outcomes:
                    if outcome is not None:
                        tracer.record(
                            "coordinator.partition",
                            wall_seconds=outcome.seconds,
                            index=outcome.index,
                            events=outcome.events,
                        )
                    if outcome is None or outcome.obs_payload is None:
                        continue
                    # Aggregate the worker's private telemetry: metrics
                    # fold into the coordinator registry under a
                    # worker="wN" label, its span tree grafts in as a
                    # child of the fanout span.
                    worker = f"w{outcome.index}"
                    with tracer.span("coordinator.worker", worker=worker):
                        tracer.graft(outcome.obs_payload.get("spans", ()))
                    if self.obs is not None:
                        self.obs.fold_payload(outcome.obs_payload, worker)
            with tracer.span("coordinator.merge"):
                report = self.merge(
                    outcomes, global_stream, time.perf_counter() - start
                )
            root.attributes.update(events=report.events)
        if self.obs is not None and not report.halted:
            # worker="merged" keeps the coordinator-level rollup apart
            # from the per-worker folds sharing the same families.
            self.obs.record_fleet_report(report, {"worker": "merged"})
        return report


def apply_policy(
    policy, alarm_managers: dict[str, AlarmManager], end_hours: dict
) -> None:
    """Feed merged incidents to the policy in canonical order.

    Distributed mitigation contract: incidents across all platforms are
    replayed into the :class:`~repro.fleetops.policy.PolicyEngine` in
    ``(opened_hour, platform, dimm_id)`` order, then the action queue
    drains to the fleet's global end.  Deterministic for a given merged
    result — apply the same pass to a single-process baseline's alarm
    managers to compare settled costs including actions.
    """
    if policy is None:
        return
    entries = []
    for platform in sorted(alarm_managers):
        for incident in alarm_managers[platform].incidents:
            entries.append(
                (incident.opened_hour, platform, incident.dimm_id,
                 platform, incident)
            )
    entries.sort(key=lambda entry: entry[:3])
    for _, _, _, platform, incident in entries:
        policy.on_incident(platform, incident)
    if end_hours:
        policy.advance(max(end_hours.values()))


# -- sharded sample build ---------------------------------------------------


def _build_partition(payload: dict) -> tuple:
    """Worker body: extract one shard's labeled samples."""
    manifest = ShardManifest.from_dict(payload["manifest"])
    columns = load_shard(
        payload["shard_dir"], manifest, payload["index"], mmap=payload["mmap"]
    )[payload["platform_key"]]
    fleet = columns.fleet_view()
    configs = [
        payload["configs"].get(dimm_id) for dimm_id in fleet.dimm_ids
    ]
    jitters = [
        payload["jitters"].get(dimm_id) for dimm_id in fleet.dimm_ids
    ]
    X, y, times, counts = _extract_fleet_shard(
        payload["pipeline"], fleet, configs, jitters, payload["end_hour"]
    )
    return (X, y, times, counts, list(fleet.dimm_ids))


def build_samples_distributed(
    pipeline,
    store,
    *,
    platform: str = "",
    workers: int = 2,
    n_shards: int | None = None,
    shard_dir=None,
    mmap: bool = True,
) -> SampleSet:
    """``FeaturePipeline.build_samples`` fanned out over shard files.

    The thinning jitters are drawn once from the *global* fleet (the rng
    sequence walks every DIMM in fleet order) and shipped per shard, so
    the concatenated sample set is bit-for-bit identical to the
    single-process build: shard DIMM ranges are contiguous slices of the
    sorted fleet order, and each shard's rows are already in global
    order within its slice.
    """
    if not pipeline._fitted:
        pipeline.fit(store)
    fleet = store.fleet_arrays()
    sampling = pipeline.config.sampling
    rng = np.random.default_rng(sampling.seed)
    jitters = thinning_jitters(
        np.diff(fleet.ce_offsets),
        sampling.max_samples_per_dimm,
        sampling.min_history_ces,
        rng,
    )
    jitter_of = dict(zip(fleet.dimm_ids, jitters))
    config_of = {
        dimm_id: store.config_for(dimm_id) for dimm_id in fleet.dimm_ids
    }
    platform_key = platform or "fleet"
    workers = max(1, int(workers))
    n_shards = int(n_shards) if n_shards else workers

    def _run(shard_dir: Path) -> SampleSet:
        manifest = write_fleet_shards(
            {platform_key: store.columns}, n_shards, shard_dir
        )
        payloads = [
            {
                "shard_dir": str(shard_dir),
                "manifest": manifest.to_dict(),
                "index": entry["index"],
                "platform_key": platform_key,
                "pipeline": pipeline,
                "configs": config_of,
                "jitters": jitter_of,
                "end_hour": store.end_hour,
                "mmap": mmap,
            }
            for entry in manifest.shards
        ]
        shards = _run_pool(_build_partition, payloads, workers)
        names = pipeline.feature_names()
        X = np.vstack([shard[0] for shard in shards])
        y = np.concatenate([shard[1] for shard in shards])
        times = np.concatenate([shard[2] for shard in shards])
        dimm_ids = np.concatenate(
            [
                np.repeat(np.asarray(shard[4], dtype=object), shard[3])
                for shard in shards
            ]
        )
        if X.shape[0] == 0:
            X = np.empty((0, len(names)))
        return SampleSet(
            X=X,
            y=y.astype(int),
            times=times,
            dimm_ids=dimm_ids,
            feature_names=names,
            feature_groups=pipeline.feature_groups(),
            platform=platform,
        )

    if shard_dir is not None:
        return _run(Path(shard_dir))
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
        return _run(Path(tmp))
