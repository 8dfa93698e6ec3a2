"""Single-platform replay: a one-platform fleet over the replay core.

:class:`ReplayEngine` replays one campaign the way production would
consume it — every DIMM's CE/UE/memory-event stream merged in global
timestamp order — and reports it as a :class:`StreamingReport`.  It owns
no walk of its own: :meth:`ReplayEngine.replay` wraps its serving
configuration in a one-entry
:class:`~repro.fleetops.engine.ServingAssignment`, merges the store with
:func:`~repro.fleetops.stream.merge_fleet_streams`, runs the
:class:`~repro.fleetops.engine.FleetReplayEngine` core (quarantine,
incremental or kernel-batched features, micro-batched scoring, alarm
incidents over the :class:`~repro.streaming.bus.EventBus`, checkpoints),
and projects the platform's entry back onto the report.

Both of the core's walks are available: ``engine="batched"`` (default,
the columnar :class:`~repro.streaming.kernels.ReplayKernel` fast path) and
``engine="per_event"`` (the pure-Python reference).  They produce
identical scores, alarms and bus traffic; ``verify_parity=True``
cross-checks every served vector against its reference — the
bit-for-bit guarantee the CI streaming smoke job gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Unused here; perfbench/layers.py patches the name on this module.
from repro.chaos.quarantine import quarantine_columns  # noqa: F401
from repro.features.labeling import LabelingParams
from repro.streaming.alarms import AlarmManager
from repro.streaming.bus import EventBus

REPLAY_ENGINES = ("batched", "per_event")

#: Platform-report entries copied verbatim onto a :class:`StreamingReport`.
_PLATFORM_FIELDS = (
    "ces", "ues", "mem_events", "scored_dimms", "fallbacks", "alarms",
    "health",
)


@dataclass
class StreamingReport:
    """Everything one :meth:`ReplayEngine.replay` run produced."""

    platform: str
    model_name: str
    events: int = 0
    ces: int = 0
    ues: int = 0
    mem_events: int = 0
    scored: int = 0
    batches: int = 0
    seconds: float = 0.0
    predict_seconds: float = 0.0
    events_per_second: float = 0.0
    scores_per_second: float = 0.0
    scored_dimms: int = 0
    fallbacks: int = 0
    threshold: float = 0.0
    live_from_hour: float = 0.0
    engine: str = "per_event"
    #: Wall seconds by stage: ``ingest`` (stream walk + state updates),
    #: ``features`` (feature serving / kernel build), ``predict``
    #: (``predict_proba``), ``alarms`` (alarm + incident decisions).
    stage_seconds: dict = field(default_factory=dict)
    alarms: dict = field(default_factory=dict)
    bus_counts: dict = field(default_factory=dict)
    #: Degradation accounting: quarantined rejects (by typed reason),
    #: fallback-served scores, late-arrival rebuilds, collector outage
    #: seconds (filled in by the chaos scenario — the engine cannot know).
    health: dict = field(default_factory=dict)
    #: True when the walk was stopped early by ``halt_after`` (the report
    #: is partial: no alarm summary, counters cover processed entries only).
    halted: bool = False
    parity: dict | None = None

    def to_dict(self) -> dict:
        payload = {
            "platform": self.platform,
            "model": self.model_name,
            "engine": self.engine,
            "events": self.events,
            "ces": self.ces,
            "ues": self.ues,
            "mem_events": self.mem_events,
            "scored": self.scored,
            "batches": self.batches,
            "seconds": round(self.seconds, 4),
            "predict_seconds": round(self.predict_seconds, 4),
            "events_per_second": round(self.events_per_second, 1),
            "scores_per_second": round(self.scores_per_second, 1),
            "scored_dimms": self.scored_dimms,
            "fallbacks": self.fallbacks,
            "threshold": self.threshold,
            "live_from_hour": self.live_from_hour,
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in self.stage_seconds.items()
            },
            "alarms": dict(self.alarms),
            "bus_counts": dict(self.bus_counts),
            "health": dict(self.health),
        }
        if self.halted:
            payload["halted"] = True
        if self.parity is not None:
            payload["parity"] = dict(self.parity)
        return payload


class ReplayEngine:
    """Streaming scorer over one campaign's telemetry (a fleet of one)."""

    def __init__(
        self,
        pipeline,
        model,
        threshold: float,
        platform: str,
        configs: dict,
        labeling: LabelingParams | None = None,
        *,
        bus: EventBus | None = None,
        live_from_hour: float = 0.0,
        alarm_from_hour: float | None = None,
        min_ces_before_scoring: int = 2,
        rescore_interval_hours: float = 0.0,
        batch_size: int = 256,
        verify_parity: bool = False,
        engine: str = "batched",
        score_hook=None,
        collect_scores: bool = False,
        obs=None,
        obs_labels: dict | None = None,
        heartbeat_every: int = 0,
    ):
        # Imported at call time: repro.fleetops imports repro.mlops, whose
        # lifecycle imports this module.
        from repro.fleetops.engine import FleetReplayEngine, ServingAssignment

        self.platform = platform
        self.obs = obs
        self._obs_labels = dict(obs_labels or {})
        assignment = ServingAssignment(
            platform=platform,
            model_name="",  # the report takes it from replay()
            train_platform=platform,
            model=model,
            threshold=threshold,
            pipeline=pipeline,
            configs=configs,
            live_from_hour=live_from_hour,
            alarm_from_hour=alarm_from_hour,
        )
        self.core = FleetReplayEngine(
            {platform: assignment},
            labeling,
            bus=bus,
            min_ces_before_scoring=min_ces_before_scoring,
            rescore_interval_hours=rescore_interval_hours,
            batch_size=batch_size,
            engine=engine,
            collect_scores=collect_scores,
            verify_parity=verify_parity,
            score_hook=score_hook,
            obs=obs,
            heartbeat_every=heartbeat_every,
        )
        #: The last replay's alarm ledger.
        self.alarms: AlarmManager | None = None
        #: ``(dimm_id, t, score)`` per scored vector when ``collect_scores``
        #: — the bit-for-bit record the fleet-parity suite compares.
        self.score_log: list[tuple[str, float, float]] = []

    def replay(
        self,
        store,
        model_name: str = "",
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        resume_from=None,
        halt_after: int | None = None,
    ) -> StreamingReport:
        """Replay every record in ``store`` (a :class:`LogStore`).

        Quarantine and the checkpoint knobs (``checkpoint_every``,
        ``checkpoint_path``, ``resume_from``, ``halt_after``) behave as in
        :meth:`FleetReplayEngine.replay`; a halted call returns a partial
        report with ``halted=True``.
        """
        from repro.fleetops.stream import merge_fleet_streams

        platform = self.platform
        core = self.core
        stores = {platform: store}
        stream = merge_fleet_streams(
            stores, decode_payloads=(core.engine == "per_event")
        )
        fleet = core.replay(
            stream,
            stores,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            halt_after=halt_after,
        )
        runtime = core.runtimes[platform]
        self.alarms = runtime.alarms
        self.score_log = core.score_logs.get(platform, [])
        report = StreamingReport(
            platform=platform,
            model_name=model_name,
            engine=fleet.engine,
            events=fleet.events,
            scored=runtime.scored,
            batches=runtime.batches,
            seconds=fleet.seconds,
            predict_seconds=runtime.predict_seconds,
            threshold=runtime.threshold,
            live_from_hour=runtime.live_from,
            stage_seconds=fleet.stage_seconds,
            bus_counts=fleet.bus_counts,
            halted=fleet.halted,
        )
        entry = fleet.platforms.get(platform)
        if entry is not None:
            for name in _PLATFORM_FIELDS:
                setattr(report, name, entry[name])
            report.parity = entry.get("parity")
            report.events_per_second = fleet.events_per_second
            report.scores_per_second = (
                report.scored / report.seconds if report.seconds > 0 else 0.0
            )
        if self.obs is not None:
            self.obs.record_streaming_report(
                report, self._obs_labels or None
            )
        return report
