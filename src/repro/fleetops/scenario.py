"""The ``fleet_ops`` scenario: heterogeneous fleet replay end to end.

One run = one multi-architecture datacenter:

1. every platform in the spec is simulated / served from the artifact
   cache, and its production model is resolved from the **assignments**
   param — by default each platform serves a model trained on itself;
   ``{"k920": {"train_platform": "intel_purley"}}`` reuses the
   transfer-matrix machinery to serve k920 with a purley-trained model;
2. each model is fitted once on its training platform's splits and its
   serving threshold derived there (exactly the ``streaming_replay``
   calibration), so the fleet's grid of cells lines up with the offline
   transfer matrix;
3. the whole fleet's telemetry is merged into ONE stream and replayed in
   a single pass through :class:`~repro.fleetops.engine.FleetReplayEngine`
   with per-platform alarm managers, the shared capacity-aware
   :class:`~repro.fleetops.policy.PolicyEngine`, and the
   :class:`~repro.fleetops.cost.CostModel`;
4. cells report alarm-level precision/recall per (train, serve) pair with
   the cost model's exact VIRR, and ``extras["fleet_ops"]`` carries the
   full operations story: throughput, actions (executed / queued /
   fallbacks), and per-platform plus fleet-wide cost summaries.

Scenario parameters (``spec.params``, all optional):

* ``assignments`` — ``{platform: {"model": name, "train_platform": name}}``
* ``policy`` — ``{"vm_migrate_score": .., "bank_spare_score": ..}``
* ``budget`` — ``{"window_hours": .., "vm_migrate": .., "bank_spare": ..,
  "page_offline": ..}``
* ``costs`` — :class:`~repro.fleetops.cost.ActionCosts` fields
* ``batch_size`` (default 256), ``rescore_interval_hours`` (default the
  5-minute production cadence), ``collect_scores`` (parity tooling),
  ``engine`` (``"batched"`` column-wise replay kernels, or
  ``"per_event"`` — the pure-Python reference loop)
* ``replay_workers`` — > 1 runs the merged replay through the
  distributed :class:`~repro.distributed.coordinator.ReplayCoordinator`
  (DIMM-sharded worker processes, coherent-flush contract)
"""

from __future__ import annotations

from repro.evaluation.experiment import MODEL_BUILDERS, ModelResult
from repro.experiments.registry import register_scenario
from repro.experiments.results import Cell
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.fleetops.cost import ActionCosts, CostModel
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import (
    ActionBudget,
    MitigationPolicyConfig,
    PolicyEngine,
)
from repro.fleetops.stream import merge_fleet_streams
from repro.streaming.bus import EventBus
from repro.streaming.replay import REPLAY_ENGINES
from repro.streaming.scenario import (
    DEFAULT_RESCORE_INTERVAL_HOURS,
    serving_threshold,
)


def resolve_assignments(spec) -> dict[str, dict]:
    """Per-platform ``{"model": .., "train_platform": ..}`` with defaults.

    Raises a clear error for unknown platforms, unknown keys, or a
    ``train_platform`` outside the spec (its artifacts would bypass the
    run's cache accounting).
    """
    raw = (spec.params or {}).get("assignments", {})
    if not isinstance(raw, dict):
        raise ValueError("params.assignments must be a JSON object")
    unknown = set(raw) - set(spec.platforms)
    if unknown:
        raise ValueError(
            f"assignments for platforms not in spec.platforms: "
            f"{sorted(unknown)}"
        )
    default_model = spec.models[0]
    resolved = {}
    for platform in spec.platforms:
        entry = raw.get(platform, {})
        if not isinstance(entry, dict):
            raise ValueError(
                f"assignments[{platform!r}] must be a JSON object"
            )
        bad_keys = set(entry) - {"model", "train_platform"}
        if bad_keys:
            raise ValueError(
                f"assignments[{platform!r}] has unknown keys "
                f"{sorted(bad_keys)}; valid: ['model', 'train_platform']"
            )
        train_platform = entry.get("train_platform", platform)
        if train_platform not in spec.platforms:
            raise ValueError(
                f"assignments[{platform!r}].train_platform "
                f"{train_platform!r} is not in spec.platforms "
                f"{list(spec.platforms)}"
            )
        resolved[platform] = {
            "model": entry.get("model", default_model),
            "train_platform": train_platform,
        }
    return resolved


def build_serving_assignments(ctx, assignments_spec):
    """Fit models + thresholds for every (serve, train) pair in the spec.

    Returns ``(stores, assignments, cells, unsupported)`` — the shared
    front half of ``fleet_ops`` and ``distributed_replay``: per-platform
    stores, picklable :class:`ServingAssignment` objects, pre-filled
    unsupported-cells, and the list of skipped platforms.
    """
    stores = {}
    assignments: dict[str, ServingAssignment] = {}
    cells: list[Cell] = []
    unsupported: list[str] = []
    #: (train_platform, model_name) -> (fitted model, threshold): serving
    #: platforms sharing a source share ONE fit (fits are deterministic).
    fitted: dict[tuple[str, str], tuple[object, float]] = {}
    for platform in ctx.spec.platforms:
        entry = assignments_spec[platform]
        model_name, train_platform = entry["model"], entry["train_platform"]
        source = ctx.experiment(train_platform)
        builder = MODEL_BUILDERS[model_name]
        probe = builder(source.samples.feature_names, ctx.protocol.seed)
        supports = getattr(probe, "supports", None)
        if supports is not None and not (
            supports(train_platform) and supports(platform)
        ):
            cells.append(
                Cell(train_platform, platform, model_name,
                     ModelResult(platform=platform, model_name=model_name,
                                 supported=False))
            )
            unsupported.append(platform)
            continue
        shared = fitted.get((train_platform, model_name))
        if shared is None:
            # Fit once on the training platform's splits (deterministic, so
            # it matches the transfer matrix's shared-fit row) and calibrate
            # the serving threshold there — no serving-platform labels are
            # used.  Cross-architecture assignments reuse the same fit.
            model = probe
            model.fit(
                source.train.X,
                source.train.y,
                eval_set=(source.validation.X, source.validation.y),
            )
            shared = (
                model,
                serving_threshold(model, source.train, source.validation),
            )
            fitted[(train_platform, model_name)] = shared
        model, threshold = shared
        simulation = ctx.simulation(platform)
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=ctx.protocol.labeling, sampling=ctx.protocol.sampling
            )
        )
        pipeline.fit(simulation.store)
        stores[platform] = simulation.store
        hours = ctx.effective_hours(platform)
        assignments[platform] = ServingAssignment(
            platform=platform,
            model_name=model_name,
            train_platform=train_platform,
            model=model,
            threshold=threshold,
            pipeline=pipeline,
            configs=simulation.store.configs,
            live_from_hour=ctx.protocol.sampling.train_fraction * hours,
        )
    return stores, assignments, cells, unsupported


@register_scenario("fleet_ops")
def fleet_ops(ctx):
    """Replay the merged heterogeneous fleet with mitigation + costs."""
    params = ctx.spec.params or {}
    batch_size = int(params.get("batch_size", 256))
    rescore = float(
        params.get("rescore_interval_hours", DEFAULT_RESCORE_INTERVAL_HOURS)
    )
    collect_scores = bool(params.get("collect_scores", False))
    replay_engine = str(params.get("engine", "batched"))
    replay_workers = int(params.get("replay_workers", 0))
    heartbeat_every = int(params.get("heartbeat_every", 0) or 0)
    if replay_engine not in REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {replay_engine!r}; "
            f"valid: {list(REPLAY_ENGINES)}"
        )
    assignments_spec = resolve_assignments(ctx.spec)
    policy = PolicyEngine(
        policy=MitigationPolicyConfig.from_params(params.get("policy")),
        budget=ActionBudget.from_params(params.get("budget")),
        seed=ctx.protocol.seed,
    )
    cost_model = CostModel(ActionCosts.from_params(params.get("costs")))

    stores, assignments, cells, unsupported = build_serving_assignments(
        ctx, assignments_spec
    )
    if not assignments:
        raise ValueError(
            "fleet_ops: no supported (platform, model) assignment in spec"
        )

    if replay_workers > 1:
        # Sharded path: N workers over DIMM partitions.  The coordinator
        # runs coherent-flush workers and applies mitigation in canonical
        # incident order — its contract (see repro.distributed) — so the
        # merged report is deterministic for any worker count.
        from repro.distributed.coordinator import ReplayCoordinator

        coordinator = ReplayCoordinator(
            assignments,
            ctx.protocol.labeling,
            policy=policy,
            cost_model=cost_model,
            bus=EventBus(),
            workers=replay_workers,
            rescore_interval_hours=rescore,
            batch_size=batch_size,
            engine=replay_engine,
            obs=ctx.obs,
            heartbeat_every=heartbeat_every,
        )
        report = coordinator.replay(stores)
        return _fleet_cells_extras(
            report, coordinator.cost_summaries, assignments,
            assignments_spec, cells, unsupported,
        )

    # -- one merged pass ---------------------------------------------------
    # The batched kernels rebuild the merged order from the columnar
    # stores, so the stream stays a manifest; the per-event reference
    # needs the payloads decoded.
    stream = merge_fleet_streams(
        stores, decode_payloads=(replay_engine == "per_event")
    )
    engine = FleetReplayEngine(
        assignments,
        labeling=ctx.protocol.labeling,
        policy=policy,
        cost_model=cost_model,
        bus=EventBus(),
        rescore_interval_hours=rescore,
        batch_size=batch_size,
        engine=replay_engine,
        collect_scores=collect_scores,
        obs=ctx.obs,
        heartbeat_every=heartbeat_every,
    )
    report = engine.replay(stream, stores)
    if ctx.obs is not None:
        ctx.obs.record_fleet_report(report)
    return _fleet_cells_extras(
        report, engine.cost_summaries, assignments, assignments_spec,
        cells, unsupported,
    )


def _fleet_cells_extras(
    report, cost_summaries, assignments, assignments_spec, cells, unsupported
):
    """Shared back half: per-assignment cells + the ``fleet_ops`` extras."""
    for platform, assignment in assignments.items():
        summary = report.platforms[platform]["alarms"]
        cost = cost_summaries[platform]
        cells.append(
            Cell(
                assignment.train_platform, platform, assignment.model_name,
                ModelResult(
                    platform=platform,
                    model_name=assignment.model_name,
                    supported=True,
                    precision=summary["precision"],
                    recall=summary["recall"],
                    f1=summary["f1"],
                    virr=cost.virr.virr if cost.virr is not None else 0.0,
                    threshold=float(assignment.threshold),
                    test_dimms=report.platforms[platform]["scored_dimms"],
                    test_positive_dimms=summary["ue_dimms_predictable"],
                ),
            )
        )
    extras = {
        "fleet_ops": {
            "report": report.to_dict(),
            "assignments": {
                platform: dict(entry)
                for platform, entry in assignments_spec.items()
            },
            "unsupported": unsupported,
        }
    }
    return cells, extras


def render_fleet_extras(extras: dict) -> str:
    """Human-readable summary of the scenario's ``extras`` payload."""
    payload = extras.get("fleet_ops")
    if not payload:
        return ""
    report = payload["report"]
    lines = [
        "FLEET OPERATIONS",
        f"  merged replay: {report['events']} events in "
        f"{report['seconds']:.2f}s ({report['events_per_second']:.0f} ev/s, "
        f"engine={report.get('engine', 'per_event')}), "
        f"scored={report['scored']}",
    ]
    stages = report.get("stage_seconds")
    if stages:
        lines.append(
            "  stages: "
            + " ".join(
                f"{stage}={seconds:.3f}s"
                for stage, seconds in stages.items()
            )
        )
    actions = report.get("actions") or {}
    if actions:
        by_action = " ".join(
            f"{name}={count}" for name, count in actions["by_action"].items()
        )
        lines.append(
            f"  actions: executed={actions['executed']} "
            f"pending={actions['pending']} fallbacks={actions['fallbacks']} "
            f"({by_action}; max queue wait "
            f"{actions['max_wait_hours']:.1f}h)"
        )
    for platform, platform_report in report["platforms"].items():
        alarms = platform_report["alarms"]
        cost = report["costs"][platform]
        lines.append(
            f"  {platform} <- {platform_report['train_platform']}"
            f"/{platform_report['model']}: "
            f"P/R/F1 = {alarms['precision']:.2f}/{alarms['recall']:.2f}/"
            f"{alarms['f1']:.2f}  (tp={alarms['tp']} late={alarms['late']} "
            f"fp={alarms['fp']} censored={alarms['censored']})"
        )
        lines.append(
            f"    cost: protected={cost['protected_dimms']}/"
            f"{cost['ue_dimms']} UE DIMMs, VIRR={cost.get('virr', 0.0):.3f}, "
            f"savings={cost['savings']:.1f} "
            f"({cost['savings_fraction']:+.1%} of baseline "
            f"{cost['baseline_cost']:.1f})"
        )
    fleet = report["fleet_cost"]
    lines.append(
        f"  fleet: protected={fleet['protected_dimms']}/{fleet['ue_dimms']} "
        f"UE DIMMs, VIRR={fleet.get('virr', 0.0):.3f}, "
        f"savings={fleet['savings']:.1f} "
        f"({fleet['savings_fraction']:+.1%} of baseline "
        f"{fleet['baseline_cost']:.1f})"
    )
    return "\n".join(lines)
