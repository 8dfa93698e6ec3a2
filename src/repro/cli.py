"""Command-line interface.

The scenario-first entry point covers every experiment::

    python -m repro run transfer_matrix --set scale=0.1
    python -m repro run single_platform --set models=lightgbm --cache-dir .cache
    python -m repro run streaming_replay --set platform=k920
    python -m repro run --spec spec.json --out result.json
    python -m repro replay --platform intel_purley --cache-dir .cache
    python -m repro fleetops --assign k920=intel_purley --cache-dir .cache
    python -m repro fleetops --metrics-out run.obs.jsonl   # observability dump
    python -m repro metrics run.obs.jsonl --format prometheus
    python -m repro metrics --diff a.obs.jsonl b.obs.jsonl
    python -m repro replay --platform k920 --serve-metrics 9109 \
        --heartbeat-every 2000                             # live scrape endpoint
    python -m repro top http://127.0.0.1:9109              # watch heartbeats

plus the original workflow commands (now thin shims over the same API)::

    python -m repro simulate  --platform intel_purley --scale 0.2 --out logs.jsonl
    python -m repro analyze   --logs logs.jsonl        # Table I / Fig 4 / Fig 5
    python -m repro table2    --scale 0.25             # algorithm comparison
    python -m repro lifecycle --platform intel_purley  # MLOps loop
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.analysis import fig4_series, fig5_panels, table1_series
from repro.evaluation.protocol import ExperimentProtocol
from repro.evaluation.reporting import render_fig5, render_table1, render_table2
from repro.evaluation.table2 import run_table2
from repro.experiments.registry import PLATFORMS, SCENARIOS, UnknownNameError
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import ENGINE_CHOICES, RunSpec
from repro.features.sampling import SamplingParams
from repro.mlops.lifecycle import run_lifecycle
from repro.simulator import FleetConfig, simulate_fleet
from repro.telemetry.log_store import LogStore

#: Platform names come from the registry (populated by importing the
#: simulator above); the tuple is kept for argparse ``choices``.
PLATFORM_CHOICES = tuple(PLATFORMS.names())


def _add_telemetry_flags(parser) -> None:
    """Shared live-telemetry flags for the replaying/serving verbs."""
    parser.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve live telemetry over HTTP while the run executes "
        "(/metrics, /metrics.json, /spans, /healthz, /progress); "
        "0 picks an ephemeral port",
    )
    parser.add_argument(
        "--heartbeat-every", type=int, default=0, metavar="N",
        help="publish an in-flight heartbeat snapshot every N events "
        "(0 = off); event-count based, so outputs stay bit-identical",
    )


@contextmanager
def _telemetry(args):
    """Resolve --serve-metrics / --heartbeat-every / --metrics-out.

    Yields ``(obs, params)``: a caller-owned Observability bundle (or
    ``None`` when no telemetry flag asked for one) plus the spec params
    to merge.  The scrape server, when requested, lives exactly as long
    as the ``with`` body, so the run is pollable mid-flight.
    """
    heartbeat = int(getattr(args, "heartbeat_every", 0) or 0)
    port = getattr(args, "serve_metrics", None)
    wants_obs = (
        port is not None
        or heartbeat
        or getattr(args, "metrics_out", None) is not None
    )
    if not wants_obs:
        yield None, {}
        return
    from repro.obs import Observability, TelemetryServer

    obs = Observability()
    params: dict = {"observability": True}
    if heartbeat:
        params["heartbeat_every"] = heartbeat
    if port is None:
        yield obs, params
        return
    server = TelemetryServer(obs, port=port)
    server.start()
    print(f"serving telemetry at {server.url}/metrics")
    try:
        yield obs, params
    finally:
        server.stop()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cross-architecture DRAM failure prediction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a registered experiment scenario from a RunSpec"
    )
    run.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (omit with --spec)",
    )
    run.add_argument(
        "--spec", type=Path, default=None,
        help="load the RunSpec from a JSON file",
    )
    run.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="override one RunSpec field (repeatable), e.g. --set scale=0.1",
    )
    run.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None,
        help="feature-extraction engine: fleet (one batched cross-DIMM "
        "pass, the default) or per_sample (the transform_one reference)",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="shard the fleet extraction over N processes",
    )
    run.add_argument(
        "--cache-dir", type=Path, default=None,
        help="persist simulations/SampleSets in this artifact-cache directory",
    )
    run.add_argument(
        "--out", type=Path, default=None,
        help="write the RunResult as JSON",
    )

    replay = sub.add_parser(
        "replay",
        help="stream a (cached) campaign through the streaming scorer",
    )
    replay.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    replay.add_argument("--scale", type=float, default=0.25)
    replay.add_argument("--hours", type=float, default=2880.0)
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument(
        "--model", default="lightgbm", help="registered model name"
    )
    replay.add_argument(
        "--batch-size", type=int, default=256,
        help="micro-batch size for model scoring",
    )
    replay.add_argument(
        "--rescore-interval-hours", type=float, default=1.0 / 12.0,
        help="minimum hours between rescorings of one DIMM (default 5 min)",
    )
    replay.add_argument(
        "--replay-engine", choices=("batched", "per_event"),
        default="batched",
        help="replay kernel: column-wise batched numpy (default) or the "
        "pure-Python per-event reference",
    )
    replay.add_argument(
        "--verify-parity", action="store_true",
        help="cross-check every streamed vector against transform_one",
    )
    replay.add_argument(
        "--workers", type=int, default=None,
        help="replay through the distributed coordinator with N worker "
        "processes over DIMM shards",
    )
    replay.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist the simulation via this artifact-cache directory",
    )
    replay.add_argument(
        "--metrics-out", type=Path, default=None,
        help="enable the observability layer and write its metric/span "
        "dump (repro-obs-v1 JSONL) to this path",
    )
    replay.add_argument(
        "--out", type=Path, default=None,
        help="write the RunResult (incl. streaming report) as JSON",
    )
    _add_telemetry_flags(replay)

    chaos = sub.add_parser(
        "chaos",
        help="sweep telemetry fault rates through the streaming scorer",
    )
    chaos.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    chaos.add_argument("--scale", type=float, default=0.25)
    chaos.add_argument("--hours", type=float, default=2880.0)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--model", default="lightgbm", help="registered model name"
    )
    chaos.add_argument(
        "--fault-rates", default="0.0,0.02,0.05",
        help="comma-separated fault-rate sweep (default: 0.0,0.02,0.05)",
    )
    chaos.add_argument(
        "--replay-engine", choices=("batched", "per_event"),
        default="batched",
        help="replay kernel: column-wise batched numpy (default) or the "
        "pure-Python per-event reference",
    )
    chaos.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist the simulation via this artifact-cache directory",
    )
    chaos.add_argument(
        "--metrics-out", type=Path, default=None,
        help="enable the observability layer and write its metric/span "
        "dump (repro-obs-v1 JSONL) to this path",
    )
    chaos.add_argument(
        "--out", type=Path, default=None,
        help="write the RunResult (incl. fault-rate curves) as JSON",
    )
    _add_telemetry_flags(chaos)

    fleetops = sub.add_parser(
        "fleetops",
        help="replay a merged heterogeneous fleet with mitigation + costs",
    )
    fleetops.add_argument(
        "--platforms", default=",".join(PLATFORM_CHOICES),
        help="comma-separated serving platforms (default: all)",
    )
    fleetops.add_argument(
        "--model", default="lightgbm",
        help="default production model for every platform",
    )
    fleetops.add_argument(
        "--assign", action="append", default=[], metavar="PLATFORM=TRAIN",
        help="serve PLATFORM with a model trained on TRAIN (repeatable), "
        "e.g. --assign k920=intel_purley",
    )
    fleetops.add_argument("--scale", type=float, default=0.25)
    fleetops.add_argument("--hours", type=float, default=2880.0)
    fleetops.add_argument("--seed", type=int, default=7)
    fleetops.add_argument(
        "--replay-engine", choices=("batched", "per_event"),
        default="batched",
        help="replay kernel: column-wise batched numpy (default) or the "
        "pure-Python per-event reference",
    )
    fleetops.add_argument(
        "--workers", type=int, default=None,
        help="replay through the distributed coordinator with N worker "
        "processes over DIMM shards",
    )
    fleetops.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="override one RunSpec field, incl. nested params "
        "(e.g. --set params.budget.vm_migrate=2)",
    )
    fleetops.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist artifacts via this artifact-cache directory",
    )
    fleetops.add_argument(
        "--metrics-out", type=Path, default=None,
        help="enable the observability layer and write its metric/span "
        "dump (repro-obs-v1 JSONL) to this path",
    )
    fleetops.add_argument(
        "--out", type=Path, default=None,
        help="write the RunResult (incl. the fleet report) as JSON",
    )
    _add_telemetry_flags(fleetops)

    shard = sub.add_parser(
        "shard",
        help="partition simulated fleet telemetry into a distributed "
        "shard set (npz files + manifest)",
    )
    shard.add_argument(
        "--platforms", default=",".join(PLATFORM_CHOICES),
        help="comma-separated platforms (default: all)",
    )
    shard.add_argument("--scale", type=float, default=0.25)
    shard.add_argument("--hours", type=float, default=2880.0)
    shard.add_argument("--seed", type=int, default=7)
    shard.add_argument(
        "--shards", type=int, default=2, help="number of shard files"
    )
    shard.add_argument(
        "--out", type=Path, default=None,
        help="directory for shard_NNNN.npz files + manifest.json "
        "(omit with --cache-dir to build into the cache's shard tier)",
    )
    shard.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist the simulations via this artifact-cache "
        "directory (also caches the shard set itself)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the distributed scoring tier: sharded replay gated "
        "bit-for-bit against single-process, plus async batched serving",
    )
    serve.add_argument(
        "--platforms", default=",".join(PLATFORM_CHOICES),
        help="comma-separated serving platforms (default: all)",
    )
    serve.add_argument(
        "--model", default="lightgbm",
        help="production model for every platform",
    )
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument("--hours", type=float, default=2880.0)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="replay worker processes (default 2)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="async serving micro-batch size",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="async serving batching window",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256,
        help="async serving queue bound (overflow sheds to the heuristic)",
    )
    serve.add_argument(
        "--serve-records", type=int, default=2000,
        help="stream records to drive through the async service",
    )
    serve.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="override one RunSpec field, incl. nested params",
    )
    serve.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist artifacts via this artifact-cache directory",
    )
    serve.add_argument(
        "--metrics-out", type=Path, default=None,
        help="enable the observability layer and write its metric/span "
        "dump (repro-obs-v1 JSONL) to this path",
    )
    serve.add_argument(
        "--out", type=Path, default=None,
        help="write the RunResult (incl. parity + SLO report) as JSON",
    )
    _add_telemetry_flags(serve)

    metrics = sub.add_parser(
        "metrics",
        help="inspect an observability dump written via --metrics-out",
    )
    metrics.add_argument(
        "dump", type=Path, nargs="?", default=None,
        help="repro-obs-v1 JSONL dump file (omit with --diff)",
    )
    metrics.add_argument(
        "--format", choices=("summary", "prometheus", "spans"),
        default="summary",
        help="render as a one-screen summary (default), Prometheus text "
        "exposition, or the indented span tree",
    )
    metrics.add_argument(
        "--diff", type=Path, nargs=2, default=None, metavar=("A", "B"),
        help="render per-family deltas between two dumps (counter "
        "deltas, gauge moves, histogram quantile shifts)",
    )

    top = sub.add_parser(
        "top",
        help="poll a live telemetry endpoint (--serve-metrics) and "
        "render in-flight heartbeats",
    )
    top.add_argument(
        "url",
        help="endpoint base URL, e.g. http://127.0.0.1:9109 (the "
        "address printed by --serve-metrics)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--count", type=int, default=0,
        help="number of polls before exiting (0 = until interrupted)",
    )

    simulate = sub.add_parser("simulate", help="simulate one platform fleet")
    simulate.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    simulate.add_argument("--scale", type=float, default=0.2)
    simulate.add_argument("--hours", type=float, default=2160.0)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--out", type=Path, required=True)

    analyze = sub.add_parser("analyze", help="Table I / Fig 4 / Fig 5 from logs")
    analyze.add_argument("--logs", type=Path, action="append", required=True,
                         help="JSONL log file; repeat for multiple platforms")
    analyze.add_argument("--platform", action="append", default=None,
                         help="platform name per --logs entry")

    table2 = sub.add_parser("table2", help="run the algorithm comparison")
    table2.add_argument("--scale", type=float, default=0.25)
    table2.add_argument("--hours", type=float, default=2880.0)
    table2.add_argument("--seed", type=int, default=7)
    table2.add_argument(
        "--models", default="risky_ce_pattern,random_forest,lightgbm",
        help="comma-separated model names",
    )

    lifecycle = sub.add_parser("lifecycle", help="run the MLOps lifecycle")
    lifecycle.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    lifecycle.add_argument("--scale", type=float, default=0.2)
    lifecycle.add_argument("--hours", type=float, default=2160.0)
    lifecycle.add_argument("--seed", type=int, default=7)
    lifecycle.add_argument(
        "--cache-dir", type=Path, default=None,
        help="serve/persist the simulation via this artifact-cache directory",
    )
    return parser


def _cmd_run(args) -> int:
    if args.spec is not None:
        try:
            spec = RunSpec.from_json_file(args.spec)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot load spec {args.spec}: {error}", file=sys.stderr)
            return 2
        if args.scenario is not None:
            spec = spec.with_overrides([f"scenario={args.scenario}"])
    elif args.scenario is not None:
        spec = RunSpec(scenario=args.scenario)
    else:
        print(
            "error: name a scenario or pass --spec; registered scenarios: "
            + ", ".join(SCENARIOS.names() or ("<import a scenario module>",)),
            file=sys.stderr,
        )
        return 2

    try:
        spec = spec.with_overrides(args.overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    flag_overrides = []
    if args.engine is not None:
        flag_overrides.append(f"engine={args.engine}")
    if args.workers is not None:
        flag_overrides.append(f"workers={args.workers}")
    if args.cache_dir is not None:
        flag_overrides.append(f"cache_dir={args.cache_dir}")
    if flag_overrides:
        spec = spec.with_overrides(flag_overrides)

    try:
        result = run_spec(spec)
    except (UnknownNameError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    _emit_result(result, args.out)
    return _nonfinite_status(result) or _streaming_parity_status(result)


def _emit_result(result, out) -> None:
    """Render a RunResult and write the JSON artifact if requested.

    The artifact is written before callers gate on cell health: a
    degenerate cell's full per-cell results are exactly what the user
    needs to debug it.
    """
    print(result.render())
    _print_extras(result)
    print(result.render_cache_stats())
    if out is not None:
        result.to_json_file(out)
        print(f"wrote {out}")


def _nonfinite_status(result) -> int:
    """Exit status for degenerate cells, with one stderr line per cell."""
    bad = result.any_nonfinite()
    for cell in bad:
        print(
            f"error: non-finite metrics in cell "
            f"({cell.train_platform} -> {cell.test_platform}, {cell.model})",
            file=sys.stderr,
        )
    return 1 if bad else 0


def _print_extras(result) -> None:
    """Render every extras payload that has a registered renderer."""
    if "streaming_replay" in result.extras:
        from repro.streaming.scenario import render_streaming_extras

        print(render_streaming_extras(result.extras))
    if "fleet_ops" in result.extras:
        from repro.fleetops.scenario import render_fleet_extras

        print(render_fleet_extras(result.extras))
    if "lead_time" in result.extras:
        from repro.experiments.scenarios import render_lead_time_extras

        print(render_lead_time_extras(result.extras))
    if "chaos_replay" in result.extras:
        from repro.chaos.scenario import render_chaos_extras

        print(render_chaos_extras(result.extras))
    if "distributed_replay" in result.extras:
        from repro.distributed.scenario import render_distributed_extras

        print(render_distributed_extras(result.extras))


def _streaming_parity_status(result) -> int:
    """Exit status of a run's streaming parity record (0 when absent)."""
    failures = 0
    for models in result.extras.get("streaming_replay", {}).values():
        for payload in models.values():
            failures += payload["streaming"].get("parity", {}).get(
                "mismatches", 0
            )
    if failures:
        print(f"error: {failures} parity mismatches", file=sys.stderr)
        return 1
    return 0


def _write_metrics_out(result, metrics_out) -> None:
    """Dump ``extras["observability"]`` as repro-obs-v1 JSONL."""
    if metrics_out is None:
        return
    from repro.obs import write_observability

    payload = result.extras.get("observability")
    if payload is None:
        print(
            "warning: no observability payload to write", file=sys.stderr
        )
        return
    write_observability(metrics_out, payload)
    print(f"wrote {metrics_out}")


def _cmd_replay(args) -> int:
    """Thin shim over ``repro run streaming_replay`` for one platform."""
    from repro.streaming.scenario import render_streaming_extras

    with _telemetry(args) as (obs, tele_params):
        spec = RunSpec(
            scenario="streaming_replay",
            platforms=(args.platform,),
            models=(args.model,),
            scale=args.scale,
            hours=args.hours,
            seed=args.seed,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            params={
                "batch_size": args.batch_size,
                "rescore_interval_hours": args.rescore_interval_hours,
                "engine": args.replay_engine,
                "verify_parity": bool(args.verify_parity),
            }
            | (
                {"replay_workers": args.workers}
                if args.workers is not None
                else {}
            )
            | tele_params,
        )
        try:
            result = run_spec(spec, obs=obs)
        except (UnknownNameError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}", file=sys.stderr)
            return 2
    print(render_streaming_extras(result.extras))
    print(result.render_cache_stats())
    _write_metrics_out(result, args.metrics_out)
    if args.out is not None:
        result.to_json_file(args.out)
        print(f"wrote {args.out}")
    return _streaming_parity_status(result)


def _cmd_chaos(args) -> int:
    """Thin shim over ``repro run chaos_replay`` for one platform."""
    from repro.chaos.scenario import render_chaos_extras

    try:
        fault_rates = [
            float(rate)
            for rate in args.fault_rates.split(",")
            if rate.strip()
        ]
    except ValueError:
        print(
            f"error: bad --fault-rates {args.fault_rates!r}: expected "
            f"comma-separated floats",
            file=sys.stderr,
        )
        return 2
    with _telemetry(args) as (obs, tele_params):
        spec = RunSpec(
            scenario="chaos_replay",
            platforms=(args.platform,),
            models=(args.model,),
            scale=args.scale,
            hours=args.hours,
            seed=args.seed,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            params={
                "fault_rates": fault_rates,
                "engine": args.replay_engine,
            }
            | tele_params,
        )
        try:
            result = run_spec(spec, obs=obs)
        except (UnknownNameError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}", file=sys.stderr)
            return 2
    print(render_chaos_extras(result.extras))
    print(result.render_cache_stats())
    _write_metrics_out(result, args.metrics_out)
    if args.out is not None:
        result.to_json_file(args.out)
        print(f"wrote {args.out}")
    return _nonfinite_status(result)


def _cmd_fleetops(args) -> int:
    """Thin shim over ``repro run fleet_ops`` with --assign sugar."""
    assignments: dict[str, dict] = {}
    for entry in args.assign:
        platform, sep, train_platform = entry.partition("=")
        if not sep or not platform.strip() or not train_platform.strip():
            print(
                f"error: bad --assign {entry!r}: expected PLATFORM=TRAIN",
                file=sys.stderr,
            )
            return 2
        assignments[platform.strip()] = {
            "train_platform": train_platform.strip()
        }
    platforms = tuple(
        name.strip() for name in args.platforms.split(",") if name.strip()
    )
    with _telemetry(args) as (obs, tele_params):
        spec = RunSpec(
            scenario="fleet_ops",
            platforms=platforms,
            models=(args.model,),
            scale=args.scale,
            hours=args.hours,
            seed=args.seed,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            params=(
                {"assignments": assignments} if assignments else {}
            )
            | {"engine": args.replay_engine}
            | (
                {"replay_workers": args.workers}
                if args.workers is not None
                else {}
            )
            | tele_params,
        )
        try:
            spec = spec.with_overrides(args.overrides)
            result = run_spec(spec, obs=obs)
        except (UnknownNameError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}", file=sys.stderr)
            return 2
    _emit_result(result, args.out)
    _write_metrics_out(result, args.metrics_out)
    return _nonfinite_status(result)


def _cmd_shard(args) -> int:
    """Partition (cached) simulated campaigns into a shard set."""
    from repro.distributed.shards import write_fleet_shards
    from repro.experiments.cache import ShardSetKey

    if args.out is None and args.cache_dir is None:
        print("error: give --out and/or --cache-dir", file=sys.stderr)
        return 2
    platforms = tuple(
        name.strip() for name in args.platforms.split(",") if name.strip()
    )
    spec = RunSpec(
        scenario="fleet_ops",
        platforms=platforms,
        scale=args.scale,
        hours=args.hours,
        seed=args.seed,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
    )
    try:
        context = RunContext(spec)
        stores = {
            platform: context.simulation(platform).store.columns
            for platform in platforms
        }
    except (UnknownNameError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.out is not None:
        out_dir = args.out
        manifest = write_fleet_shards(stores, args.shards, out_dir)
    else:
        # No explicit destination: build (or reuse) the cache's shard tier.
        out_dir, manifest = context.cache.shard_set(
            ShardSetKey(
                simulations=tuple(
                    context.simulation_key(platform)
                    for platform in sorted(platforms)
                ),
                n_shards=args.shards,
            ),
            lambda: stores,
        )
    print(
        f"wrote {manifest.n_shards} shards for "
        f"{len(manifest.platforms)} platforms to {out_dir} "
        f"(format v{manifest.format}, fingerprint {manifest.fingerprint})"
    )
    for entry in manifest.shards:
        detail = " ".join(
            f"{platform}:{info['dimms']}d/{info['ces']}ce"
            for platform, info in entry["platforms"].items()
        )
        print(f"  {entry['path']}: {entry['rows']} rows ({detail})")
    print(context.cache.render_stats())
    return 0


def _cmd_serve(args) -> int:
    """Thin shim over ``repro run distributed_replay`` with a parity gate."""
    platforms = tuple(
        name.strip() for name in args.platforms.split(",") if name.strip()
    )
    with _telemetry(args) as (obs, tele_params):
        spec = RunSpec(
            scenario="distributed_replay",
            platforms=platforms,
            models=(args.model,),
            scale=args.scale,
            hours=args.hours,
            seed=args.seed,
            cache_dir=str(args.cache_dir) if args.cache_dir else None,
            params={
                "replay_workers": args.workers,
                "serve": {
                    "max_batch": args.max_batch,
                    "max_wait_ms": args.max_wait_ms,
                    "max_queue": args.max_queue,
                    "max_records": args.serve_records,
                },
            }
            | tele_params,
        )
        try:
            spec = spec.with_overrides(args.overrides)
            result = run_spec(spec, obs=obs)
        except (UnknownNameError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}", file=sys.stderr)
            return 2
    _emit_result(result, args.out)
    _write_metrics_out(result, args.metrics_out)
    payload = result.extras.get("distributed_replay", {})
    parity = payload.get("parity", {})
    if not parity.get("all", False):
        failed = [
            name for name, ok in parity.items() if name != "all" and not ok
        ]
        print(
            f"error: distributed parity failed: {failed or 'no parity data'}",
            file=sys.stderr,
        )
        return 1
    serving = payload.get("serving", {})
    if serving.get("lost", 0):
        print(
            f"error: async serving lost {serving['lost']} requests",
            file=sys.stderr,
        )
        return 1
    return _nonfinite_status(result)


def _cmd_metrics(args) -> int:
    """Render an observability dump written by ``--metrics-out``."""
    from repro.obs import (
        read_observability,
        render_metrics_diff,
        render_span_tree,
        render_summary,
        to_prometheus,
    )

    if args.diff is not None:
        if args.dump is not None:
            print(
                "error: give either one dump file or --diff A B, not both",
                file=sys.stderr,
            )
            return 2
        path_a, path_b = args.diff
        try:
            payload_a = read_observability(path_a)
            payload_b = read_observability(path_b)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot read dump: {error}", file=sys.stderr)
            return 2
        print(
            render_metrics_diff(
                payload_a, payload_b, str(path_a), str(path_b)
            )
        )
        return 0
    if args.dump is None:
        print("error: give a dump file (or --diff A B)", file=sys.stderr)
        return 2
    try:
        payload = read_observability(args.dump)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: cannot read {args.dump}: {error}", file=sys.stderr)
        return 2
    if args.format == "prometheus":
        print(to_prometheus(payload), end="")
    elif args.format == "spans":
        print(render_span_tree(payload))
    else:
        print(render_summary(payload))
    return 0


def _render_top(progress: dict) -> str:
    """One poll's view: latest heartbeat per source, plus rates."""
    latest: dict[str, dict] = {}
    for entry in progress.get("entries", ()):
        latest[entry["source"]] = entry
    if not latest:
        return "(no heartbeats yet)"
    rates = progress.get("rates", {})
    lines = []
    for source in sorted(latest):
        entry = latest[source]
        fields = entry["fields"]
        shown = " ".join(
            f"{key}={fields[key]:g}"
            if isinstance(fields[key], float)
            else f"{key}={fields[key]}"
            for key in sorted(fields)
        )
        line = f"  {source} #{entry['seq']}: {shown}"
        per_second = rates.get(source)
        if per_second:
            line += "  | " + " ".join(
                f"{key}/s={value:.1f}"
                for key, value in sorted(per_second.items())
            )
        lines.append(line)
    return "\n".join(lines)


def _cmd_top(args) -> int:
    """Poll a --serve-metrics endpoint's /progress route."""
    from urllib.error import URLError
    from urllib.request import urlopen

    base = args.url.rstrip("/")
    if "://" not in base:
        base = "http://" + base
    polls = 0
    try:
        while True:
            try:
                with urlopen(base + "/progress", timeout=5) as response:
                    progress = json.loads(response.read().decode("utf-8"))
            except (OSError, URLError, ValueError) as error:
                print(
                    f"error: cannot poll {base}/progress: {error}",
                    file=sys.stderr,
                )
                return 1
            print(f"repro top @ {base} (poll {polls + 1})")
            print(_render_top(progress))
            polls += 1
            if args.count and polls >= args.count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_simulate(args) -> int:
    platform = PLATFORMS.resolve(args.platform)(args.scale)
    result = simulate_fleet(
        FleetConfig(platform=platform, duration_hours=args.hours, seed=args.seed)
    )
    count = result.store.dump_jsonl(args.out)
    truth = result.truth
    print(
        f"wrote {count} records to {args.out} "
        f"({len(truth.dimms_with_ces)} CE DIMMs, "
        f"{len(truth.predictable_ue_dimms)} predictable UEs, "
        f"{len(truth.sudden_ue_dimms)} sudden UEs)"
    )
    return 0


def _cmd_analyze(args) -> int:
    stores: dict[str, LogStore] = {}
    names = args.platform or [path.stem for path in args.logs]
    if len(names) != len(args.logs):
        print(
            f"error: got {len(names)} --platform names for {len(args.logs)} "
            f"--logs files; counts must match",
            file=sys.stderr,
        )
        return 2
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        print(
            f"error: duplicate platform labels {duplicates}; each --logs file "
            f"needs a distinct --platform name (or distinct file stems)",
            file=sys.stderr,
        )
        return 2
    for name, path in zip(names, args.logs):
        stores[name] = LogStore.load_jsonl(path)
    print(render_table1(table1_series(stores)) if set(stores) >= set(PLATFORM_CHOICES)
          else _render_partial_table1(stores))
    print()
    print(_render_partial_fig4(stores))
    for name, store in stores.items():
        print()
        print(render_fig5({name: fig5_panels(store)}))
    return 0


def _render_partial_table1(stores) -> str:
    stats = table1_series(stores)
    lines = ["Dataset statistics:"]
    for name, stat in stats.items():
        lines.append(
            f"  {name}: {stat.dimms_with_ces} CE DIMMs, "
            f"{stat.dimms_with_ues} UE DIMMs "
            f"(predictable {stat.predictable_share:.0%}, "
            f"sudden {stat.sudden_share:.0%})"
        )
    return "\n".join(lines)


def _render_partial_fig4(stores) -> str:
    series = fig4_series(stores)
    lines = ["Relative UE rate by fault category:"]
    for name, stats in series.items():
        row = " ".join(f"{cat}={stat.rate:.3f}" for cat, stat in stats.items())
        lines.append(f"  {name}: {row}")
    return "\n".join(lines)


def _cmd_table2(args) -> int:
    """Thin shim: ``run_table2`` itself routes through the scenario API."""
    protocol = ExperimentProtocol(
        scale=args.scale,
        duration_hours=args.hours,
        seed=args.seed,
        sampling=SamplingParams(max_samples_per_dimm=16),
    )
    models = tuple(name.strip() for name in args.models.split(",") if name.strip())
    try:
        results = run_table2(protocol, model_names=models)
    except (UnknownNameError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(render_table2(results))
    return 0


def _cmd_lifecycle(args) -> int:
    """Thin shim: the campaign comes from the artifact cache, then Figure 6."""
    spec = RunSpec(
        scenario="single_platform",
        platforms=(args.platform,),
        scale=args.scale,
        hours=args.hours,
        seed=args.seed,
        max_samples_per_dimm=16,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
    )
    context = RunContext(spec)
    simulation = context.simulation(args.platform)
    protocol = spec.protocol()
    with tempfile.TemporaryDirectory() as tmp:
        report = run_lifecycle(simulation, protocol, Path(tmp) / "lake")
    print(f"deployed={report.deployed} ({report.gate_reason})")
    if report.deployed and report.confusion is not None:
        counts = report.confusion
        print(
            f"alarms={report.alarms} scored={report.scored} "
            f"TP={counts.tp} FP={counts.fp} FN={counts.fn} "
            f"VIRR={report.virr:.3f} drifted={report.drifted}"
        )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "replay": _cmd_replay,
    "chaos": _cmd_chaos,
    "fleetops": _cmd_fleetops,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "table2": _cmd_table2,
    "lifecycle": _cmd_lifecycle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
