"""End-to-end feature pipeline: LogStore -> labeled SampleSet.

Mirrors the paper's feature-store transformations (Section VII): temporal,
spatial, bit-level, static and environment features, computed per sampling
instant, with labels from :mod:`repro.features.labeling`.  The same
pipeline object serves batch construction (training) and single-sample
transformation (online serving), guaranteeing train/serve consistency.

Two engines build sample sets:

* ``engine="fleet"`` (default) — ONE batched cross-DIMM pass: the log
  store's columnar fleet view feeds
  :class:`~repro.features.windows.FleetWindows`, and every extractor's
  ``compute_batch`` runs once over the whole fleet's ragged arrays.
  Optionally sharded over a process pool (``workers=``) with columnar
  pickling.
* ``engine="per_sample"`` — one :meth:`FeaturePipeline.transform_one`
  call per sample; the bit-for-bit reference implementation.

Both produce identical matrices (enforced by the fleet-parity tests).
"""

from __future__ import annotations

import concurrent.futures
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro.features.bitlevel import BitLevelExtractor
from repro.features.labeling import (
    LabelingParams,
    labels_at,
    labels_at_fleet,
    valid_sample_mask,
    valid_sample_mask_fleet,
)
from repro.features.sampling import (
    SampleSet,
    SamplingParams,
    choose_sample_times,
    thinning_jitters,
)
from repro.features.spatial import SpatialExtractor
from repro.features.static import EnvironmentExtractor, StaticEncoder
from repro.features.temporal import TemporalExtractor
from repro.obs.tracing import NULL_TRACER
from repro.features.windows import DimmHistory, FleetWindows, as_dimm_history
from repro.telemetry.columnar import CE_SERVER, CE_T, FleetArrays
from repro.telemetry.log_store import LogStore

#: Engine names accepted by :meth:`FeaturePipeline.build_samples`.
ENGINES = ("fleet", "per_sample")


def server_ce_times(store: LogStore) -> dict[str, np.ndarray]:
    """Per-server CE timestamp arrays, read off the columnar CE table.

    Groups the struct-of-arrays mirror by interned server code (one stable
    argsort, zero record-object loops).  The value *sets* equal what the
    old ``store.ces`` record walk produced; value order may differ, which
    is immaterial because the environment extractor sorts each server's
    times at fit time (parity is pinned by a test).
    """
    rows = store.columns.ces.rows()
    if rows.shape[0] == 0:
        return {}
    codes = rows[:, CE_SERVER].astype(np.int64)
    times = rows[:, CE_T]
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    )
    starts = np.append(boundaries, sorted_codes.size)
    sorted_times = times[order]
    return {
        store.columns.servers.name(int(sorted_codes[lo])): sorted_times[lo:hi]
        for lo, hi in zip(starts[:-1], starts[1:])
    }


@dataclass
class FeaturePipelineConfig:
    labeling: LabelingParams = field(default_factory=LabelingParams)
    sampling: SamplingParams = field(default_factory=SamplingParams)


class FeaturePipeline:
    """Builds labeled samples from a log store (and serves single samples)."""

    def __init__(self, config: FeaturePipelineConfig | None = None):
        self.config = config or FeaturePipelineConfig()
        observation = self.config.labeling.observation_hours
        self.temporal = TemporalExtractor(observation)
        self.spatial = SpatialExtractor(observation)
        self.bitlevel = BitLevelExtractor(observation)
        self.static = StaticEncoder()
        self.environment = EnvironmentExtractor(observation)
        self._fitted = False

    # -- fitting ----------------------------------------------------------

    def fit(self, store: LogStore) -> "FeaturePipeline":
        """Fit the static encoder and the server-level CE index.

        The server index is grouped straight from the columnar CE table
        (one argsort over the interned server codes) instead of walking
        ``store.ces`` record objects; :func:`server_ce_times` is the shared
        helper and the record-walk parity is pinned by a test.
        """
        self.static.fit(store.configs)
        self.environment.fit(server_ce_times(store))
        self._fitted = True
        return self

    # -- feature schema -----------------------------------------------------

    def feature_names(self) -> list[str]:
        return (
            self.temporal.names()
            + self.spatial.names()
            + self.bitlevel.names()
            + self.environment.names()
            + self.static.names()
        )

    def feature_groups(self) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        offset = 0
        for extractor in (
            self.temporal,
            self.spatial,
            self.bitlevel,
            self.environment,
            self.static,
        ):
            names = extractor.names()
            groups.setdefault(extractor.group, []).extend(
                range(offset, offset + len(names))
            )
            offset += len(names)
        return groups

    # -- transformation ------------------------------------------------------

    def transform_one(
        self,
        history,
        config,
        t: float,
        static_block: np.ndarray | None = None,
    ) -> np.ndarray:
        """Feature vector for one DIMM at one instant (online serving path).

        ``history`` may be a :class:`DimmHistory` or an
        :class:`~repro.features.windows.AppendableDimmHistory`.
        ``static_block`` optionally reuses a previously computed static
        feature block (configs are time-invariant) — the online service's
        incremental fast path.
        """
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        history = as_dimm_history(history)
        temporal = self.temporal.compute(history, t)
        own_count_5d = temporal[3]  # 5-day CE count (4th sub-window)
        windowed = (
            temporal
            + self.spatial.compute(history, t)
            + self.bitlevel.compute(history, t)
            + self.environment.compute(history.server_id, own_count_5d, t)
        )
        if static_block is None:
            return np.asarray(windowed + self.static.compute(config), dtype=float)
        return np.concatenate(
            [np.asarray(windowed, dtype=float), static_block]
        )

    def static_block(self, config) -> np.ndarray:
        """The time-invariant static feature block of one config."""
        return np.asarray(self.static.compute(config), dtype=float)

    def transform_fleet(
        self,
        fleet: FleetArrays,
        configs: list,
        ts: np.ndarray,
        sample_seg: np.ndarray,
    ) -> np.ndarray:
        """Feature matrix for MANY DIMMs' samples in one cross-fleet pass.

        ``ts`` / ``sample_seg`` must be grouped by ascending segment (DIMM
        index into ``fleet``), the order :meth:`build_samples` produces;
        ``configs[i]`` is segment ``i``'s config.  Output rows equal
        :meth:`transform_one` of each sample, bit-for-bit — but the five
        extractors each run once over the whole fleet instead of once per
        sample.
        """
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        ts = np.asarray(ts, dtype=float)
        sample_seg = np.asarray(sample_seg, dtype=np.int64)
        if ts.size == 0:
            return np.empty((0, len(self.feature_names())))
        windows = FleetWindows(fleet, ts, sample_seg)
        temporal = self.temporal.compute_batch(windows)
        own_counts_5d = temporal[:, 3]  # 5-day CE count (4th sub-window)
        server_codes = np.asarray(
            [self.environment.server_code(s) for s in fleet.server_ids],
            dtype=np.int64,
        )
        counts = np.bincount(sample_seg, minlength=fleet.n_dimms)
        return np.hstack(
            [
                temporal,
                self.spatial.compute_batch(windows),
                self.bitlevel.compute_batch(windows),
                self.environment.compute_fleet(
                    server_codes[sample_seg], own_counts_5d, ts
                ),
                np.repeat(self.static.compute_rows(configs), counts, axis=0),
            ]
        )

    def build_samples(
        self,
        store: LogStore,
        platform: str = "",
        campaign_end_hour: float | None = None,
        engine: str | None = None,
        workers: int | None = None,
        tracer=None,
        obs=None,
        heartbeat_every: int = 0,
    ) -> SampleSet:
        """Batch construction of the labeled sample set for one platform.

        ``engine`` picks the extraction strategy (see module docstring);
        ``None`` means the cross-DIMM fleet pass.  ``workers`` shards the
        fleet pass across a process pool (threads, then serial, as
        fallbacks); every engine and worker count yields bit-for-bit
        identical sample sets.  ``tracer`` optionally records fit/extract
        spans (:mod:`repro.obs`); ``obs`` passes the whole bundle (its
        tracer wins unless ``tracer`` is set) and ``heartbeat_every``
        publishes live ``build_samples`` heartbeats — per completed shard
        on the fleet engine, every N DIMMs on the per-sample one, plus a
        final snapshot.  Extraction itself is untouched either way.
        """
        if engine is None:
            engine = "fleet"
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
        if tracer is None:
            tracer = obs.tracer if obs is not None else NULL_TRACER
        hb = int(heartbeat_every) if obs is not None else 0
        with tracer.span(
            "build_samples",
            platform=platform,
            engine=engine,
            workers=workers if workers is not None else 1,
        ):
            if not self._fitted:
                with tracer.span("build_samples.fit"):
                    self.fit(store)
            end_hour = (
                campaign_end_hour
                if campaign_end_hour is not None
                else store.end_hour
            )
            with tracer.span("build_samples.extract"):
                if engine == "fleet":
                    return self._build_fleet(
                        store, platform, end_hour, workers,
                        obs=obs, heartbeat_every=hb,
                    )
                return self._build_per_sample(
                    store, platform, end_hour,
                    obs=obs, heartbeat_every=hb,
                )

    # -- fleet engine -------------------------------------------------------

    def _build_fleet(
        self,
        store: LogStore,
        platform: str,
        end_hour: float,
        workers: int | None,
        obs=None,
        heartbeat_every: int = 0,
    ) -> SampleSet:
        fleet = store.fleet_arrays()
        sampling = self.config.sampling
        rng = np.random.default_rng(sampling.seed)
        jitters = thinning_jitters(
            np.diff(fleet.ce_offsets),
            sampling.max_samples_per_dimm,
            sampling.min_history_ces,
            rng,
        )
        configs = [store.config_for(dimm_id) for dimm_id in fleet.dimm_ids]
        progress = None
        if obs is not None and heartbeat_every:
            samples_done = 0

            def progress(done, total, shard):
                nonlocal samples_done
                samples_done += int(shard[2].size)
                obs.heartbeat("build_samples", {
                    "shards": done,
                    "total": total,
                    "fraction": done / total if total else 1.0,
                    "samples": samples_done,
                })

        if workers is not None and workers > 1 and fleet.n_dimms > 1:
            shards = self._run_sharded(
                fleet, configs, jitters, end_hour, workers,
                progress=progress,
            )
        else:
            shards = [_extract_fleet_shard(self, fleet, configs, jitters, end_hour)]
            if progress is not None:
                progress(1, 1, shards[0])

        names = self.feature_names()
        X = np.vstack([shard[0] for shard in shards])
        y = np.concatenate([shard[1] for shard in shards])
        times = np.concatenate([shard[2] for shard in shards])
        counts = np.concatenate([shard[3] for shard in shards])
        dimm_ids = np.repeat(np.asarray(fleet.dimm_ids, dtype=object), counts)
        if X.shape[0] == 0:
            X = np.empty((0, len(names)))
        return SampleSet(
            X=X,
            y=y.astype(int),
            times=times,
            dimm_ids=dimm_ids,
            feature_names=names,
            feature_groups=self.feature_groups(),
            platform=platform,
        )

    def _run_sharded(
        self,
        fleet: FleetArrays,
        configs: list,
        jitters: list,
        end_hour: float,
        workers: int,
        progress=None,
    ) -> list[tuple]:
        """Fan the fleet pass out over DIMM shards (process -> thread -> serial).

        Shards are submitted individually so one crashed worker costs one
        shard, not the pass: :func:`_shard_result` resubmits a failed
        shard with backoff and finally reassigns it to this process.  The
        sample set is bit-for-bit identical no matter which worker (or
        none) computed each shard.
        """
        n_shards = min(int(workers), fleet.n_dimms)
        bounds = np.linspace(0, fleet.n_dimms, n_shards + 1).astype(int)
        payloads = [
            (
                self,
                fleet.shard(int(lo), int(hi)),
                configs[lo:hi],
                jitters[lo:hi],
                end_hour,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for pool_cls in (
            concurrent.futures.ProcessPoolExecutor,
            concurrent.futures.ThreadPoolExecutor,
        ):
            try:
                with pool_cls(max_workers=n_shards) as pool:
                    futures = [
                        pool.submit(_extract_payload, payload)
                        for payload in payloads
                    ]
                    results = []
                    for payload, future in zip(payloads, futures):
                        results.append(_shard_result(pool, payload, future))
                        if progress is not None:
                            progress(
                                len(results), len(payloads), results[-1]
                            )
                    return results
            except (
                OSError,
                PermissionError,
                RuntimeError,  # e.g. "can't start new thread" under limits
                pickle.PicklingError,
                concurrent.futures.BrokenExecutor,
            ):
                # Process pools are unavailable in some sandboxes (and
                # thread pools in some embedders); degrade gracefully —
                # the result is bit-for-bit identical either way.  A
                # worker-raised error lands here too; the serial retry
                # below re-raises it if it was a genuine bug.
                continue
        results = []
        for payload in payloads:
            results.append(_extract_payload(payload))
            if progress is not None:
                progress(len(results), len(payloads), results[-1])
        return results

    # -- per-sample engine (the reference path) -----------------------------

    def _build_per_sample(
        self,
        store: LogStore,
        platform: str,
        end_hour: float,
        obs=None,
        heartbeat_every: int = 0,
    ) -> SampleSet:
        labeling = self.config.labeling
        sampling = self.config.sampling
        rng = np.random.default_rng(sampling.seed)

        blocks: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        time_parts: list[np.ndarray] = []
        dimm_parts: list[np.ndarray] = []

        hb = heartbeat_every if obs is not None else 0
        dimm_ids_all = store.dimm_ids_with_ces()
        hb_total = len(dimm_ids_all)
        n_samples = 0

        def heartbeat(done: int) -> None:
            obs.heartbeat("build_samples", {
                "dimms": done,
                "total": hb_total,
                "fraction": done / hb_total if hb_total else 1.0,
                "samples": n_samples,
            })

        for hb_done, dimm_id in enumerate(dimm_ids_all, start=1):
            ces = store.ces_for_dimm(dimm_id)
            events = store.events_for_dimm(dimm_id)
            history = DimmHistory.from_records(dimm_id, ces, events)
            ues = store.ues_for_dimm(dimm_id)
            ue_hour = ues[0].timestamp_hours if ues else None

            ts = np.asarray(
                choose_sample_times(
                    history.times,
                    sampling.max_samples_per_dimm,
                    sampling.min_history_ces,
                    rng,
                ),
                dtype=float,
            )
            ts = ts[valid_sample_mask(ts, ue_hour, end_hour, labeling)]
            if ts.size:
                config = store.config_for(dimm_id)
                blocks.append(np.vstack(
                    [self.transform_one(history, config, float(t)) for t in ts]
                ))
                label_parts.append(labels_at(ts, ue_hour, labeling))
                time_parts.append(ts)
                dimm_parts.append(np.full(ts.size, dimm_id, dtype=object))
                n_samples += ts.size
            # Published after the DIMM (skipped ones included); the final
            # snapshot below always reports the finished build.
            if hb and hb_done % hb == 0 and hb_done < hb_total:
                heartbeat(hb_done)
        if hb:
            heartbeat(hb_total)

        names = self.feature_names()
        if blocks:
            X = np.vstack(blocks)
            y = np.concatenate(label_parts).astype(int)
            times = np.concatenate(time_parts)
            dimm_ids = np.concatenate(dimm_parts)
        else:
            X = np.empty((0, len(names)))
            y = np.empty(0, dtype=int)
            times = np.empty(0, dtype=float)
            dimm_ids = np.empty(0, dtype=object)
        return SampleSet(
            X=X,
            y=y,
            times=times,
            dimm_ids=dimm_ids,
            feature_names=names,
            feature_groups=self.feature_groups(),
            platform=platform,
        )


def _extract_payload(payload: tuple) -> tuple:
    pipeline, fleet, configs, jitters, end_hour = payload
    return _extract_fleet_shard(pipeline, fleet, configs, jitters, end_hour)


def _shard_result(
    pool, payload: tuple, future, retries: int = 2, backoff: float = 0.05
) -> tuple:
    """One shard's result, surviving crashed workers.

    Infrastructure failures (a worker OOM-killed, a dropped pipe) get
    ``retries`` resubmits with exponential backoff; a shard still failing
    is reassigned to this process inline.  A broken *pool* propagates so
    the caller can fall to the next pool class, and a genuine extraction
    bug (any other exception) is raised immediately — retrying determinism
    would just raise it again.
    """
    for attempt in range(retries):
        try:
            return future.result()
        except concurrent.futures.BrokenExecutor:
            raise
        except (OSError, pickle.PicklingError, MemoryError):
            time.sleep(backoff * (2 ** attempt))
            try:
                future = pool.submit(_extract_payload, payload)
            except (RuntimeError, concurrent.futures.BrokenExecutor):
                # Pool already shutting down/broken: reassign inline.
                return _extract_payload(payload)
    try:
        return future.result()
    except concurrent.futures.BrokenExecutor:
        raise
    except (OSError, pickle.PicklingError, MemoryError):
        return _extract_payload(payload)


def _extract_fleet_shard(
    pipeline: FeaturePipeline,
    fleet: FleetArrays,
    configs: list,
    jitters: list,
    end_hour: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One shard's ``(X, y, times, per-DIMM sample counts)``.

    Module-level (not a method) so process-pool workers can unpickle it;
    the payload ships only columnar arrays, configs and the pre-drawn
    thinning jitters.
    """
    labeling = pipeline.config.labeling
    sampling = pipeline.config.sampling
    ts_parts: list[np.ndarray] = []
    seg_parts: list[np.ndarray] = []
    for i in range(fleet.n_dimms):
        times_i = fleet.times[fleet.ce_offsets[i] : fleet.ce_offsets[i + 1]]
        candidates = choose_sample_times(
            times_i,
            sampling.max_samples_per_dimm,
            sampling.min_history_ces,
            None,
            jitter=jitters[i],
        )
        if candidates.size == 0:
            continue
        ts_parts.append(np.asarray(candidates, dtype=float))
        seg_parts.append(np.full(candidates.size, i, dtype=np.int64))

    n_features = len(pipeline.feature_names())
    if not ts_parts:
        return (
            np.empty((0, n_features)),
            np.empty(0, dtype=int),
            np.empty(0, dtype=float),
            np.zeros(fleet.n_dimms, dtype=np.int64),
        )
    ts = np.concatenate(ts_parts)
    seg = np.concatenate(seg_parts)
    mask = valid_sample_mask_fleet(ts, fleet.ue_hours[seg], end_hour, labeling)
    ts = ts[mask]
    seg = seg[mask]
    y = labels_at_fleet(ts, fleet.ue_hours[seg], labeling)
    X = pipeline.transform_fleet(fleet, configs, ts, seg)
    counts = np.bincount(seg, minlength=fleet.n_dimms)
    return X, y, ts, counts
