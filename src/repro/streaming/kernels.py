"""Batched numpy replay kernels: the columnar fast path under replay.

The replay core's per-event walk
(:class:`~repro.fleetops.engine.FleetReplayEngine`) pays a Python loop
iteration — dict lookups, deque rotations, per-field appends — for every
record in the stream.  This module amortises that cost into column-wise
fleet-state updates: one :class:`ReplayKernel` per platform rebuilds the
whole campaign's per-DIMM windowed state as struct-of-arrays numpy tables
and precomputes every candidate CE's feature vector in a handful of
vectorized passes, so the replay loop shrinks to the *decisions* that are
inherently sequential (rescore throttling, incident blocking, micro-batch
flush boundaries, alarm-vs-failure ordering).

How it stays bit-for-bit exact
------------------------------

A replayed stream is globally time-sorted with the ``CE < UE < event`` tie
order of ``iter_stream``.  The incremental state a CE is served from is
therefore a *stream prefix*: the CEs of its DIMM since the last UE (a UE
pops the DIMM's state), the storms/repairs of that epoch that arrived
strictly before it, and the fitted (static) environment index.

* **Epoch segmentation** — every CE is assigned to a ``(dimm, UE-epoch)``
  segment: ``epoch = #{same-DIMM UEs with t_ue < t_ce}`` (a UE at exactly
  ``t_ce`` sorts *after* the CE, so strict comparison is exact).  Storms
  and repairs use ``#{t_ue <= t_ev}`` — events sort after UEs on ties.
  The segments are materialised as a
  :class:`~repro.telemetry.columnar.FleetArrays` in stream order, so the
  whole vectorized feature layer of the offline fleet engine applies.
* **Prefix-exact window ends** — instead of ``searchsorted(times, t+EPS)``
  (which would see same-timestamp CEs arriving *later* in the stream),
  the window end index is the CE's own position + 1 within its segment.
  Every extractor consumes ``[lo, hi)`` member indices, so this one
  substitution makes the batch computation equal
  ``FeaturePipeline.transform_one`` on the arrival prefix, bit for bit —
  including the int64 cell-key wrap in the spatial extractor.
* **Window starts** — resolved per window length by one fleet-wide
  :func:`~repro.telemetry.columnar.segmented_searchsorted` (exact integer
  keys and one ``np.searchsorted``: identical float comparisons to
  per-DIMM ``np.searchsorted``).
* **One pass over every candidate** — within a segment both ends of the
  windows grow with the query's position, so the extractors'
  ``compute_batch`` answer every window from per-CE quantities of the
  stream-ordered fleet plus O(1) gathers, never expanding a window into
  its members.  :class:`ReplayKernel` therefore runs them once per
  candidate on the first flush (over segment-aligned chunks of
  :class:`PrefixWindows`, which bounds their memory); a flush is then a
  row gather.
* **Arrival-exact storm/repair bounds** — a storm or repair logged at
  exactly ``t`` sorts *after* the CE (tie order), so the per-event state
  has not seen it when the CE is served; :class:`PrefixWindows` therefore
  bounds event-count queries at ``t`` instead of the offline ``t + EPS``.
* **Reference** — :meth:`ReplayKernel.reference_for_query` is
  ``transform_one`` on the reconstructed arrival prefix; it backs
  ``verify_parity`` on the batched engine, and ``engine="per_event"``
  remains the always-available full reference implementation.

Everything else (environment features ride the *fitted* server index;
static features are time-invariant per config) is prefix-independent by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.features.windows import DimmHistory, FleetWindows
from repro.telemetry.columnar import (
    CE_DIMM,
    CE_SERVER,
    CE_T,
    EV_DIMM,
    EV_KIND,
    EV_T,
    REPAIR_CODES,
    STORM_CODE,
    UE_DIMM,
    UE_T,
    FleetArrays,
    segmented_searchsorted,
)

#: Queries per extractor pass while a kernel fills its feature cache: the
#: passes' intermediates grow with the chunk, not with the campaign.
CACHE_CHUNK_QUERIES = 16_384


class PrefixWindows(FleetWindows):
    """:class:`FleetWindows` ending at each query's arrival prefix.

    The offline fleet pass derives ``hi`` from ``searchsorted(t + EPS)``;
    replay needs the *arrival prefix* instead — the query CE's stream
    position + 1 within its segment — so same-timestamp CEs that arrive
    later are excluded exactly as the per-event state excludes them.
    Storms and repairs at exactly ``t`` sort after the CE, so event counts
    are bounded at ``t``, not ``t + EPS``.
    """

    def __init__(
        self,
        fleet: FleetArrays,
        ts: np.ndarray,
        sample_seg: np.ndarray,
        hi: np.ndarray,
    ):
        self.history = fleet
        self.ts = np.asarray(ts, dtype=float)
        self.sample_seg = np.asarray(sample_seg, dtype=np.int64)
        self.ends = self.ts
        self._base = fleet.ce_offsets[self.sample_seg]
        self.hi = np.asarray(hi, dtype=np.int64)
        self._lo: dict[float, np.ndarray] = {}


class ReplayKernel:
    """Precomputed columnar replay state for ONE platform's campaign.

    Builds, from the raw :class:`~repro.telemetry.columnar.TelemetryColumns`
    tables, everything the batched replay loop needs in O(sort) vectorized
    passes:

    * ``eligible`` / ``row_of`` — per CE-table row: is it a scoring
      candidate (``>= min_ces`` CEs in its epoch, past ``live_from_hour``,
      config known), and its query row for :meth:`features_for`;
    * :meth:`features_for` — the feature matrix of any set of candidate
      rows, bit-for-bit what ``IncrementalFeatureExtractor.serve`` would
      return at each candidate CE — computed for every candidate in one
      pass on the first call, so a replay that never scores pays nothing;
    * ``ue_predictable`` — per UE-table row, the per-event engine's
      ``state is not None and len(state.times) >= min_ces`` flag, derived
      from per-epoch CE/event counts.

    The sequential decisions (rescore gate, incident blocking, flush
    boundaries) stay in the engine's loop — the kernel is pure state.
    """

    def __init__(
        self,
        pipeline,
        columns,
        configs: dict,
        *,
        min_ces_before_scoring: int = 2,
        live_from_hour: float = 0.0,
    ):
        self.pipeline = pipeline
        self.min_ces = int(min_ces_before_scoring)
        self.live_from = float(live_from_hour)

        ce_rows = columns.ces.rows()
        ue_rows = columns.ues.rows()
        ev_rows = columns.events.rows()
        self.n_ce = len(ce_rows)
        self.n_ue = len(ue_rows)
        self.n_ev = len(ev_rows)
        n_codes = max(len(columns.dimms), 1)

        self.ce_times = np.ascontiguousarray(ce_rows[:, CE_T]) if self.n_ce \
            else np.empty(0)
        self.ce_codes = (
            ce_rows[:, CE_DIMM].astype(np.int64)
            if self.n_ce else np.empty(0, dtype=np.int64)
        )
        self.ue_times = np.ascontiguousarray(ue_rows[:, UE_T]) if self.n_ue \
            else np.empty(0)
        self.ue_codes = (
            ue_rows[:, UE_DIMM].astype(np.int64)
            if self.n_ue else np.empty(0, dtype=np.int64)
        )
        ev_times = ev_rows[:, EV_T] if self.n_ev else np.empty(0)
        ev_codes = (
            ev_rows[:, EV_DIMM].astype(np.int64)
            if self.n_ev else np.empty(0, dtype=np.int64)
        )
        ev_kinds = (
            ev_rows[:, EV_KIND].astype(np.int64)
            if self.n_ev else np.empty(0, dtype=np.int64)
        )

        end_candidates = [
            float(a.max()) for a in (self.ce_times, self.ue_times, ev_times)
            if a.size
        ]
        self.end_hour = max(end_candidates, default=0.0)

        # -- per-DIMM UE timeline (epoch boundaries) -----------------------
        ue_sort = np.lexsort((self.ue_times, self.ue_codes))
        ue_sorted_t = self.ue_times[ue_sort]
        ue_counts = np.bincount(self.ue_codes, minlength=n_codes)
        ue_offsets = np.zeros(n_codes + 1, dtype=np.int64)
        np.cumsum(ue_counts, out=ue_offsets[1:])
        #: Epoch multiplier: (dimm, epoch) -> unique int64 key.
        mult = self.n_ue + 2

        # -- CE epoch assignment + stream-ordered segmentation -------------
        if self.n_ce:
            ce_epoch = segmented_searchsorted(
                ue_sorted_t, ue_offsets, self.ce_times, self.ce_codes
            )
            ce_key = self.ce_codes * mult + ce_epoch
            # Stable (key, time) sort: within a segment, CEs land in stream
            # order (time, then CE-table position — the merge's tie order).
            seg_order = np.lexsort((self.ce_times, ce_key))
            sorted_keys = ce_key[seg_order]
            new_seg = np.empty(self.n_ce, dtype=bool)
            new_seg[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_seg[1:])
            seg_ids_sorted = np.cumsum(new_seg) - 1
            seg_starts = np.flatnonzero(new_seg)
            n_segs = seg_starts.size
            ce_offsets = np.empty(n_segs + 1, dtype=np.int64)
            ce_offsets[:-1] = seg_starts
            ce_offsets[-1] = self.n_ce
            uniq_keys = sorted_keys[seg_starts]
        else:
            seg_order = np.empty(0, dtype=np.int64)
            seg_ids_sorted = np.empty(0, dtype=np.int64)
            seg_starts = np.empty(0, dtype=np.int64)
            n_segs = 0
            ce_offsets = np.zeros(1, dtype=np.int64)
            uniq_keys = np.empty(0, dtype=np.int64)
        self._seg_order = seg_order
        self._seg_ids_sorted = seg_ids_sorted
        self.n_segs = n_segs

        #: CE-table row -> segment / global (stream-sorted) position.
        self.seg_of_ce = np.empty(self.n_ce, dtype=np.int64)
        self.seg_of_ce[seg_order] = seg_ids_sorted
        self._gpos_of_ce = np.empty(self.n_ce, dtype=np.int64)
        self._gpos_of_ce[seg_order] = np.arange(self.n_ce)

        # -- event epoch assignment (events sort after UEs on time ties) ---
        if self.n_ev:
            ev_epoch = segmented_searchsorted(
                ue_sorted_t, ue_offsets,
                np.nextafter(ev_times, np.inf), ev_codes,
            )
            ev_key = ev_codes * mult + ev_epoch
        else:
            ev_key = np.empty(0, dtype=np.int64)
        if self.n_ev and n_segs:
            pos = np.searchsorted(uniq_keys, ev_key)
            pos_c = np.minimum(pos, n_segs - 1)
            in_seg = uniq_keys[pos_c] == ev_key
        else:
            pos_c = np.empty(0, dtype=np.int64)
            in_seg = np.zeros(self.n_ev, dtype=bool)

        def _event_segments(keep: np.ndarray):
            mask = in_seg & keep
            seg = pos_c[mask[: pos_c.size]] if pos_c.size else np.empty(
                0, dtype=np.int64
            )
            times = ev_times[mask]
            order = np.lexsort((times, seg))
            offsets = np.zeros(n_segs + 1, dtype=np.int64)
            np.cumsum(np.bincount(seg, minlength=n_segs), out=offsets[1:])
            return np.ascontiguousarray(times[order]), offsets

        storm_times, storm_offsets = _event_segments(ev_kinds == STORM_CODE)
        repair_times, repair_offsets = _event_segments(
            np.isin(ev_kinds, list(REPAIR_CODES))
        )

        # -- segment metadata ----------------------------------------------
        dimm_name = columns.dimms.name
        server_name = columns.servers.name
        if n_segs:
            first_rows = seg_order[seg_starts]
            seg_dimm_codes = self.ce_codes[first_rows]
            seg_server_codes = ce_rows[first_rows, CE_SERVER].astype(np.int64)
        else:
            seg_dimm_codes = np.empty(0, dtype=np.int64)
            seg_server_codes = np.empty(0, dtype=np.int64)
        self.seg_dimm_ids = [dimm_name(int(c)) for c in seg_dimm_codes]
        seg_server_ids = [server_name(int(c)) for c in seg_server_codes]
        self.seg_configs = [configs.get(d) for d in self.seg_dimm_ids]
        config_ok = np.fromiter(
            (c is not None for c in self.seg_configs), dtype=bool,
            count=n_segs,
        ) if n_segs else np.empty(0, dtype=bool)

        # -- the stream-ordered fleet view ---------------------------------
        perm = ce_rows[seg_order] if self.n_ce else ce_rows.reshape(0, 13)

        def col(i, dtype=None):
            column = perm[:, i]
            if dtype is not None:
                return column.astype(dtype)
            return np.ascontiguousarray(column)

        self.fleet = FleetArrays(
            dimm_ids=self.seg_dimm_ids,
            server_ids=seg_server_ids,
            times=col(0),
            dq_count=col(1),
            beat_count=col(2),
            dq_interval=col(3),
            beat_interval=col(4),
            n_devices=col(5),
            error_bits=col(6),
            rows=col(7, np.int64),
            columns=col(8, np.int64),
            banks=col(9, np.int64),
            devices=col(10, np.int64),
            ce_offsets=ce_offsets,
            storm_times=storm_times,
            storm_offsets=storm_offsets,
            repair_times=repair_times,
            repair_offsets=repair_offsets,
            ue_hours=np.full(n_segs, np.nan),
        )

        # -- candidate mask (stream-sorted space) --------------------------
        times_sorted = self.fleet.times
        if self.n_ce:
            pos_in_seg = np.arange(self.n_ce) - np.repeat(
                seg_starts, np.diff(ce_offsets)
            )
            elig_sorted = (
                (pos_in_seg + 1 >= self.min_ces)
                & (times_sorted >= self.live_from)
                & config_ok[seg_ids_sorted]
            )
        else:
            elig_sorted = np.empty(0, dtype=bool)
        self._q_pos = np.flatnonzero(elig_sorted)
        self._q_ts = times_sorted[self._q_pos]
        self._q_seg = seg_ids_sorted[self._q_pos]
        self._q_hi = self._q_pos + 1
        n_q = self._q_pos.size

        #: CE-table masks / feature-row map the replay loop consumes.
        table_idx = seg_order[self._q_pos]
        self.eligible = np.zeros(self.n_ce, dtype=bool)
        self.eligible[table_idx] = True
        self.row_of = np.full(self.n_ce, -1, dtype=np.int64)
        self.row_of[table_idx] = np.arange(n_q)

        # -- per-UE predictability (per-event state reconstruction) --------
        if self.n_ue:
            sorted_ranks = np.arange(self.n_ue) - ue_offsets[
                self.ue_codes[ue_sort]
            ]
            ue_rank = np.empty(self.n_ue, dtype=np.int64)
            ue_rank[ue_sort] = sorted_ranks
            ue_key = self.ue_codes * mult + ue_rank
            if n_segs:
                p = np.searchsorted(uniq_keys, ue_key)
                p_c = np.minimum(p, n_segs - 1)
                has_ces = uniq_keys[p_c] == ue_key
                ce_cnt = np.where(has_ces, np.diff(ce_offsets)[p_c], 0)
            else:
                ce_cnt = np.zeros(self.n_ue, dtype=np.int64)
            if self.n_ev:
                # Any event (storm, repair, suppression, ...) instantiates
                # per-event state, so count them all.
                ev_key_sorted = np.sort(ev_key)
                ev_cnt = (
                    np.searchsorted(ev_key_sorted, ue_key, side="right")
                    - np.searchsorted(ev_key_sorted, ue_key, side="left")
                )
            else:
                ev_cnt = np.zeros(self.n_ue, dtype=np.int64)
            self.ue_predictable = (ce_cnt >= self.min_ces) & (
                (ce_cnt > 0) | (ev_cnt > 0)
            )
        else:
            self.ue_predictable = np.empty(0, dtype=bool)

        self.n_features = len(pipeline.feature_names())
        self._table: list | None = None

    # -- feature computation ------------------------------------------------

    def _ensure_table(self) -> None:
        """Compute every query's feature row once.

        The extractors run over contiguous query chunks, each cut at a
        segment end so it is a fleet shard: transient memory stays bounded
        by :data:`CACHE_CHUNK_QUERIES`, not by the campaign.  Columns are
        cached in the narrowest dtype that holds them exactly (most are
        small counts and flags), a fraction of a float64 matrix.
        """
        if self._table is not None:
            return
        pipeline = self.pipeline
        fleet = self.fleet
        env_codes = np.fromiter(
            (
                pipeline.environment.server_code(s)
                for s in fleet.server_ids
            ),
            dtype=np.int64,
            count=self.n_segs,
        )
        n_q = self._q_ts.size
        own_5d = np.empty(n_q)
        parts = []
        start = 0
        while start < n_q:
            end = int(np.searchsorted(
                self._q_seg,
                self._q_seg[min(start + CACHE_CHUNK_QUERIES, n_q) - 1],
                side="right",
            ))
            first, last = self._q_seg[start], self._q_seg[end - 1]
            q_ts, q_seg = self._q_ts[start:end], self._q_seg[start:end]
            windows = PrefixWindows(
                fleet.shard(first, last + 1),
                q_ts,
                q_seg - first,
                self._q_hi[start:end] - fleet.ce_offsets[first],
            )
            temporal = pipeline.temporal.compute_batch(windows)
            own_5d[start:end] = temporal[:, 3]
            blocks = (
                temporal,
                pipeline.spatial.compute_batch(windows),
                pipeline.bitlevel.compute_batch(windows),
            )
            parts.append([_narrow(c) for block in blocks for c in block.T])
            start = end
        # Chunks come in query order; concatenation widens a column where
        # chunks disagree (uint8 < uint16 < float64, all exact).
        columns = [np.concatenate(pieces) for pieces in zip(*parts)]
        del parts
        # Environment features ride the fitted server index and the 5-day
        # own-CE count (temporal column 3), as in transform_fleet.
        environment = pipeline.environment.compute_fleet(
            env_codes[self._q_seg], own_5d, self._q_ts
        )
        columns += [_narrow(c) for c in environment.T]
        groups: dict = {}
        for j, column in enumerate(columns):
            groups.setdefault(column.dtype, []).append(j)
        self._table = [
            (np.asarray(cols), np.column_stack([columns[j] for j in cols]))
            for cols in groups.values()
        ]
        # Static rows per segment (configs are time-invariant); segments
        # without a config never produce candidates, so zeros are inert.
        self._static_rows = np.zeros(
            (self.n_segs, len(pipeline.static.names()))
        )
        ok = [i for i, c in enumerate(self.seg_configs) if c is not None]
        if ok:
            self._static_rows[ok] = pipeline.static.compute_rows(
                [self.seg_configs[i] for i in ok]
            )

    def features_for(
        self, rows: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Feature matrix for candidate ``rows`` (indices into query space).

        The first call computes every candidate's row (:meth:`_ensure_table`);
        each call is then a row gather.  ``out`` (shape ``(len(rows),
        n_features)``) lets callers reuse a flush buffer.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        if out is None:
            out = np.empty((n, self.n_features))
        if not n:
            return out
        self._ensure_table()
        for cols, table in self._table:
            out[:, cols] = table[rows]
        static = self._static_rows
        out[:, self.n_features - static.shape[1] :] = static[
            self._q_seg[rows]
        ]
        return out

    # -- exact reference ----------------------------------------------------

    def _prefix_history(self, gpos: int) -> DimmHistory:
        """The arrival-prefix :class:`DimmHistory` of stream position ``gpos``."""
        fleet = self.fleet
        seg = int(self._seg_ids_sorted[gpos])
        lo = int(fleet.ce_offsets[seg])
        hi = gpos + 1
        t = float(fleet.times[gpos])

        def arrived(times: np.ndarray, offsets: np.ndarray) -> np.ndarray:
            segment = times[offsets[seg] : offsets[seg + 1]]
            # Events at exactly t sort after the CE — strictly-before only.
            return segment[: np.searchsorted(segment, t, side="left")]

        return DimmHistory(
            dimm_id=self.seg_dimm_ids[seg],
            server_id=fleet.server_ids[seg],
            times=fleet.times[lo:hi],
            dq_count=fleet.dq_count[lo:hi],
            beat_count=fleet.beat_count[lo:hi],
            dq_interval=fleet.dq_interval[lo:hi],
            beat_interval=fleet.beat_interval[lo:hi],
            n_devices=fleet.n_devices[lo:hi],
            error_bits=fleet.error_bits[lo:hi],
            rows=fleet.rows[lo:hi],
            columns=fleet.columns[lo:hi],
            banks=fleet.banks[lo:hi],
            devices=fleet.devices[lo:hi],
            storm_times=arrived(fleet.storm_times, fleet.storm_offsets),
            repair_times=arrived(fleet.repair_times, fleet.repair_offsets),
        )

    def reference_for_query(self, query_row: int) -> np.ndarray:
        """``transform_one`` on the arrival prefix of candidate ``query_row``.

        This is the same reference the per-event engine's ``verify_parity``
        checks against (``transform_one(state.history_view(), config, t)``)
        — used for batched-mode parity verification.
        """
        gpos = int(self._q_pos[query_row])
        seg = int(self._q_seg[query_row])
        return self.pipeline.transform_one(
            self._prefix_history(gpos),
            self.seg_configs[seg],
            float(self._q_ts[query_row]),
        )


def _narrow(column: np.ndarray) -> np.ndarray:
    """A copy of float64 ``column`` as uint8 or uint16 where that holds
    every value exactly, else as float64."""
    if column.min() >= 0 and column.max() <= 65535:
        narrow = column.astype(np.uint8 if column.max() <= 255 else np.uint16)
        if np.array_equal(narrow, column):
            return narrow
    return column.copy()
