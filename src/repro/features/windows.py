"""Per-DIMM history in array form for fast windowed feature extraction.

The feature extractors slice a DIMM's CE/event history by time window many
times per sample; :class:`DimmHistory` stores everything as sorted numpy
arrays so each slice is two binary searches.

Three batch-era companions live here as well:

* :class:`FleetWindows` precomputes, once per batch of (DIMM, sample-time)
  pairs over a whole fleet's concatenated histories, the window boundary
  indices every extractor needs — one fleet-wide segmented search per
  distinct boundary array — so the vectorized ``compute_batch`` paths
  replace per-sample slicing with cumulative-sum / segment aggregations
  over shared indices.
* :class:`SpatialRanks` ranks the spatial extractor's DRAM-hierarchy keys
  once per history, so a batch of windows needs one sort of packed
  ``(sample, rank)`` integer keys per hierarchy side.
* :class:`AppendableDimmHistory` grows amortised-O(1) per record (doubling
  buffers) and hands out zero-copy :class:`DimmHistory` views, so streaming
  consumers stop rebuilding every array from raw records on each CE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.columnar import FleetArrays, segmented_searchsorted
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord

#: Observation sub-windows (hours) used by the temporal extractor; the
#: paper's feature store materialises CE statistics at several intervals.
SUB_WINDOWS_HOURS = (1.0, 6.0, 24.0, 120.0)

#: Inclusive-end slack: windows end at ``t + EPS`` so the CE that triggered
#: a sample at time ``t`` is part of its own observation window.
EPS = 1e-9

#: Memory events that count as repair actions.
REPAIR_KINDS = (
    MemEventKind.PAGE_OFFLINE,
    MemEventKind.ROW_SPARED,
    MemEventKind.BANK_SPARED,
    MemEventKind.PCLS_APPLIED,
)


@dataclass
class DimmHistory:
    """Sorted array view of one DIMM's telemetry."""

    dimm_id: str
    server_id: str
    times: np.ndarray  # CE timestamps (hours), sorted
    dq_count: np.ndarray
    beat_count: np.ndarray
    dq_interval: np.ndarray
    beat_interval: np.ndarray
    n_devices: np.ndarray
    error_bits: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    banks: np.ndarray
    devices: np.ndarray  # primary (worst) device per CE
    storm_times: np.ndarray
    repair_times: np.ndarray  # page offline + sparing events

    @classmethod
    def from_records(
        cls,
        dimm_id: str,
        ces: list[CERecord],
        events: list[MemEventRecord],
    ) -> "DimmHistory":
        ces = sorted(ces, key=lambda ce: ce.timestamp_hours)
        server_id = ces[0].server_id if ces else ""
        storm_times = sorted(
            e.timestamp_hours for e in events if e.kind is MemEventKind.CE_STORM
        )
        repair_times = sorted(
            e.timestamp_hours for e in events if e.kind in REPAIR_KINDS
        )
        # One pass over the records; a single (n, 11) array split into
        # columns is much cheaper than eleven per-field comprehensions.
        table = np.array(
            [
                (
                    ce.timestamp_hours,
                    ce.dq_count,
                    ce.beat_count,
                    ce.dq_interval,
                    ce.beat_interval,
                    len(ce.devices),
                    ce.error_bit_count,
                    ce.row,
                    ce.column,
                    ce.bank,
                    ce.devices[0] if ce.devices else 0,
                )
                for ce in ces
            ],
            dtype=float,
        ).reshape(len(ces), 11)
        return cls(
            dimm_id=dimm_id,
            server_id=server_id,
            times=table[:, 0].copy(),
            dq_count=table[:, 1].copy(),
            beat_count=table[:, 2].copy(),
            dq_interval=table[:, 3].copy(),
            beat_interval=table[:, 4].copy(),
            n_devices=table[:, 5].copy(),
            error_bits=table[:, 6].copy(),
            rows=table[:, 7].astype(np.int64),
            columns=table[:, 8].astype(np.int64),
            banks=table[:, 9].astype(np.int64),
            devices=table[:, 10].astype(np.int64),
            storm_times=np.asarray(storm_times, dtype=float),
            repair_times=np.asarray(repair_times, dtype=float),
        )

    def window(self, start_hour: float, end_hour: float) -> slice:
        """Index slice of CEs with timestamps in ``[start, end)``."""
        lo = int(np.searchsorted(self.times, start_hour, side="left"))
        hi = int(np.searchsorted(self.times, end_hour, side="left"))
        return slice(lo, hi)

    def count_in(self, start_hour: float, end_hour: float) -> int:
        sl = self.window(start_hour, end_hour)
        return sl.stop - sl.start

    def storms_in(self, start_hour: float, end_hour: float) -> int:
        lo = int(np.searchsorted(self.storm_times, start_hour, side="left"))
        hi = int(np.searchsorted(self.storm_times, end_hour, side="left"))
        return hi - lo

    def repairs_in(self, start_hour: float, end_hour: float) -> int:
        lo = int(np.searchsorted(self.repair_times, start_hour, side="left"))
        hi = int(np.searchsorted(self.repair_times, end_hour, side="left"))
        return hi - lo

    @property
    def first_ce_hour(self) -> float | None:
        return float(self.times[0]) if self.times.size else None

    def __len__(self) -> int:
        return int(self.times.size)


def as_dimm_history(history) -> DimmHistory:
    """Accept either a :class:`DimmHistory` or anything with a ``view()``."""
    view = getattr(history, "view", None)
    return view() if callable(view) else history


class FleetWindows:
    """Shared window indices for a batch of samples over a whole fleet.

    ``fleet`` is a :class:`repro.telemetry.columnar.FleetArrays` — every
    DIMM's history concatenated into ragged arrays — and sample ``i``
    belongs to DIMM segment ``sample_seg[i]``.  Every extractor's
    ``compute_batch`` works off the same *global* ``(lo, hi)`` index pairs
    into the concatenated arrays: ``hi`` is resolved once, and the ``lo``
    for each distinct window length on first use (cached), each by one
    fleet-wide :func:`segmented_searchsorted`.  Window members never cross
    segment boundaries, so the (sample, CE)-pair aggregations run once
    over the whole fleet, bit-for-bit equal to per-sample ``compute``.
    """

    def __init__(
        self, fleet: FleetArrays, ts: np.ndarray, sample_seg: np.ndarray
    ):
        self.history = fleet
        self.ts = np.asarray(ts, dtype=float)
        self.sample_seg = np.asarray(sample_seg, dtype=np.int64)
        #: Window end bound (``t + EPS``), shared by every window length.
        self.ends = self.ts + EPS
        self._base = fleet.ce_offsets[self.sample_seg]
        self.hi = self._resolve(self.ends)
        self._lo: dict[float, np.ndarray] = {}
        self._pairs: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _resolve(self, boundaries: np.ndarray) -> np.ndarray:
        within = segmented_searchsorted(
            self.history.times,
            self.history.ce_offsets,
            boundaries,
            self.sample_seg,
        )
        return within + self._base

    def lo(self, window_hours: float) -> np.ndarray:
        """Start indices of the ``[t - w, t + EPS)`` windows (cached)."""
        key = float(window_hours)
        lo = self._lo.get(key)
        if lo is None:
            lo = self._resolve(self.ts - key)
            self._lo[key] = lo
        return lo

    def prefetch(self, windows_hours) -> None:
        """Resolve several window lengths with one fused segmented search."""
        missing = [
            w for w in dict.fromkeys(map(float, windows_hours))
            if w not in self._lo
        ]
        if not missing:
            return
        boundaries = np.concatenate([self.ts - w for w in missing])
        segments = np.tile(self.sample_seg, len(missing))
        found = segmented_searchsorted(
            self.history.times, self.history.ce_offsets, boundaries, segments
        )
        n = self.ts.size
        for j, w in enumerate(missing):
            self._lo[w] = found[j * n : (j + 1) * n] + self._base

    def counts(self, window_hours: float) -> np.ndarray:
        """CE counts in ``[t - w, t + EPS)`` per sample."""
        return self.hi - self.lo(window_hours)

    def expand(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flatten windows into parallel ``(sample_id, ce_index)`` arrays.

        Sample ids come out sorted, so each sample's window members form a
        contiguous segment — the layout the segment aggregations rely on.
        """
        sizes = hi - lo
        total = int(sizes.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sample_ids = np.repeat(np.arange(sizes.size), sizes)
        starts = np.cumsum(sizes) - sizes
        offsets = np.arange(total) - np.repeat(starts, sizes)
        return sample_ids, np.repeat(lo, sizes) + offsets

    def pairs(self, window_hours: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached :meth:`expand` of the ``[t - w, t + EPS)`` windows.

        The spatial and bit-level extractors work on the same observation
        window, so the flattened (sample, CE) pairs are built once and
        shared.
        """
        key = float(window_hours)
        cached = self._pairs.get(key)
        if cached is None:
            cached = self.expand(self.lo(key), self.hi)
            self._pairs[key] = cached
        return cached

    # -- history context hooks (served from cached tables by PrefixWindows) --

    def gap_array(self) -> np.ndarray:
        """Inter-arrival gaps of ``history.times`` with an ``inf`` sentinel.

        Cross-segment gaps are never read: a window's last member is
        masked.  Derived purely from the (immutable) history, so replay
        kernels serve one cached copy instead of re-deriving it for every
        micro-batch.
        """
        return np.append(np.diff(self.history.times), np.inf)

    def multi_device_prefix(self) -> np.ndarray:
        """Prefix counts of multi-device CEs (cacheable like
        :meth:`gap_array`)."""
        return prefix_sum(self.history.n_devices >= 2)

    def spatial_ranks(self) -> "SpatialRanks":
        """Dense ranks of the history's spatial keys (cacheable like
        :meth:`gap_array`)."""
        return SpatialRanks.of(self.history)

    def since_first(self, observation_hours: float) -> np.ndarray:
        """Hours between each sample time and its DIMM's first CE."""
        fleet = self.history
        counts = np.diff(fleet.ce_offsets)
        if fleet.times.size:
            firsts = fleet.times[
                np.minimum(fleet.ce_offsets[:-1], fleet.times.size - 1)
            ]
        else:
            firsts = np.zeros(counts.size)
        seg = self.sample_seg
        return np.where(
            counts[seg] > 0, self.ts - firsts[seg], float(observation_hours)
        )

    def storm_counts(
        self, observation_hours: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample CE-storm counts in ``[t - w, t + EPS)`` and ``[0, t + EPS)``."""
        return self._event_counts(
            self.history.storm_times,
            self.history.storm_offsets,
            observation_hours,
            with_total=True,
        )

    def repair_counts(self, observation_hours: float) -> np.ndarray:
        """Per-sample repair-action counts in ``[t - w, t + EPS)``."""
        return self._event_counts(
            self.history.repair_times,
            self.history.repair_offsets,
            observation_hours,
            with_total=False,
        )

    def _event_counts(
        self,
        times: np.ndarray,
        offsets: np.ndarray,
        observation_hours: float,
        with_total: bool,
    ):
        n = self.ts.size
        if not times.size:
            return (np.zeros(n), np.zeros(n)) if with_total else np.zeros(n)
        queries = np.concatenate([self.ends, self.ts - observation_hours])
        segments = np.tile(self.sample_seg, 2)
        bounds = segmented_searchsorted(times, offsets, queries, segments)
        hi, lo = bounds[:n], bounds[n:]
        if not with_total:
            return hi - lo
        lo0 = segmented_searchsorted(
            times,
            offsets,
            np.zeros(offsets.size - 1),
            np.arange(offsets.size - 1),
        )
        return hi - lo, hi - lo0[self.sample_seg]


@dataclass(frozen=True)
class SpatialRanks:
    """The spatial extractor's DRAM-hierarchy keys, ranked once per history.

    Each hierarchy side pairs a *line* key (``(device, bank, row)`` for the
    row side, ``(device, bank, column)`` for the column side) with a
    *cross* coordinate (the raw column, resp. row).  ``row_pair`` /
    ``column_pair`` give each CE the dense, order-preserving rank of its
    (line key, cross) pair, so a batch of windows sorts one int64
    ``sample * n_pairs + pair`` key per side; the ``*_line`` / ``*_bank`` /
    ``*_device`` tables map a pair rank back to its line-key rank, its
    ``(device, bank)`` key and its device.  ``cell`` ranks the 4-level
    cell key.
    """

    row_pair: np.ndarray
    row_line: np.ndarray
    row_bank: np.ndarray
    row_device: np.ndarray
    column_pair: np.ndarray
    column_line: np.ndarray
    column_bank: np.ndarray
    cell: np.ndarray
    n_cells: int

    @classmethod
    def of(cls, history) -> "SpatialRanks":
        devices = history.devices.astype(np.int64)
        # The keys SpatialExtractor.compute builds with _compose, 2^20 per
        # level, one multiply per level.
        bank_keys = devices * 1_048_576 + history.banks
        row_keys = bank_keys * 1_048_576 + history.rows
        column_keys = bank_keys * 1_048_576 + history.columns
        # Known bug, kept for parity with the per-sample reference: the
        # 4-level cell key is device * 2^60 + ..., which wraps int64, so
        # devices d and d + 16 (same bank, row and column) alias into one
        # cell and inflate spatial_max_ces_one_cell / spatial_cell_fault.
        # Ranking the wrapped value keeps the alias; fixing it changes
        # feature values in every engine at once.
        cell_keys = row_keys * 1_048_576 + history.columns
        cell_values, cell = np.unique(cell_keys, return_inverse=True)

        row_pair, row_line = _pair_ranks(row_keys, history.columns)
        column_pair, column_line = _pair_ranks(column_keys, history.rows)
        return cls(
            row_pair=row_pair,
            row_line=row_line,
            row_bank=_scatter(row_pair, row_line.size, bank_keys),
            row_device=_scatter(row_pair, row_line.size, devices),
            column_pair=column_pair,
            column_line=column_line,
            column_bank=_scatter(column_pair, column_line.size, bank_keys),
            cell=cell,
            n_cells=int(cell_values.size),
        )


def _pair_ranks(
    line_keys: np.ndarray, cross: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item dense rank of ``(line key, cross)`` in lexicographic order,
    and the pair-rank -> line-key-rank table."""
    _, line = np.unique(line_keys, return_inverse=True)
    cross_values, cross_rank = np.unique(cross, return_inverse=True)
    width = max(cross_values.size, 1)
    pair_keys, pair = np.unique(
        line * width + cross_rank, return_inverse=True
    )
    return pair, pair_keys // width


def _scatter(index: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """``table[index[i]] = values[i]`` (values agree within each index)."""
    table = np.empty(size, dtype=np.int64)
    table[index] = values
    return table


def prefix_sum(values: np.ndarray) -> np.ndarray:
    """Length ``n + 1`` cumulative sum; window sums become two gathers."""
    out = np.zeros(values.size + 1, dtype=float)
    np.cumsum(values, out=out[1:])
    return out


class AppendableDimmHistory:
    """Per-DIMM history that grows amortised-O(1) per appended record.

    The streaming serving path appends each CE / memory event as it
    arrives; :meth:`view` exposes the accumulated state as a zero-copy
    :class:`DimmHistory` over the internal doubling buffers, so replay is
    linear in the number of records instead of quadratic.
    Out-of-order arrivals are tolerated: the buffers are re-sorted lazily
    on the next :meth:`view`.
    """

    _FLOAT_COLUMNS = (
        "times",
        "dq_count",
        "beat_count",
        "dq_interval",
        "beat_interval",
        "n_devices",
        "error_bits",
    )
    _INT_COLUMNS = ("rows", "columns", "banks", "devices")

    def __init__(self, dimm_id: str, server_id: str = ""):
        self.dimm_id = dimm_id
        self.server_id = server_id
        self._n = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(16, dtype=float) for name in self._FLOAT_COLUMNS
        }
        self._cols.update(
            {name: np.empty(16, dtype=np.int64) for name in self._INT_COLUMNS}
        )
        self._storms = np.empty(8, dtype=float)
        self._n_storms = 0
        self._repairs = np.empty(8, dtype=float)
        self._n_repairs = 0
        self._ces_sorted = True
        self._storms_sorted = True
        self._repairs_sorted = True
        self._view: DimmHistory | None = None

    # -- ingestion ---------------------------------------------------------

    def append(self, record) -> None:
        """Dispatch on record type (UEs end a DIMM's life; not history)."""
        if isinstance(record, CERecord):
            self.append_ce(record)
        elif isinstance(record, MemEventRecord):
            self.append_event(record)
        else:
            raise TypeError(f"cannot append {type(record)!r}")

    def append_ce(self, ce: CERecord) -> None:
        cols = self._cols
        i = self._n
        if i == cols["times"].size:
            self._grow()
            cols = self._cols
        cols["times"][i] = ce.timestamp_hours
        cols["dq_count"][i] = ce.dq_count
        cols["beat_count"][i] = ce.beat_count
        cols["dq_interval"][i] = ce.dq_interval
        cols["beat_interval"][i] = ce.beat_interval
        cols["n_devices"][i] = len(ce.devices)
        cols["error_bits"][i] = ce.error_bit_count
        cols["rows"][i] = ce.row
        cols["columns"][i] = ce.column
        cols["banks"][i] = ce.bank
        cols["devices"][i] = ce.devices[0] if ce.devices else 0
        if i and ce.timestamp_hours < cols["times"][i - 1]:
            self._ces_sorted = False
        if not self.server_id:
            self.server_id = ce.server_id
        self._n = i + 1
        self._view = None

    def append_event(self, event: MemEventRecord) -> None:
        if event.kind is MemEventKind.CE_STORM:
            self._storms, self._n_storms, self._storms_sorted = _append_time(
                self._storms, self._n_storms, self._storms_sorted,
                event.timestamp_hours,
            )
            self._view = None
        elif event.kind in REPAIR_KINDS:
            self._repairs, self._n_repairs, self._repairs_sorted = _append_time(
                self._repairs, self._n_repairs, self._repairs_sorted,
                event.timestamp_hours,
            )
            self._view = None

    def _grow(self) -> None:
        for name, buffer in self._cols.items():
            grown = np.empty(buffer.size * 2, dtype=buffer.dtype)
            grown[: self._n] = buffer[: self._n]
            self._cols[name] = grown

    # -- views -------------------------------------------------------------

    def view(self) -> DimmHistory:
        """Current state as a :class:`DimmHistory` (zero-copy slices).

        The view aliases the internal buffers: use it before the next
        append (a later append may grow or re-sort the buffers in place).
        """
        if self._view is None:
            n = self._n
            if not self._ces_sorted:
                order = np.argsort(self._cols["times"][:n], kind="stable")
                for name, buffer in self._cols.items():
                    buffer[:n] = buffer[:n][order]
                self._ces_sorted = True
            if not self._storms_sorted:
                self._storms[: self._n_storms].sort()
                self._storms_sorted = True
            if not self._repairs_sorted:
                self._repairs[: self._n_repairs].sort()
                self._repairs_sorted = True
            cols = self._cols
            self._view = DimmHistory(
                dimm_id=self.dimm_id,
                server_id=self.server_id,
                times=cols["times"][:n],
                dq_count=cols["dq_count"][:n],
                beat_count=cols["beat_count"][:n],
                dq_interval=cols["dq_interval"][:n],
                beat_interval=cols["beat_interval"][:n],
                n_devices=cols["n_devices"][:n],
                error_bits=cols["error_bits"][:n],
                rows=cols["rows"][:n],
                columns=cols["columns"][:n],
                banks=cols["banks"][:n],
                devices=cols["devices"][:n],
                storm_times=self._storms[: self._n_storms],
                repair_times=self._repairs[: self._n_repairs],
            )
        return self._view

    def __len__(self) -> int:
        return self._n


def _append_time(
    buffer: np.ndarray, n: int, was_sorted: bool, timestamp: float
) -> tuple[np.ndarray, int, bool]:
    if n == buffer.size:
        grown = np.empty(buffer.size * 2, dtype=float)
        grown[:n] = buffer[:n]
        buffer = grown
    buffer[n] = timestamp
    if n and timestamp < buffer[n - 1]:
        was_sorted = False
    return buffer, n + 1, was_sorted
