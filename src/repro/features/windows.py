"""Per-DIMM history in array form for fast windowed feature extraction.

The feature extractors slice a DIMM's CE/event history by time window many
times per sample; :class:`DimmHistory` stores everything as sorted numpy
arrays so each slice is two binary searches.

Alongside it:

* :class:`FleetWindows` resolves, once per batch of (DIMM, sample-time)
  pairs over a whole fleet's concatenated histories, the global ``[lo,
  hi)`` window bounds every extractor needs — one fleet-wide segmented
  search per distinct window length.
* The pair-free window kernels — :func:`prefix_sum`,
  :func:`range_reduce`, :func:`witnessed` and :class:`WindowChain` --
  turn per-window statistics into per-CE quantities of the history plus
  O(1) gathers per window, so the vectorized ``compute_batch`` paths
  never expand a window into its members.
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
    """Shared window bounds for a batch of samples over a whole fleet.

    ``fleet`` is a :class:`repro.telemetry.columnar.FleetArrays` — every
    DIMM's history concatenated into ragged arrays — and sample ``i``
    belongs to DIMM segment ``sample_seg[i]``.  Every extractor's
    ``compute_batch`` works off the same *global* ``[lo, hi)`` bounds into
    the concatenated arrays: ``hi`` is resolved once, and the ``lo`` for
    each distinct window length on first use (cached), each by one
    fleet-wide :func:`segmented_searchsorted`.  Window members never cross
    segment boundaries, so statistics over the global bounds are bit-for-bit
    per-sample ``compute``; samples may come in any order.
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

    def pairs(self, window_hours: float) -> tuple[np.ndarray, np.ndarray]:
        """The ``[t - w, t + EPS)`` windows flattened into parallel
        ``(sample_id, ce_index)`` arrays.

        Sample ids come out sorted and each sample's members in history
        order, so every window is one contiguous run.
        """
        lo = self.lo(window_hours)
        sizes = self.hi - lo
        sample_ids = np.repeat(np.arange(sizes.size), sizes)
        starts = np.cumsum(sizes) - sizes
        members = np.arange(sample_ids.size) - np.repeat(starts - lo, sizes)
        return sample_ids, members

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


def prefix_sum(values: np.ndarray) -> np.ndarray:
    """Length ``n + 1`` cumulative sum; window sums become two gathers."""
    out = np.zeros(values.size + 1, dtype=float)
    np.cumsum(values, out=out[1:])
    return out


def range_reduce(
    ufunc: np.ufunc, values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """``ufunc.reduce(values[lo:hi])`` per window (0 where empty).

    A sparse table: level ``k`` holds the reduction of every run of
    ``2^k`` values, so any window is the reduction of the two (possibly
    overlapping) runs that start at ``lo`` and end at ``hi``.  Exact for
    an idempotent ``ufunc`` such as ``np.maximum`` / ``np.minimum``.
    """
    sizes = np.maximum(hi - lo, 0)
    out = np.zeros(sizes.size, dtype=values.dtype)
    nonempty = np.flatnonzero(sizes)
    if not nonempty.size:
        return out
    level = np.frexp(sizes[nonempty].astype(float))[1] - 1  # floor(log2)
    n = values.size
    table = np.empty((int(level.max()) + 1, n), dtype=values.dtype)
    table[0] = values
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)
        ufunc(table[k - 1, : n - 2 * half + 1],
              table[k - 1, half : n - half + 1],
              out=table[k, : n - 2 * half + 1])
    out[nonempty] = ufunc(
        table[level, lo[nonempty]], table[level, hi[nonempty] - (1 << level)]
    )
    return out


def previous_same(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable key order, and each item's previous same-key position (-1:
    none)."""
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    prev = np.full(keys.size, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return order, prev


def witnessed(first: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per window: does some member ``i`` have ``first[i] >= lo``?

    ``first[i] <= i`` is the latest window start from which member ``i``
    still completes a pattern (-1: never).  Members before ``lo`` cannot
    reach ``lo``, so a prefix max over ``[0, hi)`` answers every window.
    """
    if not first.size:
        return np.zeros(lo.size, dtype=bool)
    reach = np.maximum.accumulate(first)
    return (hi > lo) & (reach[np.maximum(hi - 1, 0)] >= lo)


class WindowChain:
    """Windows ``[lo, hi)`` in an order where both ends never decrease.

    Within a history segment both ends grow with the sample time, and
    every index of an earlier segment is below every later one, so any set
    of equal-length windows over a fleet sorts (by ``hi``, then ``lo``)
    into such a chain — with no per-segment resets.  Chain order turns
    per-window key statistics into per-item work: item ``i`` lies in the
    contiguous run of windows ``[enter[i], leave[i])``.  Results come back
    in the caller's window order.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n_items: int):
        self.order = np.lexsort((lo, hi))
        self.lo = lo[self.order]
        self.hi = hi[self.order]
        if np.any(self.lo[1:] < self.lo[:-1]):
            raise ValueError("windows do not form a chain")
        items = np.arange(n_items)
        self.enter = np.searchsorted(self.hi, items, side="right")
        self.leave = np.searchsorted(self.lo, items, side="right")

    def _unsort(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[self.order] = values
        return out

    def distinct(self, prev: np.ndarray) -> np.ndarray:
        """Distinct keys per window, from :func:`previous_same`'s ``prev``.

        Item ``i`` is the first of its key in exactly the windows with
        ``prev[i] < lo <= i < hi``: a contiguous run, so one difference
        array counts them all.
        """
        start = np.maximum(
            np.searchsorted(self.lo, prev, side="right"), self.enter
        )
        keep = start < self.leave
        size = self.lo.size + 1
        steps = np.bincount(start[keep], minlength=size) - np.bincount(
            self.leave[keep], minlength=size
        )
        return self._unsort(np.cumsum(steps[:-1]))

    def max_count(self, prev: np.ndarray) -> np.ndarray:
        """Largest number of same-key items per window.

        A window holds ``m`` items of one key iff some member's
        ``(m - 1)``-th previous same-key item is still inside it
        (:func:`witnessed`); ``m`` climbs until no window does.  An item is
        dropped once its ``m``-th predecessor falls before the earliest
        window holding it.
        """
        lo, hi = self.lo, self.hi
        best = np.zeros(lo.size, dtype=np.int64)
        pos = np.flatnonzero(self.enter < self.leave)
        floor = lo[self.enter[pos]]
        back = pos
        active = np.flatnonzero(hi > lo)
        m = 0
        while active.size:
            m += 1
            best[active] = m
            back = prev[back]
            keep = back >= floor
            pos, back, floor = pos[keep], back[keep], floor[keep]
            if not pos.size:
                break
            reach = np.maximum.accumulate(back)
            last = np.searchsorted(pos, hi[active] - 1, side="right") - 1
            hit = last >= 0
            hit[hit] = reach[last[hit]] >= lo[active[hit]]
            active = active[hit]
        return self._unsort(best)


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
