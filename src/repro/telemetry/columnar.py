"""Columnar (struct-of-arrays) backing store for telemetry records.

The fleet-level extraction engine wants every DIMM's history as numpy
arrays without ever looping over python record objects.  This module keeps
a columnar mirror of the :class:`~repro.telemetry.log_store.LogStore`
contents: one growable float64 table per record kind (CE / UE / memory
event), appended in amortized O(1) via doubling buffers, plus integer
vocabularies for DIMM and server ids.

All numeric record fields fit exactly in float64 (coordinates are < 2^20,
counts are tiny), so a single homogeneous table per kind keeps appends to
one numpy row-assignment and lets the fleet assembly below run as a
handful of whole-table numpy calls:

* :meth:`TelemetryColumns.fleet_view` lexsorts each kind once by
  ``(dimm, time)`` and returns a :class:`FleetArrays` — ragged per-DIMM
  concatenations with segment offsets, ordered by sorted DIMM id.  Every
  per-DIMM history is then a zero-copy slice of these arrays, and the
  cross-DIMM extraction pass consumes them whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

#: Column layout of the CE table.
CE_T, CE_DQ_COUNT, CE_BEAT_COUNT, CE_DQ_INTERVAL, CE_BEAT_INTERVAL = range(5)
CE_N_DEVICES, CE_ERROR_BITS, CE_ROW, CE_COLUMN, CE_BANK = range(5, 10)
CE_DEVICE0, CE_DIMM, CE_SERVER = range(10, 13)
CE_WIDTH = 13

#: Column layout of the UE table.
UE_T, UE_DIMM = range(2)
UE_WIDTH = 2

#: Column layout of the memory-event table.
EV_T, EV_DIMM, EV_KIND = range(3)
EV_WIDTH = 3

#: Integer codes of the memory-event kinds as stored in the event table
#: (public: the streaming replay engine decodes event rows with these).
KIND_CODES = {kind: code for code, kind in enumerate(MemEventKind)}
STORM_CODE = KIND_CODES[MemEventKind.CE_STORM]
REPAIR_CODES = frozenset(
    KIND_CODES[kind]
    for kind in (
        MemEventKind.PAGE_OFFLINE,
        MemEventKind.ROW_SPARED,
        MemEventKind.BANK_SPARED,
        MemEventKind.PCLS_APPLIED,
    )
)


class ColumnarTable:
    """Growable float64 row table with amortized O(1) appends."""

    def __init__(self, n_columns: int, capacity: int = 64):
        self._buffer = np.empty((capacity, n_columns), dtype=float)
        self._n = 0

    def append(self, row: tuple) -> None:
        if self._n == self._buffer.shape[0]:
            self._grow(self._n + 1)
        self._buffer[self._n] = row
        self._n += 1

    def extend(self, rows: np.ndarray) -> None:
        """Bulk-append a ``(m, n_columns)`` block in one copy."""
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            return
        needed = self._n + rows.shape[0]
        if needed > self._buffer.shape[0]:
            self._grow(needed)
        self._buffer[self._n : needed] = rows
        self._n = needed

    def _grow(self, needed: int) -> None:
        capacity = self._buffer.shape[0]
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self._buffer.shape[1]), dtype=float)
        grown[: self._n] = self._buffer[: self._n]
        self._buffer = grown

    def rows(self) -> np.ndarray:
        """View of the filled prefix (aliases the internal buffer)."""
        return self._buffer[: self._n]

    def __len__(self) -> int:
        return self._n

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ColumnarTable":
        """Adopt a ``(m, n_columns)`` block as the table's full contents.

        The block is aliased, not copied, so a read-only (memory-mapped)
        array is a valid backing store: the buffer is exactly full, so
        the first ``append``/``extend`` grows into a fresh writable
        buffer before touching any row.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(
                f"ColumnarTable.from_rows needs a 2-d block, got shape "
                f"{rows.shape}"
            )
        if rows.shape[0] == 0:
            # An empty block would leave a zero-capacity buffer that the
            # doubling ``_grow`` can never enlarge; start fresh instead.
            return cls(rows.shape[1])
        table = cls.__new__(cls)
        table._buffer = rows
        table._n = int(rows.shape[0])
        return table


class Vocabulary:
    """Interned string ids <-> dense integer codes (first-seen order)."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = len(self._names)
            self._codes[name] = code
            self._names.append(name)
        return code

    def name(self, code: int) -> str:
        return self._names[code]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    @classmethod
    def from_names(cls, names) -> "Vocabulary":
        """Rebuild a vocabulary whose code for ``names[i]`` is ``i``."""
        vocab = cls()
        for name in names:
            vocab.intern(str(name))
        if len(vocab) != len(names):
            raise ValueError("Vocabulary.from_names needs distinct names")
        return vocab


@dataclass
class FleetArrays:
    """Every fleet DIMM's telemetry as ragged (dimm, time)-sorted arrays.

    ``dimm_ids`` lists the DIMMs with at least one CE, in sorted-id order;
    segment ``i`` of each array (between ``*_offsets[i]`` and
    ``*_offsets[i + 1]``) holds DIMM ``i``'s records, time-sorted with
    ties in ingestion order — exactly the layout
    :meth:`DimmHistory.from_records` produces per DIMM.
    """

    dimm_ids: list[str]
    server_ids: list[str]  # per DIMM: server of the first CE
    # CE columns (concatenated; float except the int64 coordinates).
    times: np.ndarray
    dq_count: np.ndarray
    beat_count: np.ndarray
    dq_interval: np.ndarray
    beat_interval: np.ndarray
    n_devices: np.ndarray
    error_bits: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    banks: np.ndarray
    devices: np.ndarray
    ce_offsets: np.ndarray
    # Event segments (storms / repair actions), same ragged layout.
    storm_times: np.ndarray
    storm_offsets: np.ndarray
    repair_times: np.ndarray
    repair_offsets: np.ndarray
    #: First UE hour per DIMM (NaN when the DIMM never saw a UE).
    ue_hours: np.ndarray

    @property
    def n_dimms(self) -> int:
        return len(self.dimm_ids)

    def __len__(self) -> int:
        return int(self.times.size)

    def shard(self, lo: int, hi: int) -> "FleetArrays":
        """Sub-fleet of DIMMs ``[lo, hi)`` with re-based segment offsets.

        Array fields are zero-copy slices; this is what the sharded
        parallel build pickles out to worker processes.
        """
        ce, st, rp = self.ce_offsets, self.storm_offsets, self.repair_offsets
        return FleetArrays(
            dimm_ids=self.dimm_ids[lo:hi],
            server_ids=self.server_ids[lo:hi],
            times=self.times[ce[lo] : ce[hi]],
            dq_count=self.dq_count[ce[lo] : ce[hi]],
            beat_count=self.beat_count[ce[lo] : ce[hi]],
            dq_interval=self.dq_interval[ce[lo] : ce[hi]],
            beat_interval=self.beat_interval[ce[lo] : ce[hi]],
            n_devices=self.n_devices[ce[lo] : ce[hi]],
            error_bits=self.error_bits[ce[lo] : ce[hi]],
            rows=self.rows[ce[lo] : ce[hi]],
            columns=self.columns[ce[lo] : ce[hi]],
            banks=self.banks[ce[lo] : ce[hi]],
            devices=self.devices[ce[lo] : ce[hi]],
            ce_offsets=ce[lo : hi + 1] - ce[lo],
            storm_times=self.storm_times[st[lo] : st[hi]],
            storm_offsets=st[lo : hi + 1] - st[lo],
            repair_times=self.repair_times[rp[lo] : rp[hi]],
            repair_offsets=rp[lo : hi + 1] - rp[lo],
            ue_hours=self.ue_hours[lo:hi],
        )


def _segmented(
    table: np.ndarray,
    t_col: int,
    dimm_col: int,
    rank: np.ndarray,
    n_dimms: int,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort one kind's rows by ``(dimm rank, time)``; return offsets too."""
    if table.size:
        row_rank = rank[table[:, dimm_col].astype(np.int64)]
    else:
        row_rank = np.empty(0, dtype=np.int64)
    mask = row_rank >= 0
    if keep is not None:
        mask &= keep
    if not mask.all():
        table = table[mask]
        row_rank = row_rank[mask]
    order = np.lexsort((table[:, t_col], row_rank))
    counts = np.bincount(row_rank, minlength=n_dimms)
    offsets = np.zeros(n_dimms + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return table[order], offsets


class TelemetryColumns:
    """Columnar mirror of one campaign's telemetry (the fleet store)."""

    def __init__(self) -> None:
        self.ces = ColumnarTable(CE_WIDTH)
        self.ues = ColumnarTable(UE_WIDTH)
        self.events = ColumnarTable(EV_WIDTH)
        self.dimms = Vocabulary()
        self.servers = Vocabulary()
        self.version = 0
        self._fleet: FleetArrays | None = None
        self._fleet_version = -1

    # -- ingestion ---------------------------------------------------------

    def _ce_row(self, ce: CERecord) -> tuple:
        return (
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
            self.dimms.intern(ce.dimm_id),
            self.servers.intern(ce.server_id),
        )

    def append_ce(self, ce: CERecord) -> None:
        self.ces.append(self._ce_row(ce))
        self.version += 1

    def append_ue(self, ue: UERecord) -> None:
        self.ues.append((ue.timestamp_hours, self.dimms.intern(ue.dimm_id)))
        self.version += 1

    def append_event(self, event: MemEventRecord) -> None:
        self.events.append(
            (
                event.timestamp_hours,
                self.dimms.intern(event.dimm_id),
                KIND_CODES[event.kind],
            )
        )
        self.version += 1

    def extend_ces(self, ces: list[CERecord]) -> None:
        """Bulk ingestion: one table construction instead of per-row appends."""
        if not ces:
            return
        self.ces.extend(np.array([self._ce_row(ce) for ce in ces], dtype=float))
        self.version += 1

    def extend_ues(self, ues: list[UERecord]) -> None:
        if not ues:
            return
        self.ues.extend(
            np.array(
                [
                    (ue.timestamp_hours, self.dimms.intern(ue.dimm_id))
                    for ue in ues
                ],
                dtype=float,
            )
        )
        self.version += 1

    def extend_events(self, events: list[MemEventRecord]) -> None:
        if not events:
            return
        self.events.extend(
            np.array(
                [
                    (
                        event.timestamp_hours,
                        self.dimms.intern(event.dimm_id),
                        KIND_CODES[event.kind],
                    )
                    for event in events
                ],
                dtype=float,
            )
        )
        self.version += 1

    # -- fleet assembly ----------------------------------------------------

    def fleet_view(self) -> FleetArrays:
        """Ragged fleet arrays (cached until the next append)."""
        if self._fleet is None or self._fleet_version != self.version:
            self._fleet = self._build_fleet()
            self._fleet_version = self.version
        return self._fleet

    def _build_fleet(self) -> FleetArrays:
        ce_rows = self.ces.rows()
        ce_codes = ce_rows[:, CE_DIMM].astype(np.int64)
        with_ces = np.unique(ce_codes)
        # Fleet order is sorted DIMM id (the order build_samples iterates).
        dimm_ids = sorted(self.dimms.name(int(code)) for code in with_ces)
        rank = np.full(len(self.dimms) or 1, -1, dtype=np.int64)
        for position, dimm_id in enumerate(dimm_ids):
            rank[self.dimms.intern(dimm_id)] = position
        n = len(dimm_ids)

        sorted_ces, ce_offsets = _segmented(ce_rows, CE_T, CE_DIMM, rank, n)
        event_rows = self.events.rows()
        kinds = event_rows[:, EV_KIND].astype(np.int64)
        storms, storm_offsets = _segmented(
            event_rows, EV_T, EV_DIMM, rank, n, keep=kinds == STORM_CODE
        )
        repairs, repair_offsets = _segmented(
            event_rows, EV_T, EV_DIMM, rank, n,
            keep=np.isin(kinds, list(REPAIR_CODES)),
        )

        ue_rows = self.ues.rows()
        first_ue = np.full(n, np.inf)
        if ue_rows.size:
            ue_rank = rank[ue_rows[:, UE_DIMM].astype(np.int64)]
            known = ue_rank >= 0
            np.minimum.at(first_ue, ue_rank[known], ue_rows[known, UE_T])
        ue_hours = np.where(np.isfinite(first_ue), first_ue, np.nan)

        if n:
            server_codes = sorted_ces[ce_offsets[:-1], CE_SERVER].astype(np.int64)
            server_ids = [self.servers.name(int(code)) for code in server_codes]
        else:
            server_ids = []

        return FleetArrays(
            dimm_ids=dimm_ids,
            server_ids=server_ids,
            times=np.ascontiguousarray(sorted_ces[:, CE_T]),
            dq_count=np.ascontiguousarray(sorted_ces[:, CE_DQ_COUNT]),
            beat_count=np.ascontiguousarray(sorted_ces[:, CE_BEAT_COUNT]),
            dq_interval=np.ascontiguousarray(sorted_ces[:, CE_DQ_INTERVAL]),
            beat_interval=np.ascontiguousarray(sorted_ces[:, CE_BEAT_INTERVAL]),
            n_devices=np.ascontiguousarray(sorted_ces[:, CE_N_DEVICES]),
            error_bits=np.ascontiguousarray(sorted_ces[:, CE_ERROR_BITS]),
            rows=sorted_ces[:, CE_ROW].astype(np.int64),
            columns=sorted_ces[:, CE_COLUMN].astype(np.int64),
            banks=sorted_ces[:, CE_BANK].astype(np.int64),
            devices=sorted_ces[:, CE_DEVICE0].astype(np.int64),
            ce_offsets=ce_offsets,
            storm_times=np.ascontiguousarray(storms[:, EV_T]),
            storm_offsets=storm_offsets,
            repair_times=np.ascontiguousarray(repairs[:, EV_T]),
            repair_offsets=repair_offsets,
            ue_hours=ue_hours,
        )

    # -- serialization -----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The full store as five dense arrays (the ``.npz`` payload)."""
        return {
            "ces": np.ascontiguousarray(self.ces.rows()),
            "ues": np.ascontiguousarray(self.ues.rows()),
            "events": np.ascontiguousarray(self.events.rows()),
            "dimm_names": np.asarray(self.dimms.names(), dtype=str),
            "server_names": np.asarray(self.servers.names(), dtype=str),
        }

    def to_npz(self, path) -> None:
        """Serialize to an uncompressed ``.npz`` (ZIP_STORED, mappable)."""
        with open(path, "wb") as handle:
            np.savez(handle, **self.to_arrays())

    @classmethod
    def from_arrays(
        cls,
        ces: np.ndarray,
        ues: np.ndarray,
        events: np.ndarray,
        dimm_names,
        server_names,
    ) -> "TelemetryColumns":
        """Rebuild a store around existing (possibly mapped) tables.

        The tables are adopted without copying; vocabulary codes must
        match positions in ``dimm_names``/``server_names`` (which
        :meth:`to_arrays` guarantees).
        """
        columns = cls.__new__(cls)
        columns.ces = ColumnarTable.from_rows(
            np.asarray(ces).reshape(-1, CE_WIDTH)
        )
        columns.ues = ColumnarTable.from_rows(
            np.asarray(ues).reshape(-1, UE_WIDTH)
        )
        columns.events = ColumnarTable.from_rows(
            np.asarray(events).reshape(-1, EV_WIDTH)
        )
        columns.dimms = Vocabulary.from_names(
            [str(name) for name in np.asarray(dimm_names).tolist()]
        )
        columns.servers = Vocabulary.from_names(
            [str(name) for name in np.asarray(server_names).tolist()]
        )
        columns.version = len(columns.ces) + len(columns.ues) + len(
            columns.events
        )
        columns._fleet = None
        columns._fleet_version = -1
        return columns

    @classmethod
    def from_npz(cls, path, *, mmap: bool = False) -> "TelemetryColumns":
        """Reload :meth:`to_npz` output, bit-for-bit.

        ``mmap=True`` adopts read-only memory-mapped tables (zero-copy;
        safe for replay/extraction, which never mutate rows in place).
        """
        from repro.telemetry.npz_io import load_npz_arrays

        arrays = load_npz_arrays(path, mmap=mmap)
        return cls.from_arrays(
            arrays["ces"],
            arrays["ues"],
            arrays["events"],
            arrays["dimm_names"],
            arrays["server_names"],
        )


def segmented_searchsorted(
    values: np.ndarray,
    value_offsets: np.ndarray,
    queries: np.ndarray,
    query_segments: np.ndarray,
) -> np.ndarray:
    """``searchsorted(..., side="left")`` of each query within its segment.

    ``values`` concatenates per-segment sorted arrays (segment ``s`` lives
    in ``values[value_offsets[s]:value_offsets[s + 1]]``).  Queries carry
    their segment in ``query_segments`` and need not be sorted.  Values and
    queries are mapped to exact integer keys ``segment * (U + 1) + rank``,
    where ``rank`` is the ``side="left"`` insertion index into the ``U``
    unique values: ``v >= x`` if and only if ``rank(v) >= rank(x)``, so the
    value keys come out sorted (segments are contiguous, values sorted
    within them) and one ``np.searchsorted`` of the query keys answers
    every query.  The float comparisons are exactly those of per-segment
    ``np.searchsorted`` calls, so the result is bit-for-bit identical --
    just without the per-segment call overhead.
    """
    n_values = values.size
    n_queries = queries.size
    if n_queries == 0:
        return np.empty(0, dtype=np.int64)
    if n_values == 0:
        return np.zeros(n_queries, dtype=np.int64)
    unique = np.unique(values)
    stride = unique.size + 1
    value_segments = np.repeat(
        np.arange(value_offsets.size - 1), np.diff(value_offsets)
    )
    value_keys = value_segments * stride + np.searchsorted(unique, values)
    query_segments = np.asarray(query_segments, dtype=np.int64)
    query_keys = query_segments * stride + np.searchsorted(unique, queries)
    return (
        np.searchsorted(value_keys, query_keys)
        - value_offsets[query_segments]
    )
