"""Spatial DRAM-hierarchy features (paper Section VI: "number of faults ...
within different time intervals", fault-mode flags from the Section V
analysis)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.windows import EPS, DimmHistory, FleetWindows


class SpatialExtractor:
    """Distribution of CEs across the DRAM hierarchy in the window."""

    group = "spatial"

    def __init__(
        self,
        observation_hours: float = 120.0,
        cell_threshold: int = 2,
        line_threshold: int = 3,
        min_distinct: int = 2,
    ):
        self.observation_hours = observation_hours
        self.cell_threshold = cell_threshold
        self.line_threshold = line_threshold
        self.min_distinct = min_distinct

    def names(self) -> list[str]:
        return [
            "spatial_distinct_rows",
            "spatial_distinct_columns",
            "spatial_distinct_banks",
            "spatial_distinct_devices",
            "spatial_max_ces_one_cell",
            "spatial_max_ces_one_row",
            "spatial_max_ces_one_column",
            "spatial_cell_fault",
            "spatial_row_fault",
            "spatial_column_fault",
            "spatial_bank_fault",
            "spatial_multi_device_fault",
        ]

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        sl = history.window(t - self.observation_hours, t + EPS)
        rows = history.rows[sl]
        columns = history.columns[sl]
        banks = history.banks[sl]
        devices = history.devices[sl]
        n_devices = history.n_devices[sl]

        if rows.size == 0:
            return [0.0] * 7 + [0.0] * 5

        # Composite keys for cells / rows / columns within (device, bank).
        cell_keys = _compose(devices, banks, rows, columns)
        row_keys = _compose(devices, banks, rows)
        column_keys = _compose(devices, banks, columns)

        max_cell = _max_group_count(cell_keys)
        row_unique, row_counts = np.unique(row_keys, return_counts=True)
        column_unique, column_counts = np.unique(column_keys, return_counts=True)

        has_cell = max_cell >= self.cell_threshold

        # A row fault needs enough CEs on one row across >= min_distinct
        # columns (and symmetrically for columns).
        has_row = False
        faulty_row_banks: set[int] = set()
        for key, count in zip(row_unique, row_counts):
            if count < self.line_threshold:
                continue
            mask = row_keys == key
            if np.unique(columns[mask]).size >= self.min_distinct:
                has_row = True
                faulty_row_banks.add(int(_compose(devices[mask][:1], banks[mask][:1])[0]))
        has_column = False
        faulty_column_banks: set[int] = set()
        for key, count in zip(column_unique, column_counts):
            if count < self.line_threshold:
                continue
            mask = column_keys == key
            if np.unique(rows[mask]).size >= self.min_distinct:
                has_column = True
                faulty_column_banks.add(
                    int(_compose(devices[mask][:1], banks[mask][:1])[0])
                )
        has_bank = bool(faulty_row_banks & faulty_column_banks)
        multi_device = bool((n_devices >= 2).any())

        return [
            float(np.unique(row_keys).size),
            float(np.unique(column_keys).size),
            float(np.unique(_compose(devices, banks)).size),
            float(np.unique(devices).size),
            float(max_cell),
            float(row_counts.max()),
            float(column_counts.max()),
            float(has_cell),
            float(has_row),
            float(has_column),
            float(has_bank),
            float(multi_device),
        ]


    def compute_batch(self, windows: FleetWindows) -> np.ndarray:
        """Vectorized :meth:`compute` for every sample of ``windows``.

        Windows are flattened into (sample, CE) pairs — overlapping windows
        duplicate members, but every group statistic then reduces to sorted
        run-length segments, with no per-sample Python loops.  The keys are
        ranked once per history (:meth:`FleetWindows.spatial_ranks`), so
        each side — and the cells — is one ``np.sort`` of packed
        ``sample * n + rank`` int64 keys.
        """
        n = windows.ts.size
        out = np.zeros((n, len(self.names())), dtype=float)
        lo = windows.lo(self.observation_hours)
        hi = windows.hi
        sid, idx = windows.pairs(self.observation_hours)
        if sid.size == 0:
            return out
        ranks = windows.spatial_ranks()

        # Row-rank order is also (device, bank) order (three-level keys are
        # wrap-free), so the row side yields the distinct bank / device
        # counts without separate sorts.
        row_side = _line_side(
            sid, ranks.row_pair[idx], ranks.row_line, ranks.row_bank,
            ranks.row_device, self.line_threshold, self.min_distinct, n,
        )
        column_side = _line_side(
            sid, ranks.column_pair[idx], ranks.column_line, ranks.column_bank,
            None, self.line_threshold, self.min_distinct, n,
        )
        cells = np.sort(sid * ranks.n_cells + ranks.cell[idx])
        cell_starts = np.flatnonzero(_run_starts(cells))
        max_cell = _max_per_sample(
            cells[cell_starts] // ranks.n_cells,
            np.diff(np.append(cell_starts, cells.size)),
            n,
        )

        out[:, 0] = row_side.distinct_lines
        out[:, 1] = column_side.distinct_lines
        out[:, 2] = row_side.distinct_banks
        out[:, 3] = row_side.distinct_devices
        out[:, 4] = max_cell
        out[:, 5] = row_side.max_line
        out[:, 6] = column_side.max_line
        out[:, 7] = (max_cell >= self.cell_threshold).astype(float)
        out[:, 8] = row_side.has_fault
        out[:, 9] = column_side.has_fault
        # Bank fault: some (device, bank) hosts both a row and a column fault.
        if row_side.fault_pairs.size and column_side.fault_pairs.size:
            shared = np.intersect1d(
                row_side.fault_pairs, column_side.fault_pairs
            )
            out[shared >> 32, 10] = 1.0

        multi_cum = windows.multi_device_prefix()
        out[:, 11] = ((multi_cum[hi] - multi_cum[lo]) > 0).astype(float)
        return out


def _compose(*arrays: np.ndarray) -> np.ndarray:
    """Pack coordinate arrays into single integer keys."""
    key = arrays[0].astype(np.int64)
    for array in arrays[1:]:
        key = key * 1_048_576 + array.astype(np.int64)  # 2^20 per level
    return key


def _max_group_count(keys: np.ndarray) -> int:
    if keys.size == 0:
        return 0
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.max())


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Boolean mask of run starts in a sorted array."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _max_per_sample(
    samples: np.ndarray, values: np.ndarray, n: int
) -> np.ndarray:
    """Per-sample max of ``values`` (``samples`` sorted; absent -> 0)."""
    firsts = np.flatnonzero(_run_starts(samples))
    result = np.zeros(n)
    result[samples[firsts]] = np.maximum.reduceat(values, firsts)
    return result


@dataclass
class _LineSideStats:
    """Everything one hierarchy side yields from a single sort."""

    distinct_lines: np.ndarray
    max_line: np.ndarray
    has_fault: np.ndarray
    fault_pairs: np.ndarray
    distinct_banks: np.ndarray | None = None
    distinct_devices: np.ndarray | None = None


def _line_side(
    sid: np.ndarray,
    pair: np.ndarray,
    line_of: np.ndarray,
    bank_of: np.ndarray,
    device_of: np.ndarray | None,
    line_threshold: int,
    min_distinct: int,
    n: int,
) -> _LineSideStats:
    """Per-sample statistics of one hierarchy side (rows or columns).

    ``pair`` holds each (sample, CE) pair's (line, cross) rank; the
    ``*_of`` tables map a pair rank to its line rank, bank key and device.
    A line is faulty when it has >= ``line_threshold`` CEs across >=
    ``min_distinct`` distinct cross coordinates.  Line ranks follow the
    (device, bank)-prefixed key order, so the sorted groups are also
    grouped by bank and (when ``device_of`` is given) by device, and the
    distinct bank / device counts ride along for free.
    """
    n_pairs = line_of.size
    keys = np.sort(sid * n_pairs + pair)
    s = keys // n_pairs
    p = keys - s * n_pairs
    line = line_of[p]

    cross_start = _run_starts(keys)
    group_start = _run_starts(s)
    group_start[1:] |= line[1:] != line[:-1]

    gid = np.cumsum(group_start) - 1
    distinct_cross = np.bincount(gid[cross_start])
    starts = np.flatnonzero(group_start)
    group_counts = np.diff(np.append(starts, keys.size))
    group_sample = s[starts]
    group_pair = p[starts]

    distinct_lines = np.bincount(group_sample, minlength=n).astype(float)
    max_line = _max_per_sample(group_sample, group_counts.astype(float), n)

    has_fault = np.zeros(n)
    faulty = (group_counts >= line_threshold) & (distinct_cross >= min_distinct)
    if faulty.any():
        has_fault[group_sample[faulty]] = 1.0
        # Bank keys are two compose levels (< 2^25), so (sample << 32) |
        # bank is collision-free in int64.
        pairs = (group_sample[faulty] << 32) + bank_of[group_pair[faulty]]
    else:
        pairs = np.empty(0, dtype=np.int64)

    stats = _LineSideStats(
        distinct_lines=distinct_lines,
        max_line=max_line,
        has_fault=has_fault,
        fault_pairs=pairs,
    )
    if device_of is not None:
        sample_start = _run_starts(group_sample)
        stats.distinct_banks = _distinct_per_sample(
            group_sample, sample_start, bank_of[group_pair], n
        )
        stats.distinct_devices = _distinct_per_sample(
            group_sample, sample_start, device_of[group_pair], n
        )
    return stats


def _distinct_per_sample(
    samples: np.ndarray, sample_start: np.ndarray, values: np.ndarray, n: int
) -> np.ndarray:
    """Distinct ``values`` per sample, ``values`` sorted within each sample."""
    start = sample_start.copy()
    start[1:] |= values[1:] != values[:-1]
    return np.bincount(samples[start], minlength=n).astype(float)
