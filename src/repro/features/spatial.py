"""Spatial DRAM-hierarchy features (paper Section VI: "number of faults ...
within different time intervals", fault-mode flags from the Section V
analysis)."""

from __future__ import annotations

import numpy as np

from repro.features.windows import (
    EPS,
    DimmHistory,
    FleetWindows,
    WindowChain,
    prefix_sum,
    previous_same,
    witnessed,
)


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

        No window is expanded into its members.  Each statistic rides a
        per-CE quantity of the history — the previous CE on the same key,
        or the latest window start at which the CE still completes a
        fault — so a window's answer is a gather at its ends
        (:class:`WindowChain`, :func:`witnessed`).
        """
        if self.min_distinct > 2:
            raise ValueError(
                f"compute_batch supports min_distinct <= 2, got "
                f"{self.min_distinct}"
            )
        history = windows.history
        out = np.zeros((windows.ts.size, len(self.names())))
        lo = windows.lo(self.observation_hours)
        hi = windows.hi
        if not np.any(hi > lo):
            return out
        chain = WindowChain(lo, hi, history.times.size)

        # The keys compute builds with _compose, 2^20 per level.
        devices = history.devices.astype(np.int64)
        bank_keys = devices * 1_048_576 + history.banks
        row_keys = bank_keys * 1_048_576 + history.rows
        column_keys = bank_keys * 1_048_576 + history.columns
        # Known bug, kept for parity with the per-sample reference: the
        # 4-level cell key is device * 2^60 + ..., which wraps int64, so
        # devices d and d + 16 (same bank, row and column) alias into one
        # cell and inflate spatial_max_ces_one_cell / spatial_cell_fault.
        cell_keys = row_keys * 1_048_576 + history.columns

        row_prev, row_fault = self._line_faults(row_keys, history.columns)
        column_prev, column_fault = self._line_faults(
            column_keys, history.rows
        )
        bank_order, bank_prev = previous_same(bank_keys)
        max_cell = chain.max_count(previous_same(cell_keys)[1])

        out[:, 0] = chain.distinct(row_prev)
        out[:, 1] = chain.distinct(column_prev)
        out[:, 2] = chain.distinct(bank_prev)
        out[:, 3] = chain.distinct(previous_same(devices)[1])
        out[:, 4] = max_cell
        out[:, 5] = chain.max_count(row_prev)
        out[:, 6] = chain.max_count(column_prev)
        out[:, 7] = max_cell >= self.cell_threshold
        out[:, 8] = witnessed(row_fault, lo, hi)
        out[:, 9] = witnessed(column_fault, lo, hi)
        # Bank fault: some (device, bank) hosts both a row and a column
        # fault — each side's witness, carried forward within the bank.
        out[:, 10] = witnessed(
            np.minimum(
                _running_max(row_fault, bank_order, bank_prev),
                _running_max(column_fault, bank_order, bank_prev),
            ),
            lo,
            hi,
        )
        multi = prefix_sum(history.n_devices >= 2)
        out[:, 11] = multi[hi] > multi[lo]
        return out

    def _line_faults(
        self, line_keys: np.ndarray, cross: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Previous same-line CE, and the fault witness of each CE.

        A window shows a fault on CE ``i``'s line, ending at ``i``, iff it
        starts at or before both the ``line_threshold``-th latest CE of the
        line and (for ``min_distinct`` 2) the latest line CE with another
        cross coordinate — the one just before ``i``'s run of equal cross
        coordinates in line order.
        """
        order, prev = previous_same(line_keys)
        witness = np.arange(line_keys.size)
        for _ in range(self.line_threshold - 1):
            witness = np.where(witness >= 0, prev[witness], -1)
        if self.min_distinct >= 2:
            line_start = prev[order] < 0
            run_start = line_start.copy()
            sorted_cross = cross[order]
            run_start[1:] |= sorted_cross[1:] != sorted_cross[:-1]
            first = np.maximum.accumulate(
                np.where(run_start, np.arange(order.size), 0)
            )
            other = np.empty_like(witness)
            other[order] = np.where(line_start[first], -1, order[first - 1])
            witness = np.minimum(witness, other)
        return prev, witness


def _running_max(
    values: np.ndarray, order: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    """Running max of ``values`` over each CE's own key, in history order
    (``order`` / ``prev`` from :func:`previous_same`)."""
    shift = np.cumsum(prev[order] < 0) * (values.size + 1)
    out = np.empty_like(values)
    out[order] = np.maximum.accumulate(values[order] + shift) - shift
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
