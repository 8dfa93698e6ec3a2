"""Bit-level error features: DQ/beat counts, intervals and risky patterns.

These encode the Section V / Figure 5 analysis as model features — the
distribution of error bits across DQs and beats, including the two
platform-risky signatures (2 DQs with a 4-beat interval; whole-chip-wide
patterns) and multi-device bursts.
"""

from __future__ import annotations

import numpy as np

from repro.features.windows import (
    EPS,
    DimmHistory,
    FleetWindows,
    prefix_sum,
    range_reduce,
)


class BitLevelExtractor:
    group = "bitlevel"

    def __init__(self, observation_hours: float = 120.0):
        self.observation_hours = observation_hours

    def names(self) -> list[str]:
        return [
            "bit_max_dq_count",
            "bit_mode_dq_count",
            "bit_max_beat_count",
            "bit_mode_beat_count",
            "bit_max_dq_interval",
            "bit_max_beat_interval",
            "bit_mode_beat_interval",
            "bit_risky_2dq_interval4_count",
            "bit_whole_chip_count",
            "bit_wide_dq_count",
            "bit_multi_device_ce_count",
            "bit_mean_error_bits",
            "bit_max_error_bits",
        ]

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        sl = history.window(t - self.observation_hours, t + EPS)
        dq_count = history.dq_count[sl]
        beat_count = history.beat_count[sl]
        dq_interval = history.dq_interval[sl]
        beat_interval = history.beat_interval[sl]
        n_devices = history.n_devices[sl]
        error_bits = history.error_bits[sl]

        if dq_count.size == 0:
            return [0.0] * len(self.names())

        risky_stride4 = float(np.sum((dq_count == 2) & (beat_interval == 4)))
        whole_chip = float(np.sum((dq_count == 4) & (beat_count >= 5)))
        wide_dq = float(np.sum(dq_count >= 3))

        return [
            float(dq_count.max()),
            _mode(dq_count),
            float(beat_count.max()),
            _mode(beat_count),
            float(dq_interval.max()),
            float(beat_interval.max()),
            _mode(beat_interval),
            risky_stride4,
            whole_chip,
            wide_dq,
            float(np.sum(n_devices >= 2)),
            float(error_bits.mean()),
            float(error_bits.max()),
        ]

    def compute_batch(self, windows: FleetWindows) -> np.ndarray:
        """Vectorized :meth:`compute` for every sample of ``windows``.

        No window is expanded into its members: maxima come from a sparse
        table (:func:`range_reduce`), modes from one prefix count per
        distinct value, and the conditional counts and the error-bit sum
        from prefix sums — each a gather at the window ends.
        """
        history = windows.history
        n = windows.ts.size
        out = np.zeros((n, len(self.names())), dtype=float)
        lo = windows.lo(self.observation_hours)
        hi = windows.hi
        sizes = hi - lo
        nonempty = sizes > 0
        if not nonempty.any():
            return out
        dq = history.dq_count
        beats = history.beat_count
        beat_iv = history.beat_interval
        err = history.error_bits

        for j, values in (
            (0, dq), (2, beats), (4, history.dq_interval), (5, beat_iv),
            (12, err),
        ):
            out[:, j] = range_reduce(np.maximum, values, lo, hi)
        for j, values in ((1, dq), (3, beats), (6, beat_iv)):
            out[:, j] = _window_mode(values, lo, hi)

        def window_sum(values: np.ndarray) -> np.ndarray:
            prefix = prefix_sum(values)
            return prefix[hi] - prefix[lo]

        out[:, 7] = window_sum((dq == 2) & (beat_iv == 4))
        out[:, 8] = window_sum((dq == 4) & (beats >= 5))
        out[:, 9] = window_sum(dq >= 3)
        out[:, 10] = window_sum(history.n_devices >= 2)
        # Error-bit counts are integer-valued, so the prefix-sum difference
        # is exact and the mean matches the per-sample path bit-for-bit.
        out[:, 11] = np.divide(
            window_sum(err), sizes, out=np.zeros(n), where=nonempty
        )
        return out


def _mode(values: np.ndarray) -> float:
    """Most frequent value; ties break toward the larger value."""
    unique, counts = np.unique(values, return_counts=True)
    best = np.flatnonzero(counts == counts.max())
    return float(unique[best].max())


def _window_mode(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per-window :func:`_mode` of ``values[lo:hi]`` (0 where empty).

    One prefix count per distinct value; visiting values in ascending
    order and keeping ties breaks them toward the larger value.
    """
    mode = np.zeros(lo.size)
    best = np.ones(lo.size, dtype=np.int64)
    prefix = np.zeros(values.size + 1, dtype=np.int64)
    for value in np.unique(values):
        np.cumsum(values == value, out=prefix[1:])
        count = prefix[hi] - prefix[lo]
        wins = count >= best
        mode[wins] = value
        best[wins] = count[wins]
    return mode
