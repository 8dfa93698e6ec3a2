"""Temporal CE features (counts, rates, recency, storminess)."""

from __future__ import annotations

import numpy as np

from repro.features.windows import (
    EPS,
    SUB_WINDOWS_HOURS,
    DimmHistory,
    FleetWindows,
    range_reduce,
)


class TemporalExtractor:
    """CE dynamics over the observation window ending at sample time t."""

    group = "temporal"

    def __init__(self, observation_hours: float = 120.0):
        self.observation_hours = observation_hours

    def names(self) -> list[str]:
        names = [f"temporal_ce_count_{_window_tag(w)}" for w in SUB_WINDOWS_HOURS]
        names += [
            "temporal_ce_rate_per_hour",
            "temporal_log_ce_count",
            "temporal_hours_since_first_ce",
            "temporal_hours_since_last_ce",
            "temporal_mean_interarrival",
            "temporal_min_interarrival",
            "temporal_max_ces_in_hour_1d",
            "temporal_storm_count_5d",
            "temporal_storm_count_total",
            "temporal_repair_count_5d",
            "temporal_ce_acceleration",
        ]
        return names

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        observation = self.observation_hours
        counts = [
            float(history.count_in(t - w, t + EPS)) for w in SUB_WINDOWS_HOURS
        ]
        count_5d = history.count_in(t - observation, t + EPS)
        sl = history.window(t - observation, t + EPS)
        times = history.times[sl]

        hours_since_first = t - history.first_ce_hour if len(history) else observation
        hours_since_last = t - float(times[-1]) if times.size else observation

        if times.size >= 2:
            # Telescoped mean keeps the arithmetic identical to the batch
            # path's (last - first) / (n - 1) form.
            mean_gap = float((times[-1] - times[0]) / (times.size - 1))
            min_gap = float(np.diff(times).min())
        else:
            mean_gap = observation
            min_gap = observation

        # Burstiness: max CEs in any single hour of the last day.
        day_slice = history.window(t - 24.0, t + EPS)
        day_times = history.times[day_slice]
        if day_times.size:
            buckets = np.floor(day_times - (t - 24.0)).astype(int)
            max_hourly = float(np.bincount(buckets, minlength=24).max())
        else:
            max_hourly = 0.0

        # Acceleration: recent-day rate vs window-average rate.
        rate_5d = count_5d / observation
        rate_1d = history.count_in(t - 24.0, t + EPS) / 24.0
        acceleration = rate_1d / rate_5d if rate_5d > 0 else 0.0

        return counts + [
            rate_5d,
            float(np.log1p(count_5d)),
            float(hours_since_first),
            float(hours_since_last),
            mean_gap,
            min_gap,
            max_hourly,
            float(history.storms_in(t - observation, t + EPS)),
            float(history.storms_in(0.0, t + EPS)),
            float(history.repairs_in(t - observation, t + EPS)),
            acceleration,
        ]

    def compute_batch(self, windows: FleetWindows) -> np.ndarray:
        """Vectorized :meth:`compute` for every sample of ``windows``."""
        ts = windows.ts
        n = ts.size
        observation = self.observation_hours
        times = windows.history.times
        windows.prefetch(SUB_WINDOWS_HOURS + (observation, 24.0))
        hi = windows.hi
        lo_obs = windows.lo(observation)
        lo_day = windows.lo(24.0)

        out = np.empty((n, len(self.names())), dtype=float)
        for j, w in enumerate(SUB_WINDOWS_HOURS):
            out[:, j] = windows.counts(w)
        base = len(SUB_WINDOWS_HOURS)

        count_5d = (hi - lo_obs).astype(float)
        sizes = hi - lo_obs
        nonempty = sizes > 0

        hours_since_first = windows.since_first(observation)
        if times.size:
            last_time = times[np.maximum(hi - 1, 0)]
            first_time = times[np.minimum(lo_obs, times.size - 1)]
        else:
            last_time = np.zeros(n)
            first_time = np.zeros(n)
        hours_since_last = np.where(nonempty, ts - last_time, observation)

        multi = sizes >= 2
        span = last_time - first_time
        mean_gap = np.where(
            multi, span / np.maximum(sizes - 1, 1), observation
        )
        # min(diff(times[lo:hi])) is the min of gaps[lo : hi - 1].
        min_gap = np.where(
            multi,
            range_reduce(np.minimum, np.diff(times), lo_obs, hi - 1),
            observation,
        )

        max_hourly = _max_hourly_batch(times, ts, windows.pairs(24.0))

        rate_5d = count_5d / observation
        rate_1d = (hi - lo_day) / 24.0
        acceleration = np.divide(
            rate_1d, rate_5d, out=np.zeros(n), where=rate_5d > 0
        )

        out[:, base + 0] = rate_5d
        out[:, base + 1] = np.log1p(count_5d)
        out[:, base + 2] = hours_since_first
        out[:, base + 3] = hours_since_last
        out[:, base + 4] = mean_gap
        out[:, base + 5] = min_gap
        out[:, base + 6] = max_hourly
        # Storm / repair event counts resolve through the windows object so
        # the same code serves the offline fleet pass (``t + EPS`` bounds)
        # and replay (arrival-exact bounds, precomputed per query).
        storm_5d, storm_total = windows.storm_counts(observation)
        out[:, base + 7] = storm_5d
        out[:, base + 8] = storm_total
        out[:, base + 9] = windows.repair_counts(observation)
        out[:, base + 10] = acceleration
        return out


def _max_hourly_batch(
    times: np.ndarray,
    ts: np.ndarray,
    day_pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Max CEs in any single hour of each sample's trailing day.

    Uses the same ``floor(time - (t - 24))`` bucketisation as the
    per-sample path over the flattened (sample, CE) pairs.  Each window's
    members run in time order, so ``sample * 25 + bucket`` never decreases
    and every hour bucket is one run of equal keys.
    """
    sid, idx = day_pairs
    result = np.zeros(ts.size)
    if sid.size == 0:
        return result
    buckets = np.floor(times[idx] - (ts[sid] - 24.0)).astype(np.int64)
    keys = sid * 25 + buckets  # bucket range is [0, 24]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    owners = sid[starts]
    firsts = np.flatnonzero(np.diff(owners, prepend=-1))
    result[owners[firsts]] = np.maximum.reduceat(
        np.diff(starts, append=keys.size), firsts
    )
    return result


def _window_tag(hours: float) -> str:
    if hours < 24.0:
        return f"{int(hours)}h"
    return f"{int(hours / 24.0)}d"
