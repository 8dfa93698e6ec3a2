"""Static configuration features (manufacturer, frequency, process, ...).

The paper's feature store encodes memory configurations as static features
(Section VII).  The encoder is fitted on training configs so that category
vocabularies are stable between training and serving.
"""

from __future__ import annotations

import numpy as np

from repro.dram.spec import ChipProcess, Manufacturer
from repro.features.windows import EPS
from repro.telemetry.columnar import segmented_searchsorted
from repro.telemetry.records import DimmConfigRecord


class StaticEncoder:
    """One-hot manufacturers/processes, scaled frequency, part-number code."""

    group = "static"

    def __init__(self) -> None:
        self._manufacturers = [m.value for m in Manufacturer]
        self._processes = [p.value for p in ChipProcess]
        self._part_numbers: dict[str, int] = {}

    def fit(self, configs: dict[str, DimmConfigRecord]) -> "StaticEncoder":
        parts = sorted({config.part_number for config in configs.values()})
        self._part_numbers = {part: i + 1 for i, part in enumerate(parts)}
        return self

    def names(self) -> list[str]:
        names = [f"static_mfr_{m}" for m in self._manufacturers]
        names += [f"static_process_{p}" for p in self._processes]
        names += [
            "static_frequency_ghz",
            "static_capacity_gb",
            "static_part_number_code",
        ]
        return names

    def compute(self, config: DimmConfigRecord) -> list[float]:
        mfr = [float(config.manufacturer == m) for m in self._manufacturers]
        process = [float(config.chip_process == p) for p in self._processes]
        # Unseen part numbers (new SKU in production) map to code 0.
        part_code = float(self._part_numbers.get(config.part_number, 0))
        return mfr + process + [
            config.frequency_mts / 1000.0,
            float(config.capacity_gb),
            part_code,
        ]

    def compute_rows(self, configs) -> np.ndarray:
        """One static row per config (the fleet pass repeats per segment)."""
        rows = [self.compute(config) for config in configs]
        if not rows:
            return np.empty((0, len(self.names())))
        return np.asarray(rows, dtype=float)

    @property
    def part_number_cardinality(self) -> int:
        """Number of part-number codes incl. the unseen bucket (for embeddings)."""
        return len(self._part_numbers) + 1


class EnvironmentExtractor:
    """Server-context features: error pressure from sibling DIMMs.

    A light stand-in for the paper's workload/environment metrics; the
    ablation benchmark confirms (as the paper does, citing [27]) that these
    play a minor role.
    """

    group = "environment"

    def __init__(self, observation_hours: float = 120.0):
        self.observation_hours = observation_hours
        self._server_times: dict[str, np.ndarray] = {}
        self._codes: dict[str, int] | None = None
        self._concat_times: np.ndarray | None = None
        self._offsets: np.ndarray | None = None

    def fit(self, ce_times_by_server: dict[str, np.ndarray]) -> "EnvironmentExtractor":
        self._server_times = {
            server: np.sort(np.asarray(times, dtype=float))
            for server, times in ce_times_by_server.items()
        }
        self._codes = None
        self._concat_times = None
        self._offsets = None
        return self

    def _fleet_index(self) -> None:
        """Concatenated (segment-offset) form of the fitted server times."""
        if self._codes is not None:
            return
        servers = list(self._server_times)
        arrays = [self._server_times[server] for server in servers]
        sizes = np.array([array.size for array in arrays], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._concat_times = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=float)
        )
        self._offsets = offsets
        # The guard attribute is published last: the sharded build's
        # thread fallback may race into this method, and an early return
        # must only ever see a fully built index (a duplicate build is
        # harmless — the inputs are identical).
        self._codes = {server: code for code, server in enumerate(servers)}

    def server_code(self, server_id: str) -> int:
        """Dense code of a fitted server id (-1 when unknown)."""
        self._fleet_index()
        return self._codes.get(server_id, -1)

    def fitted_times(self, server_id: str) -> np.ndarray | None:
        """The fitted (sorted) CE-time array of one server, if known.

        The streaming incremental extractor advances two-pointer cursors
        over this array instead of re-running :meth:`compute`'s binary
        searches on every scored CE.
        """
        return self._server_times.get(server_id)

    def names(self) -> list[str]:
        return ["env_server_ce_count_5d", "env_server_has_sibling_errors"]

    def compute(self, server_id: str, own_count_5d: float, t: float) -> list[float]:
        times = self._server_times.get(server_id)
        if times is None:
            return [0.0, 0.0]
        lo = int(np.searchsorted(times, t - self.observation_hours, side="left"))
        hi = int(np.searchsorted(times, t + EPS, side="left"))
        sibling = max(0.0, float(hi - lo) - own_count_5d)
        return [sibling, float(sibling > 0)]

    def compute_fleet(
        self,
        server_codes: np.ndarray,
        own_counts_5d: np.ndarray,
        ts: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`compute` for many samples across the fleet.

        ``server_codes[i]`` is the :meth:`server_code` of sample ``i``'s
        server (-1 for servers unseen at fit time, which score zeros just
        like :meth:`compute`).  One segmented search over the concatenated
        server timelines replaces the per-sample ``np.searchsorted`` pair,
        bit-for-bit.
        """
        ts = np.asarray(ts, dtype=float)
        server_codes = np.asarray(server_codes, dtype=np.int64)
        out = np.zeros((ts.size, 2))
        self._fleet_index()
        known = server_codes >= 0
        if not known.any():
            return out
        k = int(known.sum())
        queries = np.concatenate(
            [ts[known] + EPS, ts[known] - self.observation_hours]
        )
        segments = np.tile(server_codes[known], 2)
        bounds = segmented_searchsorted(
            self._concat_times, self._offsets, queries, segments
        )
        sibling = np.maximum(
            0.0,
            (bounds[:k] - bounds[k:]).astype(float)
            - np.asarray(own_counts_5d, dtype=float)[known],
        )
        out[known, 0] = sibling
        out[known, 1] = (sibling > 0).astype(float)
        return out
