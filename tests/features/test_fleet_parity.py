"""Parity of the cross-DIMM fleet extraction engine.

The fleet pass (one :class:`FleetWindows` over every DIMM's concatenated
history), one-DIMM fleet passes, the per-sample reference
(:meth:`transform_one`) and the sharded parallel build must all produce
bit-for-bit identical feature matrices and sample sets — across all three
simulated platforms.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features.pipeline import FeaturePipeline
from repro.features.spatial import SpatialExtractor
from repro.features.windows import DimmHistory, FleetWindows
from repro.obs import Observability
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import CERecord, DimmConfigRecord

#: Primary devices: d and d + 16 share an int64 cell key (``device * 2^60``
#: wraps) — an alias every engine must reproduce identically.
ALIASING_DEVICES = (0, 1, 16, 17)


@pytest.fixture(scope="module", params=["intel_purley", "intel_whitley", "k920"])
def platform_sim(request, tiny_study):
    return request.param, tiny_study[request.param]


@pytest.fixture(scope="module")
def fitted(platform_sim):
    _, sim = platform_sim
    pipeline = FeaturePipeline()
    pipeline.fit(sim.store)
    return pipeline


class TestFleetMatrixParity:
    def test_transform_fleet_equals_per_dimm_batch(self, platform_sim, fitted):
        """Fleet rows == concatenated one-DIMM fleet-pass blocks: window
        members never leak across DIMM segments."""
        _, sim = platform_sim
        store = sim.store
        fleet = store.fleet_arrays()
        n_checked = min(40, fleet.n_dimms)
        configs = [store.config_for(d) for d in fleet.dimm_ids[:n_checked]]
        ts_parts, seg_parts, reference_parts = [], [], []
        for i in range(n_checked):
            lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
            times = fleet.times[lo:hi]
            # CE instants, off-CE instants, and out-of-range extremes.
            ts = np.concatenate([times, times + 0.37, [0.0, 1e6]])
            ts.sort()
            ts_parts.append(ts)
            seg_parts.append(np.full(ts.size, i, dtype=np.int64))
            reference_parts.append(
                fitted.transform_fleet(
                    fleet.shard(i, i + 1), configs[i : i + 1], ts,
                    np.zeros(ts.size, dtype=np.int64),
                )
            )
        fleet_X = fitted.transform_fleet(
            fleet.shard(0, n_checked),
            configs,
            np.concatenate(ts_parts),
            np.concatenate(seg_parts),
        )
        reference = np.vstack(reference_parts)
        assert np.array_equal(fleet_X, reference)

    def test_transform_fleet_equals_per_sample(self, platform_sim, fitted):
        """Fleet rows == transform_one, sample by sample."""
        _, sim = platform_sim
        store = sim.store
        fleet = store.fleet_arrays()
        n = min(5, fleet.n_dimms)
        shard = fleet.shard(0, n)
        ts_parts, seg_parts, rows = [], [], []
        for i, dimm_id in enumerate(fleet.dimm_ids[:n]):
            lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
            ts = np.concatenate([fleet.times[lo:hi][:10], [0.0, 1e6]])
            ts.sort()
            ts_parts.append(ts)
            seg_parts.append(np.full(ts.size, i, dtype=np.int64))
            history = DimmHistory.from_records(
                dimm_id,
                store.ces_for_dimm(dimm_id),
                store.events_for_dimm(dimm_id),
            )
            config = store.config_for(dimm_id)
            rows.extend(
                fitted.transform_one(history, config, float(t)) for t in ts
            )
        fleet_X = fitted.transform_fleet(
            shard,
            [store.config_for(d) for d in fleet.dimm_ids[:n]],
            np.concatenate(ts_parts),
            np.concatenate(seg_parts),
        )
        assert np.array_equal(fleet_X, np.vstack(rows))


class TestBuildSamplesParity:
    def test_fleet_equals_per_sample(self, platform_sim, fitted):
        name, sim = platform_sim
        store = sim.store
        fleet = fitted.build_samples(
            store, name, sim.duration_hours, engine="fleet"
        )
        reference = fitted.build_samples(
            store, name, sim.duration_hours, engine="per_sample"
        )
        assert np.array_equal(fleet.X, reference.X)
        assert np.array_equal(fleet.y, reference.y)
        assert np.array_equal(fleet.times, reference.times)
        assert list(fleet.dimm_ids) == list(reference.dimm_ids)
        assert len(fleet) > 0

    def test_sharded_build_is_bit_identical(self, platform_sim, fitted):
        name, sim = platform_sim
        store = sim.store
        serial = fitted.build_samples(
            store, name, sim.duration_hours, engine="fleet"
        )
        for workers in (2, 5):
            sharded = fitted.build_samples(
                store, name, sim.duration_hours, engine="fleet",
                workers=workers,
            )
            assert np.array_equal(serial.X, sharded.X)
            assert np.array_equal(serial.y, sharded.y)
            assert np.array_equal(serial.times, sharded.times)
            assert list(serial.dimm_ids) == list(sharded.dimm_ids)

    def test_unknown_engine_rejected(self, platform_sim, fitted):
        """Unknown and retired engine names (``"batch"``) fail loudly."""
        name, sim = platform_sim
        for engine in ("warp", "batch"):
            with pytest.raises(
                ValueError,
                match=re.escape(f"unknown engine {engine!r}; expected "
                                "('fleet', 'per_sample')"),
            ):
                fitted.build_samples(sim.store, name, engine=engine)


@pytest.mark.parametrize("engine", ["fleet", "per_sample"])
def test_final_heartbeat_reports_the_finished_build(purley_sim, engine):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    obs = Observability()
    samples = pipeline.build_samples(
        purley_sim.store, "intel_purley", purley_sim.duration_hours,
        engine=engine, obs=obs, heartbeat_every=7,
    )
    last = obs.progress.last("build_samples")["fields"]
    assert last["fraction"] == 1.0
    assert last["samples"] == len(samples) > 0


def test_empty_store_builds_empty_sample_set(purley_sim):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    empty = LogStore()
    samples = pipeline.build_samples(empty, "none", campaign_end_hour=100.0)
    assert len(samples) == 0
    assert samples.X.shape == (0, len(pipeline.feature_names()))


def _config(i: int) -> DimmConfigRecord:
    return DimmConfigRecord(
        dimm_id=f"d{i}",
        server_id=f"s{i % 2}",
        platform="synthetic",
        manufacturer=("m0", "m1")[i % 2],
        part_number=f"p{i}",
        capacity_gb=32,
        data_width=4,
        frequency_mts=2933,
        chip_process="1y",
    )


def _ce(i, t, bank, row, column, devices, **bits) -> CERecord:
    fields = dict(dq_count=2, beat_count=3, dq_interval=1, beat_interval=4)
    fields.update(bits)
    return CERecord(
        timestamp_hours=t, server_id=f"s{i % 2}", dimm_id=f"d{i}", rank=0,
        bank=bank, row=row, column=column, devices=devices,
        error_bit_count=fields["dq_count"] * fields["beat_count"], **fields,
    )


@st.composite
def fleet_records(draw):
    """A few DIMMs' CEs on a coarse grid, often revisiting a cell on
    another (possibly aliasing) device."""
    records = []
    for i in range(draw(st.integers(1, 3))):
        cells = []
        ticks = draw(st.lists(st.integers(0, 480), min_size=1, max_size=14))
        for tick in sorted(ticks):
            if cells and draw(st.booleans()):
                bank, row, column = draw(st.sampled_from(cells))
            else:
                bank = draw(st.integers(0, 3))
                row = draw(st.integers(0, 7))
                column = draw(st.integers(0, 7))
                cells.append((bank, row, column))
            device = draw(st.sampled_from(ALIASING_DEVICES))
            records.append(
                _ce(
                    i, tick * 0.5, bank, row, column,
                    tuple(range(device, device + draw(st.integers(1, 2)))),
                    dq_count=draw(st.integers(1, 4)),
                    beat_count=draw(st.integers(1, 8)),
                    beat_interval=draw(st.integers(0, 8)),
                )
            )
    return records


def _around_ces(times: np.ndarray) -> np.ndarray:
    """CE instants, 0.25 h after each, and far past the campaign."""
    return np.sort(np.concatenate([times, times + 0.25, [1e6]]))


def _three_engines(records, sample_times=_around_ces):
    """Feature matrices of one fleet pass, per-DIMM (one-segment) fleet
    passes and transform_one, at ``sample_times(ce_times)`` per DIMM."""
    store = LogStore()
    for i in range(3):
        store.add_config(_config(i))
    store.extend(records)
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    fleet = store.fleet_arrays()
    configs = [store.config_for(d) for d in fleet.dimm_ids]
    ts_parts, seg_parts, batch_parts, one_rows = [], [], [], []
    for i, dimm_id in enumerate(fleet.dimm_ids):
        times = fleet.times[fleet.ce_offsets[i] : fleet.ce_offsets[i + 1]]
        ts = np.asarray(sample_times(times), dtype=float)
        ts_parts.append(ts)
        seg_parts.append(np.full(ts.size, i, dtype=np.int64))
        history = DimmHistory.from_records(
            dimm_id, store.ces_for_dimm(dimm_id), store.events_for_dimm(dimm_id)
        )
        batch_parts.append(
            pipeline.transform_fleet(
                fleet.shard(i, i + 1), configs[i : i + 1], ts,
                np.zeros(ts.size, dtype=np.int64),
            )
        )
        one_rows.extend(
            pipeline.transform_one(history, configs[i], float(t)) for t in ts
        )
    fleet_X = pipeline.transform_fleet(
        fleet,
        configs,
        np.concatenate(ts_parts),
        np.concatenate(seg_parts),
    )
    return pipeline, fleet_X, np.vstack(batch_parts), np.vstack(one_rows)


def _checked(records, sample_times):
    """Feature-name lookup and the fleet-pass rows, once the fleet pass,
    one-DIMM passes and transform_one agree bit-for-bit."""
    pipeline, fleet_X, batch_X, one_X = _three_engines(records, sample_times)
    assert np.array_equal(fleet_X, batch_X)
    assert np.array_equal(fleet_X, one_X)
    return pipeline.feature_names().index, fleet_X


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(records=fleet_records())
def test_fleet_windows_match_batch_and_per_sample(records):
    _, fleet_X, batch_X, one_X = _three_engines(records)
    assert np.array_equal(fleet_X, batch_X)
    assert np.array_equal(fleet_X, one_X)


@pytest.mark.parametrize(
    "second_device, max_cell", [(1, 1.0), (17, 1.0), (16, 2.0)]
)
def test_cell_key_aliases_devices_16_apart(second_device, max_cell):
    """Pins a known bug: the int64 cell key wraps at ``device * 2^60``, so
    CEs on the same bank/row/column of devices 0 and 16 count as one cell
    in every engine.  Fixing it changes this expectation."""
    records = [
        _ce(0, 1.0, 2, 5, 7, (0,)),
        _ce(0, 2.0, 2, 5, 7, (second_device,)),
    ]
    pipeline, fleet_X, batch_X, one_X = _three_engines(
        records, lambda times: times
    )
    names = pipeline.feature_names()
    cell = names.index("spatial_max_ces_one_cell")
    fault = names.index("spatial_cell_fault")
    for X in (fleet_X, batch_X, one_X):  # last row: the second CE's hour
        assert X[-1, cell] == max_cell
        assert X[-1, fault] == float(max_cell >= 2)


def _line(i, t0, coordinates, bank=1, device=0):
    """CEs one hour apart on (row, column) ``coordinates`` of one bank."""
    return [
        _ce(i, t0 + k, bank, row, column, (device,))
        for k, (row, column) in enumerate(coordinates)
    ]


class TestWindowEdgeCases:
    """Hand-built windows for the pair-free spatial and bit-level kernels,
    each checked three ways (fleet pass, one-DIMM passes, transform_one)."""

    def test_line_fault_needs_two_cross_coordinates(self):
        records = (
            _line(0, 1.0, [(5, 3), (5, 3), (5, 3)])  # one cell: no line fault
            + _line(1, 1.0, [(5, 3), (5, 4), (5, 3)])  # columns a, b, a
            + _line(2, 1.0, [(5, 9), (6, 9), (5, 9)])  # rows a, b, a
        )
        col, X = _checked(records, lambda times: times)
        row_fault, column_fault = col("spatial_row_fault"), col(
            "spatial_column_fault"
        )
        # Rows: three samples (one per CE) for each of d0, d1, d2.
        assert X[2, col("spatial_max_ces_one_cell")] == 3.0
        assert X[2, col("spatial_cell_fault")] == 1.0
        assert X[2, row_fault] == X[2, column_fault] == 0.0
        assert X[4, row_fault] == 0.0  # two CEs only
        assert X[5, row_fault] == 1.0 and X[5, column_fault] == 0.0
        assert X[8, column_fault] == 1.0 and X[8, row_fault] == 0.0
        assert not X[:, col("spatial_bank_fault")].any()

    def test_bank_fault_needs_both_faults_in_one_bank(self):
        row_fault = [(5, 3), (5, 4), (5, 3)]
        column_fault = [(7, 9), (8, 9), (7, 9)]
        records = (
            # d0: a column fault, then a row fault, in bank 1.
            _line(0, 1.0, column_fault) + _line(0, 4.0, row_fault)
            # d1: the same two faults in banks 1 and 2.
            + _line(1, 1.0, row_fault) + _line(1, 4.0, column_fault, bank=2)
            # d2: bank 1 of devices 0 and 1.
            + _line(2, 1.0, row_fault)
            + _line(2, 4.0, column_fault, device=1)
        )
        col, X = _checked(records, lambda times: times)
        bank = col("spatial_bank_fault")
        last = [5, 11, 17]  # each DIMM's sixth CE
        for i in last:
            assert X[i, col("spatial_row_fault")] == 1.0
            assert X[i, col("spatial_column_fault")] == 1.0
        assert X[last, bank].tolist() == [1.0, 0.0, 0.0]
        assert X[4, bank] == 0.0  # d0's row fault is one CE short

    def test_window_of_one_cell(self):
        records = [
            _ce(0, float(t), 2, 5, 7, (0,), dq_count=2, beat_count=t)
            for t in range(1, 6)
        ]
        # The last CE's hour, then hours at which 1 and 4 CEs have left.
        col, X = _checked(records, lambda times: [5.0, 121.5, 124.5])
        sizes = X[:, col("temporal_ce_count_5d")].tolist()
        assert sizes == [5.0, 4.0, 1.0]
        for name in (
            "spatial_max_ces_one_cell",
            "spatial_max_ces_one_row",
            "spatial_max_ces_one_column",
        ):
            assert X[:, col(name)].tolist() == sizes
        assert X[:, col("spatial_distinct_rows")].tolist() == [1.0] * 3
        assert X[:, col("bit_max_beat_count")].tolist() == [5.0] * 3
        assert X[:, col("bit_mode_beat_count")].tolist() == [5.0] * 3
        assert X[:, col("bit_mode_dq_count")].tolist() == [2.0] * 3

    def test_samples_before_first_ce_and_after_window_drains(self):
        records = _line(0, 10.0, [(5, 3), (5, 4), (5, 3)])
        ts = [0.0, 9.9, 12.0, 130.0, 130.5, 132.0, 132.5, 1e6]
        col, X = _checked(records, lambda times: ts)
        names = [
            "spatial_distinct_rows", "spatial_max_ces_one_cell",
            "spatial_row_fault", "bit_max_dq_count", "bit_mode_dq_count",
            "bit_mean_error_bits",
        ]
        window = X[:, [col(name) for name in names]]
        empty = [0, 1, 6, 7]  # before the first CE / after the last left
        assert not window[empty].any()
        assert X[:, col("temporal_ce_count_5d")].tolist() == [
            0.0, 0.0, 3.0, 3.0, 2.0, 1.0, 0.0, 0.0
        ]
        assert X[:, col("spatial_row_fault")].tolist() == [
            0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0
        ]

    def test_unsorted_sample_times_within_a_segment(self):
        records = (
            _line(0, 1.0, [(5, 3), (5, 4), (5, 3), (6, 3), (7, 3)])
            + _line(0, 100.0, [(5, 3), (9, 9)])
            + _line(1, 50.0, [(1, 1), (1, 1), (2, 1)])
        )
        rng = np.random.default_rng(0)

        def shuffled(times):
            ts = np.concatenate([times, times + 60.0, times + 119.5, [0.5]])
            return rng.permutation(ts)

        col, X = _checked(records, shuffled)
        assert X[:, col("spatial_row_fault")].any()
        assert X[:, col("spatial_column_fault")].any()

    def test_min_distinct_above_two_is_rejected(self):
        store = LogStore()
        store.extend(_line(0, 1.0, [(5, 3)]))
        windows = FleetWindows(
            store.fleet_arrays(), np.array([1.0]), np.array([0])
        )
        with pytest.raises(ValueError, match="min_distinct <= 2"):
            SpatialExtractor(min_distinct=3).compute_batch(windows)
