"""Train/serve parity of the vectorized feature-extraction engine.

The batched fleet path (:meth:`FeaturePipeline.transform_fleet` and each
extractor's ``compute_batch`` over :class:`FleetWindows`), the per-sample
``compute`` / ``transform_one`` reference paths, and the online-serving
path over an incrementally grown :class:`AppendableDimmHistory` must all
produce bit-for-bit identical feature values — this is the
train/serve-consistency guarantee the paper's feature store is built
around.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeaturePipeline
from repro.features.windows import (
    AppendableDimmHistory,
    DimmHistory,
    FleetWindows,
)
from repro.mlops.feature_store import FeatureStore
from repro.telemetry.columnar import FleetArrays
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord


@pytest.fixture(scope="module")
def fitted(purley_sim):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    return pipeline


@pytest.fixture(scope="module")
def fleet(purley_sim):
    return purley_sim.store.fleet_arrays()


def _history(store, dimm_id):
    return DimmHistory.from_records(
        dimm_id, store.ces_for_dimm(dimm_id), store.events_for_dimm(dimm_id)
    )


def _sample_times(history):
    """CE instants, off-CE instants, and out-of-range extremes."""
    return np.concatenate(
        [history.times, history.times + 0.37, [0.0, 1e6]]
    )


def _one_dimm_fleet(history: DimmHistory) -> FleetArrays:
    """A one-segment :class:`FleetArrays` over ``history``'s arrays."""
    def offsets(array):
        return np.array([0, array.size], dtype=np.int64)

    return FleetArrays(
        dimm_ids=[history.dimm_id],
        server_ids=[history.server_id],
        times=history.times,
        dq_count=history.dq_count,
        beat_count=history.beat_count,
        dq_interval=history.dq_interval,
        beat_interval=history.beat_interval,
        n_devices=history.n_devices,
        error_bits=history.error_bits,
        rows=history.rows,
        columns=history.columns,
        banks=history.banks,
        devices=history.devices,
        ce_offsets=offsets(history.times),
        storm_times=history.storm_times,
        storm_offsets=offsets(history.storm_times),
        repair_times=history.repair_times,
        repair_offsets=offsets(history.repair_times),
        ue_hours=np.full(1, np.nan),
    )


class TestBatchMatchesPerSample:
    def test_full_pipeline_bit_for_bit(self, purley_sim, fitted, fleet):
        """A one-DIMM fleet pass == transform_one, sample by sample."""
        store = purley_sim.store
        checked = 0
        for i, dimm_id in enumerate(fleet.dimm_ids[:25]):
            history = _history(store, dimm_id)
            config = store.config_for(dimm_id)
            ts = _sample_times(history)
            batch = fitted.transform_fleet(
                fleet.shard(i, i + 1), [config], ts,
                np.zeros(ts.size, dtype=np.int64),
            )
            reference = np.vstack(
                [fitted.transform_one(history, config, float(t)) for t in ts]
            )
            assert np.array_equal(batch, reference), dimm_id
            checked += ts.size
        assert checked > 0

    def test_each_extractor_matches(self, purley_sim, fitted, fleet):
        dimm_id = fleet.dimm_ids[0]
        history = _history(purley_sim.store, dimm_id)
        ts = _sample_times(history)
        for extractor in (fitted.temporal, fitted.spatial, fitted.bitlevel):
            windows = FleetWindows(
                fleet.shard(0, 1), ts, np.zeros(ts.size, dtype=np.int64)
            )
            batch = extractor.compute_batch(windows)
            reference = np.vstack(
                [extractor.compute(history, float(t)) for t in ts]
            )
            assert np.array_equal(batch, reference), extractor.group

    def test_empty_ts(self, purley_sim, fitted, fleet):
        config = purley_sim.store.config_for(fleet.dimm_ids[0])
        out = fitted.transform_fleet(
            fleet.shard(0, 1), [config], np.empty(0),
            np.empty(0, dtype=np.int64),
        )
        assert out.shape == (0, len(fitted.feature_names()))


class TestOnlineServingParity:
    def test_appendable_matches_batch_row(self, purley_sim, fitted):
        """Streaming state == from_records == fleet-pass row, at every
        instant."""
        store = purley_sim.store
        feature_store = FeatureStore(fitted)
        checked = 0
        for dimm_id in store.dimm_ids_with_ces()[:8]:
            ces = store.ces_for_dimm(dimm_id)
            events = store.events_for_dimm(dimm_id)
            config = store.config_for(dimm_id)
            merged = sorted(ces + events, key=lambda r: r.timestamp_hours)
            appendable = AppendableDimmHistory(dimm_id)
            seen_ces, seen_events = [], []
            for record in merged:
                appendable.append(record)
                if isinstance(record, CERecord):
                    seen_ces.append(record)
                else:
                    seen_events.append(record)
                if len(seen_ces) < 2:
                    continue
                t = record.timestamp_hours
                online = feature_store.serve_online(appendable, config, t)
                rebuilt = DimmHistory.from_records(
                    dimm_id, seen_ces, seen_events
                )
                reference = fitted.transform_one(rebuilt, config, t)
                batch_row = fitted.transform_fleet(
                    _one_dimm_fleet(rebuilt), [config], np.array([t]),
                    np.zeros(1, dtype=np.int64),
                )[0]
                assert np.array_equal(online, reference)
                assert np.array_equal(online, batch_row)
                checked += 1
        assert checked > 0

    def test_out_of_order_appends_are_resorted(self):
        def ce(t):
            return CERecord(
                timestamp_hours=t, server_id="s0", dimm_id="d0", rank=0,
                bank=0, row=1, column=1, devices=(0,), dq_count=1,
                beat_count=1, dq_interval=0, beat_interval=0,
                error_bit_count=1,
            )

        appendable = AppendableDimmHistory("d0")
        for t in (3.0, 1.0, 2.0):
            appendable.append_ce(ce(t))
        appendable.append_event(
            MemEventRecord(5.0, "s0", "d0", MemEventKind.CE_STORM)
        )
        appendable.append_event(
            MemEventRecord(4.0, "s0", "d0", MemEventKind.PAGE_OFFLINE)
        )
        view = appendable.view()
        assert list(view.times) == [1.0, 2.0, 3.0]
        assert view.storms_in(0.0, 10.0) == 1
        assert view.repairs_in(0.0, 10.0) == 1
        assert len(appendable) == 3

    def test_buffer_growth_preserves_history(self):
        def ce(t):
            return CERecord(
                timestamp_hours=t, server_id="s0", dimm_id="d0", rank=0,
                bank=0, row=int(t), column=1, devices=(0,), dq_count=1,
                beat_count=1, dq_interval=0, beat_interval=0,
                error_bit_count=1,
            )

        appendable = AppendableDimmHistory("d0")
        times = [float(t) for t in range(100)]  # forces several doublings
        for t in times:
            appendable.append_ce(ce(t))
        view = appendable.view()
        assert list(view.times) == times
        assert list(view.rows) == [int(t) for t in times]
        assert view.server_id == "s0"
