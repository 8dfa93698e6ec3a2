"""Property tests for the columnar telemetry store.

Invariants under random (and adversarially out-of-order) record streams:

* every per-DIMM slice of the fleet view equals the record-object path
  (:meth:`DimmHistory.from_records`), bit-for-bit;
* segment offsets are monotone and partition the concatenated arrays;
* bulk ingestion == per-record appends;
* JSONL round-trips through the bulk loader reproduce the store exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.features.windows import DimmHistory
from repro.telemetry.columnar import segmented_searchsorted
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

_HISTORY_FIELDS = (
    "times", "dq_count", "beat_count", "dq_interval", "beat_interval",
    "n_devices", "error_bits", "rows", "columns", "banks", "devices",
)

_DIMMS = ("dimm-a", "dimm-b", "dimm-c")


def make_ce(t: float, dimm: str, salt: int = 0) -> CERecord:
    return CERecord(
        timestamp_hours=float(t), server_id=f"server-{hash(dimm) % 3}",
        dimm_id=dimm, rank=0, bank=salt % 4, row=salt % 64,
        column=(salt * 7) % 32, devices=(salt % 4,) if salt % 5 else (),
        dq_count=1 + salt % 4, beat_count=1 + salt % 3,
        dq_interval=salt % 5, beat_interval=salt % 6,
        error_bit_count=1 + salt % 4,
    )


def make_event(t: float, dimm: str, salt: int) -> MemEventRecord:
    kinds = list(MemEventKind)
    return MemEventRecord(
        timestamp_hours=float(t), server_id="s0", dimm_id=dimm,
        kind=kinds[salt % len(kinds)],
    )


record_stream = st.lists(
    st.tuples(
        st.floats(0.0, 500.0, allow_nan=False),
        st.sampled_from(_DIMMS),
        st.integers(0, 40),
        st.sampled_from(["ce", "ce", "ce", "event", "ue"]),
    ),
    min_size=0,
    max_size=60,
)


def build_store(stream) -> LogStore:
    store = LogStore()
    for t, dimm, salt, kind in stream:
        if kind == "ce":
            store.add_ce(make_ce(t, dimm, salt))
        elif kind == "event":
            store.add_event(make_event(t, dimm, salt))
        else:
            store.add_ue(
                UERecord(
                    timestamp_hours=float(t), server_id="s0", dimm_id=dimm,
                    rank=0, bank=0, row=0, column=0, devices=(0,),
                )
            )
    return store


@given(record_stream)
@settings(max_examples=60, deadline=None)
def test_fleet_slices_equal_from_records(stream):
    store = build_store(stream)
    fleet = store.fleet_arrays()
    assert fleet.dimm_ids == store.dimm_ids_with_ces()
    for i, dimm_id in enumerate(fleet.dimm_ids):
        reference = DimmHistory.from_records(
            dimm_id, store.ces_for_dimm(dimm_id), store.events_for_dimm(dimm_id)
        )
        lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
        for name in _HISTORY_FIELDS:
            assert np.array_equal(
                getattr(fleet, name)[lo:hi], getattr(reference, name)
            ), (dimm_id, name)
        assert np.array_equal(
            fleet.storm_times[fleet.storm_offsets[i] : fleet.storm_offsets[i + 1]],
            reference.storm_times,
        )
        assert np.array_equal(
            fleet.repair_times[
                fleet.repair_offsets[i] : fleet.repair_offsets[i + 1]
            ],
            reference.repair_times,
        )
        assert fleet.server_ids[i] == reference.server_id
        ues = store.ues_for_dimm(dimm_id)
        if ues:
            assert fleet.ue_hours[i] == ues[0].timestamp_hours
        else:
            assert np.isnan(fleet.ue_hours[i])


@given(record_stream)
@settings(max_examples=60, deadline=None)
def test_offsets_partition_and_segments_sorted(stream):
    store = build_store(stream)
    fleet = store.fleet_arrays()
    for offsets, array in (
        (fleet.ce_offsets, fleet.times),
        (fleet.storm_offsets, fleet.storm_times),
        (fleet.repair_offsets, fleet.repair_times),
    ):
        assert offsets[0] == 0
        assert offsets[-1] == array.size
        assert (np.diff(offsets) >= 0).all()
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            segment = array[lo:hi]
            assert (np.diff(segment) >= 0).all()


@given(record_stream)
@settings(max_examples=40, deadline=None)
def test_bulk_ingest_equals_per_record_appends(stream):
    incremental = build_store(stream)
    bulk = LogStore()
    records = []
    for t, dimm, salt, kind in stream:
        if kind == "ce":
            records.append(make_ce(t, dimm, salt))
        elif kind == "event":
            records.append(make_event(t, dimm, salt))
        else:
            records.append(
                UERecord(
                    timestamp_hours=float(t), server_id="s0", dimm_id=dimm,
                    rank=0, bank=0, row=0, column=0, devices=(0,),
                )
            )
    bulk.ingest_bulk(records)
    a, b = incremental.fleet_arrays(), bulk.fleet_arrays()
    assert a.dimm_ids == b.dimm_ids
    for name in _HISTORY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.ce_offsets, b.ce_offsets)
    assert np.array_equal(a.storm_times, b.storm_times)
    assert np.array_equal(a.repair_times, b.repair_times)
    assert np.array_equal(a.ue_hours, b.ue_hours, equal_nan=True)


@given(record_stream)
@settings(max_examples=25, deadline=None)
def test_jsonl_round_trip_through_columnar(stream):
    store = build_store(stream)
    with tempfile.TemporaryDirectory() as tmp:
        _check_round_trip(store, Path(tmp))


def _check_round_trip(store, tmp: Path) -> None:
    path = tmp / "campaign.jsonl"
    count = store.dump_jsonl(path)
    assert count == len(store)
    loaded = LogStore.load_jsonl(path)
    assert len(loaded) == len(store)
    a, b = store.fleet_arrays(), loaded.fleet_arrays()
    assert a.dimm_ids == b.dimm_ids
    for name in _HISTORY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.ue_hours, b.ue_hours, equal_nan=True)
    # The dumped form is canonical: a second round trip is byte-identical.
    path2 = path.with_suffix(".jsonl2")
    loaded.dump_jsonl(path2)
    assert path.read_text() == path2.read_text()


#: A small grid, its one-ulp neighbours and -0.0, so exact ties (value ==
#: query, -0.0 == 0.0) and near-ties turn up in almost every example.
_GRID = (0.0, 0.5, 1.0, 2.0, 100.0)
_tie_prone_floats = st.one_of(
    st.sampled_from(_GRID),
    st.sampled_from(_GRID).map(lambda v: float(np.nextafter(v, np.inf))),
    st.sampled_from(_GRID).map(lambda v: float(np.nextafter(v, -np.inf))),
    st.just(-0.0),
    st.floats(-10.0, 110.0, allow_nan=False),
)


@given(
    # Inner lists may be empty: empty segments, queried or not.
    st.lists(
        st.lists(_tie_prone_floats, max_size=12),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(_tie_prone_floats, st.integers(0, 5)),
        max_size=25,
    ),
)
@settings(max_examples=80, deadline=None)
def test_segmented_searchsorted_matches_per_segment(segments, queries):
    segments = [np.sort(np.asarray(seg)) for seg in segments]
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([seg.size for seg in segments], out=offsets[1:])
    values = np.concatenate(segments) if segments else np.empty(0)
    query_values = np.array([q for q, _ in queries], dtype=float)
    query_segments = np.array(
        [s % len(segments) for _, s in queries], dtype=np.int64
    )
    got = segmented_searchsorted(values, offsets, query_values, query_segments)
    expected = np.array(
        [
            np.searchsorted(segments[s], q, side="left")
            for q, s in zip(query_values, query_segments)
        ],
        dtype=np.int64,
    ).reshape(query_values.size)
    assert np.array_equal(got, expected)
