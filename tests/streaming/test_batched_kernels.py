"""Batched replay kernels vs the per-event reference: cross-engine parity.

The batched engine (:mod:`repro.streaming.kernels`) must be bit-for-bit
the pure-Python per-event loop on ANY stream — the property suite here
drives both engines over randomized synthetic campaigns full of the
hard cases (out-of-order appends, same-timestamp CE/UE/storm ties,
storm and repair interleavings, rescore-throttled regressing queries,
alarms gated later than scoring) and asserts the complete observable
state matches: score logs, score-hook calls, alarm ledgers, bus traffic,
batch structure and fallback counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.streaming.bus import EventBus
from repro.streaming.replay import ReplayEngine
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import (
    CERecord,
    DimmConfigRecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

#: Timestamps live on a coarse grid so exact same-hour ties are common.
GRID_HOURS = 0.25
#: 200 hours of campaign: longer than the 120 h observation window, so CEs
#: age out of the windows they were first served in.
MAX_TICK = 800

#: Primary devices: d and d + 16 share an int64 cell key (``device * 2^60``
#: wraps), so two CEs on the same bank/row/column of devices 0 and 16 land
#: in one cell — an alias every engine must reproduce identically.
ALIASING_DEVICES = (0, 1, 16, 17)

EVENT_KINDS = (
    MemEventKind.CE_STORM,
    MemEventKind.CE_SUPPRESSED,
    MemEventKind.PAGE_OFFLINE,
    MemEventKind.ROW_SPARED,
    MemEventKind.BANK_SPARED,
)


class _SpreadModel:
    """Deterministic scores spread over (0, 1) so alarms fire sometimes."""

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 10.0))


def _config(dimm_id: str, server_id: str, flavor: int) -> DimmConfigRecord:
    return DimmConfigRecord(
        dimm_id=dimm_id,
        server_id=server_id,
        platform="synthetic",
        manufacturer=("m0", "m1")[flavor % 2],
        part_number=f"p{flavor % 3}",
        capacity_gb=(16, 32)[flavor % 2],
        data_width=(4, 8)[flavor % 2],
        frequency_mts=(2400, 2933)[flavor % 2],
        chip_process=("1x", "1y")[flavor % 2],
    )


@st.composite
def stream_case(draw):
    """One synthetic campaign: records (in arrival order) + engine knobs."""
    n_dimms = draw(st.integers(min_value=1, max_value=3))
    records = []
    for i in range(n_dimms):
        dimm, server = f"d{i}", f"s{i % 2}"
        # CEs come in bursts a few ticks wide (exact same-hour ties stay
        # common) spread over the campaign.
        bursts = draw(
            st.lists(st.integers(0, MAX_TICK), min_size=1, max_size=4)
        )
        ticks = sorted(
            min(draw(st.sampled_from(bursts)) + draw(st.integers(0, 3)),
                MAX_TICK)
            for _ in range(draw(st.integers(0, 14)))
        )
        lines = []
        for tick in ticks:
            # Often revisit an earlier CE: its cell, or its row / column
            # with a new cross coordinate, so lines gather >= 3 CEs across
            # >= 2 cross coordinates and cell, row, column and bank faults
            # fire.  A revisit sometimes moves to another (possibly
            # cell-aliasing) device.
            move = draw(st.sampled_from(("new", "cell", "row", "column")))
            if lines and move != "new":
                device, bank, row, column = draw(st.sampled_from(lines))
                if move == "row":
                    column = draw(st.integers(0, 7))
                elif move == "column":
                    row = draw(st.integers(0, 7))
                if draw(st.integers(0, 3)) == 0:
                    device = draw(st.sampled_from(ALIASING_DEVICES))
            else:
                device = draw(st.sampled_from(ALIASING_DEVICES))
                bank = draw(st.integers(0, 3))
                row = draw(st.integers(0, 7))
                column = draw(st.integers(0, 7))
            lines.append((device, bank, row, column))
            records.append(
                CERecord(
                    timestamp_hours=tick * GRID_HOURS,
                    server_id=server,
                    dimm_id=dimm,
                    rank=draw(st.integers(0, 1)),
                    bank=bank,
                    row=row,
                    column=column,
                    devices=tuple(
                        range(device, device + draw(st.integers(1, 2)))
                    ),
                    dq_count=draw(st.integers(1, 4)),
                    beat_count=draw(st.integers(1, 8)),
                    dq_interval=draw(st.integers(0, 4)),
                    beat_interval=draw(st.integers(0, 8)),
                    error_bit_count=draw(st.integers(1, 16)),
                )
            )
        # Storms / repairs / suppressions, often exactly at a CE's hour —
        # the tie the storm-window semantics are most sensitive to.
        for _ in range(draw(st.integers(0, 3))):
            if ticks and draw(st.booleans()):
                tick = draw(st.sampled_from(ticks))
            else:
                tick = draw(st.integers(0, MAX_TICK))
            records.append(
                MemEventRecord(
                    timestamp_hours=tick * GRID_HOURS,
                    server_id=server,
                    dimm_id=dimm,
                    kind=draw(st.sampled_from(EVENT_KINDS)),
                )
            )
        # Optional mid-stream UE, possibly tying a CE timestamp exactly.
        if draw(st.booleans()):
            if ticks and draw(st.booleans()):
                tick = draw(st.sampled_from(ticks))
            else:
                tick = draw(st.integers(0, MAX_TICK))
            records.append(
                UERecord(
                    timestamp_hours=tick * GRID_HOURS,
                    server_id=server,
                    dimm_id=dimm,
                    rank=0,
                    bank=0,
                    row=0,
                    column=0,
                    devices=(0,),
                )
            )
    # Out-of-order arrival: append order is a random permutation.
    order = draw(st.permutations(range(len(records))))
    live_from = draw(st.sampled_from([0.0, MAX_TICK * GRID_HOURS / 2]))
    knobs = {
        "rescore_interval_hours": draw(st.sampled_from([0.0, 1.0])),
        "live_from_hour": live_from,
        "alarm_from_hour": live_from + draw(
            st.sampled_from([0.0, 6.0, MAX_TICK * GRID_HOURS / 4])
        ),
        "batch_size": draw(st.sampled_from([3, 64])),
        "threshold": draw(st.sampled_from([0.45, 0.7, 0.999])),
    }
    return [records[i] for i in order], knobs


def _build_store(records, n_dimms: int = 3) -> LogStore:
    store = LogStore()
    for i in range(n_dimms):
        store.add_config(_config(f"d{i}", f"s{i % 2}", i))
    store.extend(records)
    return store


def _run(
    store, engine: str, knobs: dict
) -> tuple[ReplayEngine, object, list]:
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    calls = []

    def hook(dimm_id, t, features, score):
        calls.append((dimm_id, t, features.tobytes(), score))

    replayer = ReplayEngine(
        pipeline,
        _SpreadModel(),
        knobs["threshold"],
        "synthetic",
        configs=store.configs,
        labeling=LabelingParams(),
        bus=EventBus(),
        live_from_hour=knobs["live_from_hour"],
        alarm_from_hour=knobs["alarm_from_hour"],
        rescore_interval_hours=knobs["rescore_interval_hours"],
        batch_size=knobs["batch_size"],
        engine=engine,
        verify_parity=True,
        score_hook=hook,
        collect_scores=True,
    )
    report = replayer.replay(store, model_name="spread")
    return replayer, report, calls


def _assert_engines_identical(store, knobs):
    batched, b_report, b_calls = _run(store, "batched", knobs)
    per_event, p_report, p_calls = _run(store, "per_event", knobs)
    # The served vectors themselves are pinned against transform_one...
    assert b_report.parity == {
        "checked": b_report.scored, "mismatches": 0
    }
    assert p_report.parity == {
        "checked": p_report.scored, "mismatches": 0
    }
    # ...and every observable output matches the reference loop exactly.
    assert batched.score_log == per_event.score_log
    assert b_calls == p_calls
    assert len(b_calls) == b_report.scored
    assert all(
        incident.opened_hour >= knobs["alarm_from_hour"]
        for incident in batched.alarms.incidents
    )
    assert b_report.scored == p_report.scored
    assert b_report.batches == p_report.batches
    assert b_report.scored_dimms == p_report.scored_dimms
    assert b_report.fallbacks == p_report.fallbacks == 0
    assert b_report.alarms == p_report.alarms
    assert b_report.bus_counts == p_report.bus_counts
    assert (b_report.events, b_report.ces, b_report.ues) == (
        p_report.events, p_report.ces, p_report.ues
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=stream_case())
def test_batched_matches_per_event_on_random_streams(case):
    records, knobs = case
    _assert_engines_identical(_build_store(records), knobs)


class TestDeterministicTies:
    """Hand-built worst cases the randomized sweep should never miss."""

    KNOBS = {
        "rescore_interval_hours": 0.0,
        "live_from_hour": 0.0,
        "alarm_from_hour": 0.0,
        "batch_size": 3,
        "threshold": 0.45,
    }

    def _ce(self, t, dimm="d0", server="s0", **overrides):
        fields = dict(
            timestamp_hours=t, server_id=server, dimm_id=dimm,
            rank=0, bank=1, row=2, column=3, devices=(0,),
            dq_count=2, beat_count=3, dq_interval=1, beat_interval=4,
            error_bit_count=6,
        )
        fields.update(overrides)
        return CERecord(**fields)

    def test_storm_exactly_at_ce_time(self):
        records = [
            self._ce(1.0),
            self._ce(2.0),
            MemEventRecord(
                timestamp_hours=2.0, server_id="s0", dimm_id="d0",
                kind=MemEventKind.CE_STORM,
            ),
            self._ce(2.0),  # same hour as the storm AND the prior CE
            self._ce(3.0),
        ]
        _assert_engines_identical(_build_store(records), self.KNOBS)

    def test_ue_exactly_at_ce_time_then_recovery(self):
        records = [
            self._ce(1.0),
            self._ce(5.0),
            UERecord(
                timestamp_hours=5.0, server_id="s0", dimm_id="d0",
                rank=0, bank=0, row=0, column=0, devices=(0,),
            ),
            # Post-UE CEs open a fresh epoch on the same DIMM.
            self._ce(6.0),
            self._ce(7.0),
        ]
        _assert_engines_identical(_build_store(records), self.KNOBS)

    def test_repair_interleaving_and_rescore_throttle(self):
        records = [
            self._ce(1.0),
            self._ce(1.5),
            MemEventRecord(
                timestamp_hours=1.5, server_id="s0", dimm_id="d0",
                kind=MemEventKind.BANK_SPARED,
            ),
            self._ce(1.75),  # throttled under a 1h rescore interval
            self._ce(3.0),
            MemEventRecord(
                timestamp_hours=3.0, server_id="s0", dimm_id="d0",
                kind=MemEventKind.PAGE_OFFLINE,
            ),
            self._ce(4.0),
        ]
        knobs = dict(self.KNOBS, rescore_interval_hours=1.0)
        _assert_engines_identical(_build_store(records), knobs)

    def test_two_dimms_share_every_timestamp(self):
        records = []
        for t in (1.0, 2.0, 2.0, 3.0):
            records.append(self._ce(t, dimm="d0", server="s0"))
            records.append(self._ce(t, dimm="d1", server="s1"))
        records.append(
            UERecord(
                timestamp_hours=3.0, server_id="s1", dimm_id="d1",
                rank=0, bank=0, row=0, column=0, devices=(0,),
            )
        )
        _assert_engines_identical(_build_store(records), self.KNOBS)

    def test_empty_and_config_only_stream(self):
        _assert_engines_identical(_build_store([]), self.KNOBS)


class TestRealCampaignCrossEngine:
    """Both engines on a real simulated campaign (storms, repairs, UEs)."""

    @pytest.mark.parametrize("rescore", [0.0, 1.0 / 12.0])
    def test_purley_tiny_campaign(self, tiny_study, rescore):
        simulation = tiny_study["intel_purley"]
        pipeline = FeaturePipeline()
        pipeline.fit(simulation.store)
        logs = {}
        reports = {}
        for engine in ("batched", "per_event"):
            replayer = ReplayEngine(
                pipeline,
                _SpreadModel(),
                0.985,
                "intel_purley",
                configs=simulation.store.configs,
                labeling=LabelingParams(),
                bus=EventBus(),
                live_from_hour=simulation.duration_hours * 0.6,
                rescore_interval_hours=rescore,
                batch_size=64,
                engine=engine,
                collect_scores=True,
            )
            reports[engine] = replayer.replay(
                simulation.store, model_name="spread"
            )
            logs[engine] = replayer.score_log
        assert logs["batched"] == logs["per_event"]
        assert (
            reports["batched"].alarms == reports["per_event"].alarms
        )
        assert (
            reports["batched"].bus_counts
            == reports["per_event"].bus_counts
        )
        assert reports["batched"].batches == reports["per_event"].batches
        assert reports["batched"].scored > 0
