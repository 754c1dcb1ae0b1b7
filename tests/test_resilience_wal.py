"""WAL round-trips, torn-tail/corruption recovery, and replay identity.

The property tests drive :mod:`repro.resilience.wal` with arbitrary
JSON-able payloads and arbitrary crash points: whatever the payload and
wherever the "crash" cut or corrupted the log, reopening must recover
exactly the longest valid record prefix — never raise, never resurrect
bytes past the damage.  The recovery tests then check the full contract:
replaying a WAL through :func:`repro.resilience.recovery.recover` yields an
engine answering identically to an uninterrupted serial replay.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset
from repro.engine import UTKEngine
from repro.resilience.recovery import (
    cleanup_orphan_segments,
    read_shm_manifest,
    recover,
    write_shm_manifest,
)
from repro.resilience.wal import (
    WALCorruption,
    WriteAheadLog,
    decode_record,
    encode_record,
    read_wal,
    wal_segments,
)
from repro.serve.engine import ServeEngine

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

_events = st.dictionaries(st.text(max_size=8), _json_values, max_size=4)

_txids = st.none() | st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=16
)


class TestRecordCodec:
    @given(seq=st.integers(min_value=1, max_value=10**12), event=_events,
           txid=_txids)
    @settings(max_examples=60)
    def test_roundtrip_any_payload(self, seq, event, txid):
        record = decode_record(encode_record(seq, event, txid))
        assert record.seq == seq
        assert record.event == event
        assert record.txid == txid

    @given(event=_events)
    @settings(max_examples=30)
    def test_any_single_byte_flip_in_the_body_is_detected(self, event):
        line = encode_record(1, event, "tx")
        # Flip a byte inside the crc field — always detectable; body flips
        # may produce invalid JSON instead, also rejected.
        payload = json.loads(line)
        payload["crc"] = ("0" * 8 if payload["crc"] != "0" * 8 else "f" * 8)
        tampered = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode() + b"\n"
        with pytest.raises(WALCorruption, match="checksum"):
            decode_record(tampered)

    def test_missing_fields_and_bad_types_are_corruption(self):
        with pytest.raises(WALCorruption, match="missing"):
            decode_record(b'{"seq": 1, "event": {}}')
        with pytest.raises(WALCorruption, match="types"):
            decode_record(b'{"seq": "x", "event": {}, "crc": "00000000"}')
        with pytest.raises(WALCorruption, match="undecodable"):
            decode_record(b"not json at all")


def _fill(wal_dir, events, *, segment_max=1024):
    wal = WriteAheadLog(wal_dir, segment_max_records=segment_max)
    for index, event in enumerate(events):
        wal.append(event, txid=f"t{index}")
    wal.close()
    return wal


class TestScanAndReopen:
    @given(events=st.lists(_events, min_size=1, max_size=8),
           cut=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40)
    def test_torn_tail_recovers_the_acked_prefix(self, tmp_path_factory,
                                                 events, cut):
        wal_dir = tmp_path_factory.mktemp("wal")
        _fill(wal_dir, events)
        segment = wal_segments(wal_dir)[-1]
        raw = segment.read_bytes()
        lines = raw.splitlines(keepends=True)
        tail = lines[-1]
        cut = min(cut, len(tail) - 1)  # keep at least the newline missing
        segment.write_bytes(b"".join(lines[:-1]) + tail[:cut])
        scan = read_wal(wal_dir)
        assert len(scan.records) == len(events) - 1
        assert [r.event for r in scan.records] == events[:-1]
        assert scan.truncated_reason is not None
        # Reopening repairs: the cut bytes move aside, appends resume.
        reopened = WriteAheadLog(wal_dir)
        assert [r.event for r in reopened.recovered_records] == events[:-1]
        assert reopened.last_seq == len(events) - 1
        seq = reopened.append({"op": "probe"})
        assert seq == len(events)
        reopened.close()
        assert any(p.name.endswith(".corrupt") for p in wal_dir.iterdir())

    def test_midfile_corruption_stops_at_last_valid_prefix(self, tmp_path):
        events = [{"op": "insert", "values": [float(i)]} for i in range(6)]
        _fill(tmp_path, events)
        segment = wal_segments(tmp_path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3][:10] + b"X" + lines[3][11:]  # corrupt record 4
        segment.write_bytes(b"".join(lines))
        scan = read_wal(tmp_path)
        assert len(scan.records) == 3
        assert scan.truncated_reason is not None
        reopened = WriteAheadLog(tmp_path)
        assert len(reopened.recovered_records) == 3
        reopened.close()

    def test_sequence_gap_is_not_trusted(self, tmp_path):
        wal_dir = tmp_path
        segment = wal_dir / "wal-00000000.jsonl"
        segment.write_bytes(
            encode_record(1, {"a": 1}) + encode_record(3, {"a": 3})
        )
        scan = read_wal(wal_dir)
        assert len(scan.records) == 1
        assert "sequence gap" in scan.truncated_reason

    def test_rotation_splits_segments_and_reopen_replays_all(self, tmp_path):
        events = [{"op": "insert", "values": [float(i)]} for i in range(10)]
        _fill(tmp_path, events, segment_max=3)
        assert len(wal_segments(tmp_path)) >= 4
        reopened = WriteAheadLog(tmp_path, segment_max_records=3)
        assert [r.event for r in reopened.recovered_records] == events
        assert [r.txid for r in reopened.recovered_records] == [
            f"t{i}" for i in range(10)
        ]
        reopened.close()

    def test_corruption_distrusts_later_segments_too(self, tmp_path):
        events = [{"op": "insert", "values": [float(i)]} for i in range(9)]
        _fill(tmp_path, events, segment_max=3)
        first = wal_segments(tmp_path)[0]
        lines = first.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"seq": 2, "event": {}, "crc": "00000000"}\n'
        first.write_bytes(b"".join(lines))
        reopened = WriteAheadLog(tmp_path, segment_max_records=3)
        assert len(reopened.recovered_records) == 1
        # Later segments were renamed aside, not silently replayed.
        assert len(reopened.segment_paths()) == 1
        assert sum(1 for p in tmp_path.iterdir()
                   if p.name.endswith(".corrupt")) >= 3
        reopened.close()


@pytest.fixture
def data():
    return synthetic_dataset("IND", 60, 3, seed=5)


_UPDATES = [
    {"op": "insert", "values": [9.0, 9.0, 9.0]},
    {"op": "insert", "values": [0.5, 8.5, 4.0]},
    {"op": "delete", "id": 3},
    {"op": "insert", "values": [7.5, 1.5, 6.0]},
    {"op": "delete", "id": 60},
]


class TestRecover:
    def test_replay_matches_uninterrupted_serial_engine(self, tmp_path, data):
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir)
        for index, event in enumerate(_UPDATES):
            wal.append(event, txid=f"t{index}")
        wal.close()

        result = recover(data, wal_dir)
        serial = UTKEngine(data)
        try:
            serial.apply_updates(_UPDATES)
            assert result.replayed == len(_UPDATES)
            assert set(result.txids) == {f"t{i}" for i in range(len(_UPDATES))}
            assert result.txids["t2"]["record"] == 3
            region = hyperrectangle([0.1, 0.1], [0.4, 0.4])
            for k in (2, 3):
                assert sorted(result.engine.utk1(region, k).indices) == sorted(
                    serial.utk1(region, k).indices
                )
            assert len(result.engine.store) == len(serial.store)
        finally:
            result.engine.close()
            result.wal.close()
            serial.close()

    def test_recover_tolerates_a_torn_tail(self, tmp_path, data):
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir)
        for event in _UPDATES:
            wal.append(event)
        wal.close()
        segment = wal_segments(wal_dir)[-1]
        segment.write_bytes(segment.read_bytes()[:-7])  # tear the last record
        result = recover(data, wal_dir)
        try:
            assert result.replayed == len(_UPDATES) - 1
            assert result.truncated_reason is not None
        finally:
            result.engine.close()
            result.wal.close()

    def test_manifest_roundtrip_and_orphan_cleanup(self, tmp_path, data):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        engine = ServeEngine(data)
        names = engine.shm_segment_names()
        assert names
        write_shm_manifest(wal_dir, names)
        assert read_shm_manifest(wal_dir) == sorted(names)
        # A SIGKILL'd owner never unlinks; cleanup must (unlink only removes
        # the names — the live engine's mappings stay valid).
        removed = cleanup_orphan_segments(wal_dir)
        assert sorted(removed) == sorted(names)
        assert cleanup_orphan_segments(wal_dir) == []  # idempotent
        engine.close()

    def test_recover_seeds_server_dedup_across_restart(self, tmp_path, data):
        """A txid WAL'd before a crash must ack, not re-apply, after it."""
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir)
        wal.append(_UPDATES[0], txid="client-1-1")
        wal.close()
        result = recover(data, wal_dir)
        try:
            assert result.txids["client-1-1"]["applied"] == 1
        finally:
            result.engine.close()
            result.wal.close()
