"""Tests for the write-ahead journal: durability, rotation, replay tolerance."""

import errno
import json
import os
import zlib

import pytest

from repro import segmentlog
from repro.errors import ConfigurationError, CorruptLog
from repro.service import journal as journal_module
from repro.service.journal import (
    Journal,
    read_journal,
    segment_paths,
)
from repro.telemetry import MetricsRegistry


def _write(tmp_path, records, **kwargs):
    journal = Journal(tmp_path, **kwargs)
    for type_, payload in records:
        journal.append_commit(type_, **payload)
    journal.close()
    return journal


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        _write(tmp_path, [("ingest", {"jobs": ["a"]}),
                          ("lease", {"session": "s", "jobs": ["a"]})])
        replay = read_journal(tmp_path)
        assert [r["type"] for r in replay.records] == ["ingest", "lease"]
        assert [r["seq"] for r in replay.records] == [1, 2]
        assert replay.discarded_tails == 0

    def test_empty_directory(self, tmp_path):
        replay = read_journal(tmp_path / "missing")
        assert replay.records == [] and replay.last_seq == 0

    def test_reserved_fields_rejected(self, tmp_path):
        journal = Journal(tmp_path)
        with pytest.raises(ConfigurationError):
            journal.append("x", seq=1)
        journal.close()

    def test_closed_journal_rejects_append(self, tmp_path):
        journal = Journal(tmp_path)
        journal.close()
        with pytest.raises(ConfigurationError):
            journal.append("x")

    def test_metrics_count_fsyncs(self, tmp_path):
        metrics = MetricsRegistry()
        journal = Journal(tmp_path, metrics=metrics)
        journal.append_commit("a")
        journal.append_commit("b")
        journal.close()
        assert metrics.counter("journal.fsyncs").value >= 2
        assert metrics.counter("journal.records").value == 2


class TestRotation:
    def test_segments_rotate_and_replay_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "SEGMENT_MAX_BYTES", 200)
        journal = Journal(tmp_path)
        for i in range(25):
            journal.append_commit("tick", i=i)
        journal.close()
        assert len(segment_paths(tmp_path)) > 1
        replay = read_journal(tmp_path)
        assert [r["i"] for r in replay.records] == list(range(25))

    def test_reopen_starts_fresh_segment(self, tmp_path):
        _write(tmp_path, [("a", {})])
        journal = Journal(tmp_path)
        journal.append_commit("b")
        journal.close()
        assert len(segment_paths(tmp_path)) == 2
        replay = read_journal(tmp_path)
        assert [r["type"] for r in replay.records] == ["a", "b"]
        assert [r["seq"] for r in replay.records] == [1, 2]


class TestReplayTolerance:
    def test_torn_tail_discarded(self, tmp_path):
        _write(tmp_path, [("a", {}), ("b", {})])
        segment = segment_paths(tmp_path)[-1]
        with open(segment, "ab") as fh:
            fh.write(b'{"seq":3,"type":"c","crc"')  # torn mid-write
        replay = read_journal(tmp_path)
        assert [r["type"] for r in replay.records] == ["a", "b"]
        assert replay.discarded_tails == 1

    def test_torn_last_line_with_bad_crc_discarded(self, tmp_path):
        _write(tmp_path, [("a", {})])
        segment = segment_paths(tmp_path)[-1]
        record = {"seq": 2, "type": "b", "crc": 12345}  # wrong crc
        with open(segment, "ab") as fh:
            fh.write(json.dumps(record).encode() + b"\n")
        replay = read_journal(tmp_path)
        assert [r["type"] for r in replay.records] == ["a"]
        assert replay.discarded_tails == 1

    def test_mid_segment_damage_is_fatal(self, tmp_path):
        _write(tmp_path, [("a", {}), ("b", {}), ("c", {})])
        segment = segment_paths(tmp_path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"garbage not json\n"
        segment.write_bytes(b"".join(lines))
        with pytest.raises(CorruptLog, match="mid-segment"):
            read_journal(tmp_path)

    def test_seq_gap_is_fatal(self, tmp_path):
        _write(tmp_path, [("a", {}), ("b", {}), ("c", {})])
        segment = segment_paths(tmp_path)[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        del lines[1]  # drop seq 2 -> gap, but line 3 still valid
        segment.write_bytes(b"".join(lines))
        with pytest.raises(CorruptLog, match="discontinuity"):
            read_journal(tmp_path)

    def test_crc_protects_payload_tampering(self, tmp_path):
        _write(tmp_path, [("lease", {"session": "s1"}), ("x", {})])
        segment = segment_paths(tmp_path)[-1]
        raw = segment.read_bytes().replace(b'"s1"', b'"s2"')
        segment.write_bytes(raw)
        with pytest.raises(CorruptLog):
            read_journal(tmp_path)

    def test_crc_matches_manual_computation(self, tmp_path):
        _write(tmp_path, [("a", {"k": 1})])
        line = segment_paths(tmp_path)[-1].read_bytes()
        assert line.endswith(b"\n")
        crc, body = line[:-1].split(b" ", 1)
        record = json.loads(body)
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":")).encode()
        assert body == canonical
        assert crc == b"%08x" % zlib.crc32(canonical)

    def test_nonnumeric_segment_name_is_fatal(self, tmp_path):
        _write(tmp_path, [("a", {})])
        (tmp_path / "wal-evil.jsonl").write_text("{}\n")
        with pytest.raises(CorruptLog, match="non-numeric"):
            read_journal(tmp_path)


class TestFailStop:
    """A failed write must not cost a seq or let later records land after
    a possibly partial one: the journal closes, and a reopen continues at
    the last durable seq + 1."""

    @pytest.mark.parametrize("fault", ["write", "fsync"])
    def test_failed_commit_closes_and_reopen_continues(
        self, tmp_path, monkeypatch, fault
    ):
        _write(tmp_path, [("ingest", {"jobs": ["a"]}),
                          ("lease", {"session": "s", "jobs": ["a"]})])
        acked = read_journal(tmp_path).records

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        class FullDisk:
            def __init__(self, fh):
                self._fh = fh
                self.write = no_space

            def __getattr__(self, name):
                return getattr(self._fh, name)

        journal = Journal(tmp_path)
        if fault == "write":
            monkeypatch.setattr(
                segmentlog, "open",
                lambda path, mode: FullDisk(open(path, mode)), raising=False,
            )
        else:
            monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(OSError):
            journal.append_commit("ingest", jobs=["b" * 4096])
        monkeypatch.undo()
        with pytest.raises(ConfigurationError, match="closed"):
            journal.append("complete", job_id="a")
        journal.close()

        replay = read_journal(tmp_path)
        assert replay.records[:2] == acked
        assert replay.last_seq in (2, 3)
        reopened = Journal(tmp_path)
        record = reopened.append_commit("complete", job_id="a")
        reopened.close()
        assert record["seq"] == replay.last_seq + 1
        assert [r["seq"] for r in read_journal(tmp_path).records] == list(
            range(1, record["seq"] + 1)
        )

    def test_unencodable_payload_consumes_no_seq(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append_commit("a")
        with pytest.raises(TypeError):
            journal.append_commit("b", blob=object())
        journal.append_commit("c")
        journal.close()
        replay = read_journal(tmp_path)
        assert [(r["seq"], r["type"]) for r in replay.records] == [
            (1, "a"), (2, "c"),
        ]


class TestOpenReplay:
    def test_replay_read_at_open_is_handed_over_once(self, tmp_path):
        _write(tmp_path, [("a", {}), ("b", {})])
        journal = Journal(tmp_path)
        replay = journal.take_replay()
        assert replay.records == read_journal(tmp_path).records
        assert journal.last_seq == replay.last_seq == 2
        with pytest.raises(ConfigurationError, match="already taken"):
            journal.take_replay()
        journal.close()
