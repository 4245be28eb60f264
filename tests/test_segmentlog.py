"""Crash consistency of the segment log under both of its clients.

One small log per client — a campaign journal and a telemetry shard
directory, two segments each — is damaged one way at a time: every
segment truncated at every byte offset, and every byte XORed with 0xFF.
The reader must either return, per segment, exactly the records whose
lines the damage left intact (counting a discarded tail when it skipped a
damaged final line), or raise CorruptLog when the damage is anywhere but
a segment's final line. The journal must only ever return a global
prefix. A WAL written before the CRC-prefix line format still replays.
"""

import shutil
from pathlib import Path

import pytest

from repro.errors import CorruptLog
from repro.segmentlog import LogReader, decode_line, encode_line
from repro.service.journal import Journal, read_journal, segment_paths
from repro.telemetry import (
    ShardedJsonlSink,
    Telemetry,
    iter_shard_records,
    shard_paths,
)

WAL_V1 = Path(__file__).parent / "goldens" / "wal_v1"


def _journal_log(directory):
    """Two journal segments of two records each (a reopen starts one)."""
    for first in (0, 2):
        journal = Journal(directory, fsync=False)
        for i in (first, first + 1):
            journal.append_commit("tick", i=i, note="x" * i)
        journal.close()
    return segment_paths(directory)


def _shard_log(directory):
    """Two telemetry shards of two instants each (``flush`` rotates)."""
    telemetry = Telemetry(sink=ShardedJsonlSink(directory))
    for i in range(4):
        telemetry.instant("tick", "crash", time=float(i), i=i)
        if i == 1:
            telemetry.flush()
    telemetry.close()
    return shard_paths(directory)


def _read_journal(directory):
    replay = read_journal(directory)
    return replay.records, replay.discarded_tails


def _read_shards(directory):
    reader = iter_shard_records(directory)
    return list(reader), reader.discarded_tails


CLIENTS = {
    "journal": (_journal_log, _read_journal),
    "shards": (_shard_log, _read_shards),
}


def _damages(data):
    """``(label, damaged bytes, offset of the first damaged byte)``."""
    for cut in range(len(data)):
        yield f"truncate@{cut}", data[:cut], cut
    for at in range(len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 0xFF
        yield f"flip@{at}", bytes(flipped), at


@pytest.mark.parametrize("client", sorted(CLIENTS))
def test_every_truncation_and_flip_yields_a_prefix_or_corruptlog(
    tmp_path, client
):
    build, read = CLIENTS[client]
    directory = tmp_path / client
    paths = build(directory)
    assert len(paths) == 2
    written = [list(LogReader([path])) for path in paths]
    assert all(len(records) == 2 for records in written)
    flat = [record for records in written for record in records]
    assert read(directory) == (flat, 0)

    for s, path in enumerate(paths):
        original = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(original) if byte == 0x0A]
        for label, damaged, first_bad in _damages(original):
            path.write_bytes(damaged)
            kept = sum(1 for end in ends if end <= first_bad)
            rest = damaged[ends[kept - 1] if kept else 0:]
            torn_tail = b"\n" not in rest[:-1]
            want = [
                record
                for j, records in enumerate(written)
                for record in (records[:kept] if j == s else records)
            ]
            # A torn tail is tolerable only where a crash could leave one:
            # any segment's end for shards, the journal's last segment
            # (elsewhere the missing records break the seq chain).
            tolerable = torn_tail and (
                client == "shards" or s == len(paths) - 1
            )
            try:
                got, discarded = read(directory)
            except CorruptLog:
                assert not tolerable, f"{path.name} {label}: raised"
                continue
            assert tolerable, f"{path.name} {label}: read on past damage"
            assert got == want, f"{path.name} {label}: wrong records"
            assert discarded == (1 if rest else 0), f"{path.name} {label}"
            if client == "journal":
                assert got == flat[:len(got)], f"{label}: not a prefix"
        path.write_bytes(original)


def test_line_codec_round_trips_and_rejects_damage():
    record = {"type": "x", "seq": 3, "attrs": {"k": [1, 2.5, None]}}
    line = encode_line(record)
    assert decode_line(line) == record
    assert line[8:9] == b" " and line.endswith(b"\n")
    assert decode_line(line[:-1]) is None  # no newline: torn
    assert decode_line(line.replace(b"2.5", b"2.6")) is None
    assert decode_line(encode_line({"a": 1})[:9] + b"[1]\n") is None


class TestLegacyWal:
    def _copy(self, tmp_path):
        directory = tmp_path / "wal"
        shutil.copytree(WAL_V1, directory)
        return directory

    def test_pre_prefix_journal_replays(self, tmp_path):
        replay = read_journal(self._copy(tmp_path))
        assert [r["seq"] for r in replay.records] == list(range(1, 8))
        assert [r["type"] for r in replay.records] == [
            "campaign", "ingest", "lease", "heartbeat", "complete",
            "lease", "requeue",
        ]
        assert replay.records[4]["result"] == {"n": 16, "value": 0.785}
        assert all("crc" not in r for r in replay.records)
        assert replay.discarded_tails == 0

    def test_reopened_journal_appends_prefix_lines_after_it(self, tmp_path):
        directory = self._copy(tmp_path)
        legacy = read_journal(directory).records
        journal = Journal(directory, fsync=False)
        assert journal.last_seq == 7
        journal.append_commit("complete", job_id="b", result={"n": 16})
        journal.close()
        record = {"seq": 8, "type": "complete", "job_id": "b",
                  "result": {"n": 16}}
        newest = segment_paths(directory)[-1]
        assert newest.name == "wal-00000005.jsonl"
        assert newest.read_bytes() == encode_line(record)
        assert read_journal(directory).records == legacy + [record]
