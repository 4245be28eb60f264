"""Tests for the out-of-core telemetry plane: the sharded JSONL sink, the
deterministic shard stitcher (byte-identity at every shard size, including
one-record shards), and the bounded-memory incremental aggregators."""

import pytest

from repro.errors import ConfigurationError, CorruptLog
from repro.segmentlog import encode_line
from repro.telemetry import (
    DEFAULT_SHARD_MAX_BYTES,
    ShardAggregator,
    ShardedJsonlSink,
    SpanSink,
    Telemetry,
    chrome_trace_json,
    iter_shard_records,
    load_shards,
    shard_paths,
    summary,
    to_jsonl,
)
from repro.telemetry.export import iter_jsonl_records
from repro.telemetry.scenarios import run_scenario, run_scenario_replicas


def _spill_scenario(tmp_path, name="dag", seed=0, shard_max_bytes=4096):
    directory = tmp_path / f"shards-{name}-{shard_max_bytes}"
    sink = ShardedJsonlSink(directory, shard_max_bytes=shard_max_bytes)
    telemetry = run_scenario(name, seed=seed, sink=sink).telemetry
    telemetry.close()
    return directory, sink


class TestShardedJsonlSink:
    def test_satisfies_the_sink_protocol(self, tmp_path):
        assert isinstance(ShardedJsonlSink(tmp_path / "s"), SpanSink)

    def test_spills_and_counts_every_record(self, tmp_path):
        baseline = run_scenario("dag", seed=0).telemetry
        directory, sink = _spill_scenario(tmp_path)
        assert sink.n_spans == len(baseline.spans)
        assert sink.n_instants == len(baseline.instants)
        assert sink.n_samples == len(baseline.samples)
        assert sink.n_shards == len(shard_paths(directory)) > 1

    def test_one_record_per_shard_at_minimum_size(self, tmp_path):
        directory, sink = _spill_scenario(tmp_path, shard_max_bytes=1)
        paths = shard_paths(directory)
        assert len(paths) == sink.n_shards
        for path in paths:
            assert len(path.read_bytes().splitlines()) == 1

    def test_flush_rotates_partial_buffer(self, tmp_path):
        sink = ShardedJsonlSink(tmp_path / "s")
        telemetry = Telemetry(sink=sink)
        with telemetry.span("step", "bench"):
            pass
        assert shard_paths(tmp_path / "s") == []
        telemetry.flush()
        assert len(shard_paths(tmp_path / "s")) == 1

    def test_close_is_idempotent_and_seals(self, tmp_path):
        sink = ShardedJsonlSink(tmp_path / "s")
        telemetry = Telemetry(sink=sink)
        telemetry.instant("boot", "lifecycle")
        telemetry.close()
        telemetry.close()
        with pytest.raises(ConfigurationError, match="closed"):
            telemetry.instant("late", "lifecycle")

    def test_counts_only_records_the_closed_log_took(self, tmp_path):
        sink = ShardedJsonlSink(tmp_path / "s")
        telemetry = Telemetry(sink=sink)
        telemetry.instant("boot", "lifecycle")
        telemetry.close()
        late = telemetry.begin("late", "lifecycle")
        with pytest.raises(ConfigurationError, match="closed"):
            telemetry.end(late)
        with pytest.raises(ConfigurationError, match="closed"):
            telemetry.instant("late", "lifecycle")
        with pytest.raises(ConfigurationError, match="closed"):
            telemetry.sample("pool", 1.0, 2.0)
        assert (sink.n_spans, sink.n_instants, sink.n_samples) == (0, 1, 0)
        assert [r["type"] for r in iter_shard_records(tmp_path / "s")] == [
            "instant"
        ]

    def test_rejects_nonpositive_shard_size(self, tmp_path):
        with pytest.raises(ConfigurationError, match="positive"):
            ShardedJsonlSink(tmp_path / "s", shard_max_bytes=0)

    def test_rejects_directory_with_existing_shards(self, tmp_path):
        _spill_scenario(tmp_path / "run", shard_max_bytes=1 << 20)
        existing = shard_paths(tmp_path / "run" / "shards-dag-1048576")
        assert existing
        with pytest.raises(ConfigurationError, match="fresh directory"):
            ShardedJsonlSink(existing[0].parent)

    def test_sink_backed_handle_refuses_materialized_views(self, tmp_path):
        sink = ShardedJsonlSink(tmp_path / "s")
        telemetry = Telemetry(sink=sink)
        with telemetry.span("step", "bench"):
            pass
        with pytest.raises(ConfigurationError, match="sink-backed"):
            telemetry.finished_spans()
        with pytest.raises(ConfigurationError, match="spilled"):
            chrome_trace_json(telemetry)


class TestShardStitcher:
    @pytest.mark.parametrize("shard_max_bytes", [1, 512, 4096,
                                                 DEFAULT_SHARD_MAX_BYTES])
    @pytest.mark.parametrize("scenario", ["dag", "scheduler"])
    def test_exports_byte_identical_at_any_shard_size(
        self, tmp_path, scenario, shard_max_bytes
    ):
        baseline = run_scenario(scenario, seed=0).telemetry
        directory, _ = _spill_scenario(
            tmp_path, name=scenario, shard_max_bytes=shard_max_bytes
        )
        stitched = load_shards(directory)
        assert chrome_trace_json(stitched) == chrome_trace_json(baseline)
        assert to_jsonl(stitched) == to_jsonl(baseline)
        assert summary(stitched) == summary(baseline)

    def test_replica_merge_through_sink_matches_in_memory(self, tmp_path):
        baseline, _ = run_scenario_replicas("dag", n_replicas=3)
        sink = ShardedJsonlSink(tmp_path / "s", shard_max_bytes=4096)
        merged, _ = run_scenario_replicas("dag", n_replicas=3, sink=sink)
        merged.close()
        stitched = load_shards(tmp_path / "s")
        assert to_jsonl(stitched) == to_jsonl(baseline)
        assert chrome_trace_json(stitched) == chrome_trace_json(baseline)

    def test_restores_span_id_allocator(self, tmp_path):
        directory, sink = _spill_scenario(tmp_path)
        stitched = load_shards(directory)
        assert stitched._next_id == max(s.span_id for s in stitched.spans) + 1
        assert sink.n_spans == len(stitched.spans)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no telemetry shards"):
            load_shards(tmp_path)
        with pytest.raises(ConfigurationError, match="no telemetry shards"):
            list(iter_shard_records(tmp_path))

    def test_damaged_record_names_file_and_line(self, tmp_path):
        directory, _ = _spill_scenario(tmp_path, shard_max_bytes=1 << 20)
        victim = shard_paths(directory)[0]
        lines = victim.read_bytes().splitlines()
        lines[2] = b"{not json"
        victim.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CorruptLog,
                           match=rf"{victim.name}:3"):
            list(iter_shard_records(directory))

    def test_unknown_record_type_raises(self, tmp_path):
        directory, _ = _spill_scenario(tmp_path, shard_max_bytes=1 << 20)
        victim = shard_paths(directory)[0]
        with open(victim, "ab") as fh:
            fh.write(encode_line({"type": "mystery"}))
        with pytest.raises(ConfigurationError, match="mystery"):
            load_shards(directory)


class TestShardAggregator:
    def test_record_order_rollup_is_float_exact(self, tmp_path):
        baseline = run_scenario("dag", seed=0).telemetry
        directory, _ = _spill_scenario(tmp_path)
        aggregator = ShardAggregator()
        for record in iter_shard_records(directory):
            aggregator.consume(record)

        assert aggregator.n_spans == len(baseline.spans)
        assert aggregator.n_instants == len(baseline.instants)
        assert aggregator.n_samples == len(baseline.samples)
        assert aggregator.n_root_spans == sum(
            1 for s in baseline.spans if s.parent_id is None
        )
        assert aggregator.max_span_id == max(
            s.span_id for s in baseline.spans
        )
        # a sequential ``+=`` oracle over the spilled records lands on the
        # rollup's bits exactly (same additions, same order)
        totals: dict[str, float] = {}
        busy: dict[str, float] = {}
        last: dict[str, tuple[float, float]] = {}
        for record in iter_shard_records(directory):
            if record["type"] == "span":
                cat = record["cat"]
                totals[cat] = totals.get(cat, 0.0) + (
                    record["end"] - record["start"]
                )
            elif record["type"] == "sample":
                resource = record["resource"]
                if resource in last:
                    t0, v0 = last[resource]
                    busy[resource] += v0 * (record["time"] - t0)
                else:
                    busy[resource] = 0.0
                last[resource] = (record["time"], record["value"])
        assert {c: s.total for c, s in aggregator.by_category.items()} == totals
        assert {r: a.busy_time()
                for r, a in aggregator.utilization.items()} == busy

        # the in-memory rollup (what ``summary`` prints) sees the samples
        # in the same order, so everything but the category sums matches
        # bit for bit; spans spill in end order, not begin order, so those
        # sums may differ in their last bits
        in_memory = ShardAggregator()
        for record in iter_jsonl_records(baseline):
            in_memory.consume(record)
        shard, memory = aggregator.as_dict(), in_memory.as_dict()
        shard_cats, memory_cats = shard.pop("categories"), memory.pop(
            "categories"
        )
        assert shard == memory
        assert shard_cats.keys() == memory_cats.keys()
        for cat, stats in shard_cats.items():
            for key in ("n", "min", "max"):
                assert stats[key] == memory_cats[cat][key]
            assert stats["total"] == pytest.approx(
                memory_cats[cat]["total"], rel=1e-12
            )
        assert shard["metrics"] == baseline.metrics.as_dict()

    def test_directory_rollup_equals_record_order_consume(self, tmp_path):
        # seed-0 scheduler shards at 1 KiB: summing shard by shard and then
        # merging would round the job and queue-wait totals differently
        directory, _ = _spill_scenario(tmp_path, name="scheduler",
                                       shard_max_bytes=1024)
        record_order = ShardAggregator()
        for record in iter_shard_records(directory):
            record_order.consume(record)
        rollup = ShardAggregator().consume_directory(directory)
        assert rollup.as_dict() == record_order.as_dict()

    def test_category_stats_match_baseline_counts(self, tmp_path):
        baseline = run_scenario("dag", seed=0).telemetry
        directory, _ = _spill_scenario(tmp_path)
        rollup = ShardAggregator().consume_directory(directory)
        for category, stats in rollup.by_category.items():
            durations = [s.duration for s in baseline.spans
                         if s.category == category]
            assert stats.n == len(durations)
            assert stats.min == min(durations)
            assert stats.max == max(durations)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no telemetry shards"):
            ShardAggregator().consume_directory(tmp_path)
