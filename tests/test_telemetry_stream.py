"""Tests for the out-of-core telemetry plane: the sharded JSONL sink, the
deterministic shard stitcher (byte-identity at every shard size, including
one-record shards), and the bounded-memory incremental aggregators."""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, CorruptLog
from repro.segmentlog import encode_line
from repro.telemetry import (
    DEFAULT_SHARD_MAX_BYTES,
    ShardAggregator,
    ShardedJsonlSink,
    Telemetry,
    chrome_trace_json,
    iter_shard_records,
    load_shards,
    shard_paths,
    summary,
    to_jsonl,
)
from repro.telemetry.context import split_records
from repro.telemetry.export import iter_jsonl_records
from repro.telemetry.scenarios import run_scenario, run_scenario_replicas

from tests.hypothesis_settings import STANDARD_SETTINGS


def _spill_scenario(tmp_path, name="dag", seed=0, shard_max_bytes=4096):
    directory = tmp_path / f"shards-{name}-{shard_max_bytes}"
    sink = ShardedJsonlSink(directory, shard_max_bytes=shard_max_bytes)
    telemetry = run_scenario(name, seed=seed, sink=sink).telemetry
    telemetry.close()
    return directory, sink


class TestShardedJsonlSink:
    def test_spills_and_counts_every_record(self, tmp_path):
        baseline = run_scenario("dag", seed=0).telemetry
        directory, sink = _spill_scenario(tmp_path)
        spans, instants, samples = split_records(baseline.records)
        assert sink.n_spans == len(spans)
        assert sink.n_instants == len(instants)
        assert sink.n_samples == len(samples)
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

    def test_spilling_keeps_peak_memory_flat_in_trace_length(self, tmp_path):
        """The point of the sink: a sharded handle's traced peak does not
        grow with the trace, while an in-memory handle's grows with it."""

        def traced_peak(n_spans, directory=None):
            tracemalloc.start()
            try:
                sink = None
                if directory is not None:
                    sink = ShardedJsonlSink(directory, shard_max_bytes=64 * 1024)
                telemetry = Telemetry(sink=sink)
                for i in range(n_spans):
                    span = telemetry.begin("step", "bench", facility="f",
                                           time=float(i), attrs={"i": i})
                    if i % 10 == 0:
                        telemetry.sample("nodes", float(i % 8), 8.0,
                                         time=float(i), facility="f")
                    telemetry.end(span, time=float(i) + 0.5)
                telemetry.close()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        in_memory = [traced_peak(n) for n in (500, 2_000)]
        sharded = [traced_peak(n, tmp_path / f"s{n}") for n in (500, 2_000)]
        assert in_memory[1] > 3 * in_memory[0]
        assert sharded[1] < 1.25 * sharded[0]
        assert sharded[1] < 0.5 * in_memory[1]
        assert len(shard_paths(tmp_path / "s2000")) > 1

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
        with pytest.raises(ConfigurationError, match="sink-backed"):
            telemetry.records
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
        spans = stitched.finished_spans()
        assert stitched._next_id == max(s["id"] for s in spans) + 1
        assert sink.n_spans == len(spans)

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

        spans, instants, samples = split_records(baseline.records)
        assert aggregator.n_spans == len(spans)
        assert aggregator.n_instants == len(instants)
        assert aggregator.n_samples == len(samples)
        assert aggregator.n_root_spans == sum(
            1 for s in spans if s["parent"] is None
        )
        assert aggregator.max_span_id == max(s["id"] for s in spans)
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
            durations = [s["end"] - s["start"]
                         for s in baseline.finished_spans(category)]
            assert stats.n == len(durations)
            assert stats.min == min(durations)
            assert stats.max == max(durations)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no telemetry shards"):
            ShardAggregator().consume_directory(tmp_path)


# -- the record plane under random programs ----------------------------------------

_TIMES = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
_LABELS = st.sampled_from(["step", "io", "fault", "Gipfel \u26f0", 'q"uote'])
_FACILITIES = st.sampled_from(["sim", "Summit", "edge\tsite"])
_TRACKS = st.sampled_from(["main", "node 0", "node 1"])
_RESOURCES = st.sampled_from(["nodes", "queue", "gpus \u00b5"])
# scalars pass through ``clean_attrs``; everything else goes via repr
_ATTR_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=3), st.tuples(st.floats()),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_ATTRS = st.dictionaries(
    st.sampled_from(["a", "nodes", "wall", "span_id"]), _ATTR_VALUES,
    max_size=3,
)


@st.composite
def _programs(draw):
    """A replayable list of telemetry calls: every span begun is ended (at
    or after its start), parents are earlier spans, and each resource's
    sample times never decrease."""
    ops: list[tuple] = []
    starts: list[float] = []
    open_spans: list[int] = []
    last_sample: dict[str, float] = {}

    def end(index):
        time = max(starts[index], draw(_TIMES))
        ops.append(("end", index, time, draw(_ATTRS)))

    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        kind = draw(st.sampled_from(["begin", "end", "instant", "sample"]))
        time = draw(_TIMES)
        if kind == "end" and open_spans:
            end(open_spans.pop(draw(st.integers(0, len(open_spans) - 1))))
        elif kind in ("begin", "end"):
            parent = None
            if starts:
                parent = draw(st.none() | st.integers(0, len(starts) - 1))
            ops.append(("begin", draw(_LABELS), draw(_LABELS),
                        draw(_FACILITIES), draw(_TRACKS), parent, time,
                        draw(_ATTRS)))
            open_spans.append(len(starts))
            starts.append(time)
        elif kind == "instant":
            ops.append(("instant", draw(_LABELS), draw(_LABELS),
                        draw(_FACILITIES), draw(_TRACKS), time, draw(_ATTRS)))
        else:
            resource = draw(_RESOURCES)
            time = max(time, last_sample.get(resource, time))
            last_sample[resource] = time
            ops.append((
                "sample", resource, draw(st.floats(0.0, 64.0)),
                draw(st.none() | st.floats(1.0, 64.0)), draw(_FACILITIES),
                time,
            ))
    for index in draw(st.permutations(open_spans)):
        end(index)
    return ops


def _replay(program, telemetry: Telemetry) -> Telemetry:
    spans = []
    for op in program:
        kind = op[0]
        if kind == "begin":
            _, name, cat, facility, track, parent, time, attrs = op
            spans.append(telemetry.begin(
                name, cat, facility=facility, track=track, time=time,
                parent=None if parent is None else spans[parent], **attrs,
            ))
        elif kind == "end":
            _, index, time, attrs = op
            telemetry.end(spans[index], time=time, **attrs)
        elif kind == "instant":
            _, name, cat, facility, track, time, attrs = op
            telemetry.instant(name, cat, facility=facility, track=track,
                              time=time, **attrs)
            telemetry.metrics.counter("instants").inc()
        else:
            _, resource, value, capacity, facility, time = op
            telemetry.sample(resource, value, capacity, facility=facility,
                             time=time)
            telemetry.metrics.histogram("values", (1.0, 8.0)).record(value)
    return telemetry


def _run(program, replica, suffix, sink=None) -> Telemetry:
    """``program`` on one handle, then (maybe) ``replica``'s in-memory
    handle absorbed into it under ``suffix``."""
    telemetry = _replay(program, Telemetry(sink=sink))
    if replica is not None:
        telemetry.absorb(_replay(replica, Telemetry()), suffix=suffix)
    telemetry.close()
    return telemetry


def _exports(telemetry: Telemetry) -> tuple[str, str, str]:
    return chrome_trace_json(telemetry), to_jsonl(telemetry), summary(telemetry)


class TestRecordPlaneDifferential:
    @given(
        program=_programs(),
        replica=st.none() | _programs(),
        suffix=st.sampled_from([" [r0]", " [r\u00e9plica]"]),
    )
    @STANDARD_SETTINGS
    def test_in_memory_equals_stitched_shards(self, program, replica, suffix):
        """The same calls kept in memory and spilled to 1-byte or 4 KiB
        shards export the same bytes, and the sink counts every record."""
        in_memory = _run(program, replica, suffix)
        spans, instants, samples = split_records(in_memory.records)
        want = _exports(in_memory)
        with tempfile.TemporaryDirectory() as tmp:
            for shard_max_bytes in (1, 4096):
                directory = Path(tmp) / f"shards-{shard_max_bytes}"
                sink = ShardedJsonlSink(directory, shard_max_bytes)
                _run(program, replica, suffix, sink)
                assert _exports(load_shards(directory)) == want
                assert (sink.n_spans, sink.n_instants, sink.n_samples) == (
                    len(spans), len(instants), len(samples)
                )

