"""Tests for the telemetry layer: spans, metrics, utilization, exporters."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import (
    DEFAULT_SECONDS_EDGES,
    Histogram,
    MetricsRegistry,
    ShardAggregator,
    Telemetry,
    UtilizationAccumulator,
    chrome_trace,
    chrome_trace_json,
    summary,
    to_jsonl,
)
from repro.telemetry.export import iter_jsonl_records
from repro.telemetry.scenarios import SCENARIOS, run_scenario

from tests.hypothesis_settings import SLOW_SETTINGS, STANDARD_SETTINGS


class TestSpans:
    def test_begin_end_carries_duration(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=1.0)
        tel.end(span, time=3.5)
        assert span.duration == 2.5

    def test_unfinished_span_has_no_duration(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=1.0)
        assert not span.finished
        with pytest.raises(ConfigurationError):
            _ = span.duration

    def test_double_end_rejected(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=1.0)
        tel.end(span, time=2.0)
        with pytest.raises(ConfigurationError):
            tel.end(span, time=3.0)

    def test_end_before_start_rejected(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=5.0)
        with pytest.raises(ConfigurationError):
            tel.end(span, time=4.0)

    def test_rejected_end_leaves_the_span_open(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=5.0, stage=1)
        with pytest.raises(ConfigurationError, match="before it starts"):
            tel.end(span, time=4.0, stage=2)
        assert not span.finished and span.attrs == {"stage": 1}
        tel.end(span, time=6.0)
        (record,) = tel.finished_spans()
        assert (record["start"], record["end"]) == (5.0, 6.0)

    def test_nesting_via_explicit_parent(self):
        tel = Telemetry()
        outer = tel.begin("outer", "task", time=0.0)
        inner = tel.begin("inner", "task", time=1.0, parent=outer)
        tel.end(inner, time=2.0)
        tel.end(outer, time=3.0)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_ids_sequential_in_begin_order(self):
        tel = Telemetry()
        spans = [tel.begin(f"s{i}", "task", time=float(i)) for i in range(5)]
        assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]

    def test_context_manager_closes_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("work", "task", time=0.0):
                raise RuntimeError("boom")
        (span,) = tel.finished_spans()
        assert span["end"] is not None

    def test_bound_clock_supplies_times(self):
        tel = Telemetry()
        now = {"t": 2.0}
        tel.bind_clock(lambda: now["t"])
        span = tel.begin("work", "task")
        now["t"] = 7.0
        tel.end(span)
        assert span.start == 2.0 and span.duration == 5.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0):  # both land in (-inf, 1.0]
            h.record(v)
        h.record(1.5)  # (1.0, 2.0]
        h.record(2.0)  # still (1.0, 2.0] — edge is inclusive
        h.record(3.0)  # (2.0, 4.0]
        h.record(9.0)  # overflow
        assert h.counts == [2, 2, 1, 1]

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", edges=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", edges=(2.0, 1.0))

    def test_summary_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.n == 3 and h.total == 6.0
        assert h.min_value == 1.0 and h.max_value == 3.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1,
                    max_size=50))
    @STANDARD_SETTINGS
    def test_counts_partition_the_samples(self, values):
        h = Histogram("h", edges=DEFAULT_SECONDS_EDGES)
        for v in values:
            h.record(v)
        assert sum(h.counts) == len(values) == h.n


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("c") is m.counter("c")

    def test_type_mismatch_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ConfigurationError):
            m.gauge("x")

    def test_histogram_edge_mismatch_rejected(self):
        m = MetricsRegistry()
        m.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            m.histogram("h", edges=(1.0, 3.0))

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            m.counter("c").inc(-1.0)

    def test_iteration_sorted_by_name(self):
        m = MetricsRegistry()
        m.counter("zeta")
        m.gauge("alpha")
        assert list(m) == ["alpha", "zeta"]


class TestUtilizationAccumulator:
    def test_busy_time_step_integral(self):
        acc = UtilizationAccumulator("r")
        for t, v in [(0.0, 2.0), (1.0, 4.0), (3.0, 0.0)]:
            acc.add(t, v, capacity=4)
        # 2 nodes for 1 s, then 4 nodes for 2 s; last value has no width
        assert acc.busy_time() == 10.0
        assert acc.utilization() == 10.0 / (4 * 3.0)
        assert acc.peak() == 4.0

    def test_rejects_decreasing_sample_times(self):
        acc = UtilizationAccumulator("r")
        acc.add(2.0, 1.0, capacity=2)
        acc.add(2.0, 2.0, capacity=2)  # equal times are a zero-width step
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            acc.add(1.999, 0.0, capacity=2)

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=1, max_size=30,
        ),
    )
    @STANDARD_SETTINGS
    def test_invariants_hold_for_any_sample_stream(self, capacity, raw):
        times = sorted(t for t, _ in raw)
        values = [float(min(v, capacity)) for _, v in raw]
        acc = UtilizationAccumulator("r")
        for t, v in zip(times, values):
            acc.add(t, v, capacity=capacity)
        assert 0.0 <= acc.utilization() <= 1.0
        assert 0.0 <= acc.busy_time() <= capacity * acc.span() + 1e-9
        assert acc.peak() <= capacity


class TestChromeExport:
    def test_export_shape(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=0.0)
        tel.instant("tick", "mark", time=0.5)
        tel.end(span, time=1.0)
        tel.sample("pool", 2.0, capacity=4, time=0.25)
        trace = chrome_trace(tel)
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i", "C", "M"} <= phases
        (complete,) = [e for e in events if e["ph"] == "X"]
        assert complete["dur"] == pytest.approx(1e6)  # 1 s in microseconds

    def test_unfinished_spans_skipped(self):
        tel = Telemetry()
        tel.begin("open", "task", time=0.0)
        assert not [
            e for e in chrome_trace(tel)["traceEvents"] if e["ph"] == "X"
        ]

    def test_track_metadata_first_appearance_order(self):
        tel = Telemetry()
        a = tel.begin("a", "task", facility="f", track="beta", time=0.0)
        b = tel.begin("b", "task", facility="f", track="alpha", time=0.0)
        tel.end(a, time=1.0)
        tel.end(b, time=1.0)
        meta = [
            e for e in chrome_trace(tel)["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert [m["args"]["name"] for m in meta] == ["beta", "alpha"]
        assert [m["tid"] for m in meta] == [1, 2]

    def test_jsonl_roundtrips(self):
        tel = Telemetry()
        span = tel.begin("work", "task", time=0.0)
        tel.end(span, time=1.0)
        lines = to_jsonl(tel).splitlines()
        assert lines
        for line in lines:
            json.loads(line)


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_byte_identical_chrome_export(self, name):
        a = chrome_trace_json(run_scenario(name, seed=3).telemetry)
        b = chrome_trace_json(run_scenario(name, seed=3).telemetry)
        assert a == b

    def test_dag_scenario_has_faults_and_node_tracks(self):
        tel = run_scenario("dag", seed=0).telemetry
        assert any(
            r["type"] == "instant" and r["cat"] == "fault" for r in tel.records
        )
        trace = chrome_trace(tel)
        tracks = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(t.startswith("node ") for t in tracks)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_dag_metrics_match_resilience_report(self):
        scenario = run_scenario("dag", seed=0)
        m = scenario.telemetry.metrics
        results = scenario.results
        busy = m.counter("dag.busy_node_seconds").value
        useful = m.counter("dag.useful_node_seconds").value
        lost = m.counter("dag.lost_node_seconds").value
        assert useful / busy == results["report_goodput_fraction"]
        assert lost / 3600.0 == results["report_lost_node_hours"]
        assert results["goodput_fraction"] == results["report_goodput_fraction"]
        assert results["lost_node_hours"] == results["report_lost_node_hours"]

    def test_summary_mentions_each_facility(self):
        tel = run_scenario("dag", seed=0).telemetry
        text = summary(tel)
        assert "Summit" in text and "utilization" in text


class TestInstrumentationProperties:
    @given(st.integers(min_value=0, max_value=40))
    @SLOW_SETTINGS
    def test_dag_metric_totals_equal_sum_over_attempt_spans(self, seed):
        """The busy/useful counters equal the sums of the per-attempt span
        attributes — metrics and spans are two views of one accounting."""
        tel = run_scenario("dag", seed=seed).telemetry
        attempts = tel.finished_spans(category="task")
        busy = sum(s["attrs"]["wall"] * s["attrs"]["nodes"] for s in attempts)
        useful = sum(
            s["attrs"]["gained"] * s["attrs"]["nodes"] for s in attempts
        )
        m = tel.metrics
        assert busy == pytest.approx(
            m.counter("dag.busy_node_seconds").value, rel=1e-12
        )
        assert useful == pytest.approx(
            m.counter("dag.useful_node_seconds").value, rel=1e-12
        )
        # attempt wall-clock also matches the span durations themselves
        for s in attempts:
            assert s["end"] - s["start"] == pytest.approx(
                s["attrs"]["wall"], abs=1e-9
            )

    @given(st.integers(min_value=0, max_value=40))
    @SLOW_SETTINGS
    def test_dag_utilization_invariants(self, seed):
        tel = run_scenario("dag", seed=seed).telemetry
        rollup = ShardAggregator()
        for record in iter_jsonl_records(tel):
            rollup.consume(record)
        assert rollup.utilization
        for acc in rollup.utilization.values():
            assert 0.0 <= acc.utilization() <= 1.0
            assert acc.busy_time() <= acc.capacity() * acc.span() + 1e-9
            assert acc.peak() <= acc.capacity()

    def test_telemetry_off_results_identical(self):
        """The instrumented executor returns the exact numbers of the
        uninstrumented one — telemetry is observation, not perturbation."""
        from repro.resilience.retry import RetryPolicy
        from repro.workflows.dag import TaskGraph
        from repro.workflows.facility import Facility

        def build():
            g = TaskGraph({"f": Facility(name="F", nodes=4)})
            g.add_task("a", 100.0, "f", nodes=2, failure_rate=1 / 80.0,
                       checkpoint_interval=25.0, checkpoint_write_time=2.0)
            g.add_task("b", 50.0, "f", nodes=2, deps=["a"])
            return g

        bare = build().execute(retry=RetryPolicy(max_attempts=10), seed=7)
        inst = build().execute(
            retry=RetryPolicy(max_attempts=10), seed=7, telemetry=Telemetry()
        )
        assert bare.makespan == inst.makespan
        assert bare.start_times == inst.start_times
        assert bare.end_times == inst.end_times
        assert bare.n_failures == inst.n_failures
        assert bare.busy_node_seconds == inst.busy_node_seconds


class TestStreamingExports:
    def test_write_jsonl_byte_identical_to_to_jsonl(self, tmp_path):
        from repro.telemetry import write_jsonl

        tel = run_scenario("dag", seed=0).telemetry
        path = tmp_path / "trace.jsonl"
        write_jsonl(tel, str(path))
        assert path.read_text() == to_jsonl(tel) + "\n"

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("service.leases").inc(3)
        registry.gauge("queue-depth").set(2.5)
        registry.histogram("op.seconds", (0.1, 1.0)).record(0.5)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE op_seconds histogram" in lines
        assert 'op_seconds_bucket{le="0.1"} 0' in lines
        assert 'op_seconds_bucket{le="1.0"} 1' in lines
        assert 'op_seconds_bucket{le="+Inf"} 1' in lines
        assert "op_seconds_count 1" in lines
        assert "op_seconds_sum 0.5" in lines
        assert "queue_depth 2.5" in lines
        assert "service_leases_total 3.0" in lines
        assert text.endswith("\n")

    def test_render_prometheus_is_deterministic(self):
        tel = run_scenario("dag", seed=0).telemetry
        again = run_scenario("dag", seed=0).telemetry
        assert tel.metrics.render_prometheus() == \
            again.metrics.render_prometheus()
