"""Tests for the task-graph executor and facilities."""

import pytest

from repro.errors import ConfigurationError
from repro.workflows.dag import Task, TaskGraph
from repro.workflows.facility import FACILITIES, Facility


class TestFacility:
    def test_speed_rescales_duration(self):
        fast = Facility("f", nodes=4, speed=2.0)
        assert fast.duration(10.0) == 5.0

    def test_paper_facilities_present(self):
        assert set(FACILITIES) == {"summit", "perlmutter", "thetagpu", "cs2"}

    def test_invalid_specs(self):
        with pytest.raises(ConfigurationError):
            Facility("x", nodes=0)
        with pytest.raises(ConfigurationError):
            Facility("x", nodes=1, speed=0)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf")])
    def test_non_finite_speed_rejected(self, speed):
        with pytest.raises(ConfigurationError, match="speed"):
            Facility("x", nodes=1, speed=speed)


class TestTaskGraph:
    def _graph(self):
        return TaskGraph({"a": Facility("A", nodes=4), "b": Facility("B", nodes=2)})

    def test_chain_serialises(self):
        g = self._graph()
        g.add_task("t1", 10.0, "a")
        g.add_task("t2", 5.0, "a", deps=("t1",))
        run = g.execute()
        assert run.makespan == 15.0
        assert run.start_times["t2"] == 10.0

    def test_independent_tasks_run_concurrently(self):
        g = self._graph()
        g.add_task("t1", 10.0, "a", nodes=2)
        g.add_task("t2", 10.0, "a", nodes=2)
        run = g.execute()
        assert run.makespan == 10.0

    def test_resource_contention_serialises(self):
        g = self._graph()
        g.add_task("t1", 10.0, "b", nodes=2)
        g.add_task("t2", 10.0, "b", nodes=2)
        run = g.execute()
        assert run.makespan == 20.0

    def test_fan_in_waits_for_all(self):
        g = self._graph()
        g.add_task("x", 3.0, "a")
        g.add_task("y", 7.0, "a")
        g.add_task("z", 1.0, "a", deps=("x", "y"))
        run = g.execute()
        assert run.start_times["z"] == 7.0
        assert run.makespan == 8.0

    def test_critical_path_follows_gating_dependency(self):
        g = self._graph()
        g.add_task("x", 3.0, "a")
        g.add_task("y", 7.0, "a")
        g.add_task("z", 1.0, "a", deps=("x", "y"))
        run = g.execute()
        assert run.critical_path(g) == ["y", "z"]

    def test_serial_time_is_upper_bound(self):
        g = self._graph()
        g.add_task("t1", 4.0, "a")
        g.add_task("t2", 6.0, "b")
        g.add_task("t3", 2.0, "a", deps=("t1",))
        run = g.execute()
        assert run.makespan <= g.serial_time()

    def test_busy_node_seconds(self):
        g = self._graph()
        g.add_task("t1", 10.0, "a", nodes=3)
        run = g.execute()
        assert run.facility_busy_node_seconds(g) == {"a": 30.0}

    def test_unknown_facility_rejected(self):
        g = self._graph()
        with pytest.raises(ConfigurationError):
            g.add_task("t", 1.0, "nowhere")

    def test_oversized_task_rejected(self):
        g = self._graph()
        with pytest.raises(ConfigurationError):
            g.add_task("t", 1.0, "b", nodes=10)

    def test_forward_dependency_rejected(self):
        g = self._graph()
        with pytest.raises(ConfigurationError):
            g.add_task("t", 1.0, "a", deps=("later",))

    def test_duplicate_name_rejected(self):
        g = self._graph()
        g.add_task("t", 1.0, "a")
        with pytest.raises(ConfigurationError):
            g.add_task("t", 2.0, "a")

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            self._graph().execute()

    def test_speed_applied_to_duration(self):
        g = TaskGraph({"fast": Facility("F", nodes=1, speed=4.0)})
        g.add_task("t", 8.0, "fast")
        assert g.execute().makespan == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(name="t", duration=-1.0, facility="a")
