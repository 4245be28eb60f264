"""Tests for the task-graph executor, facilities, steering and active learning."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ml.data import latent_manifold
from repro.science.ffea import MassSpringModel
from repro.workflows.active_learning import ActiveLearningLoop
from repro.workflows.dag import Task, TaskGraph
from repro.workflows.facility import FACILITIES, Facility
from repro.workflows.steering import SteeringLoop, SteeringResult


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


class _RandomWalkSim:
    """Minimal steerable simulator: a biased random walk in feature space."""

    def __init__(self, dim=6, seed=0):
        self.rng = np.random.default_rng(seed)
        self.pos = np.zeros(dim)

    def run_segment(self, n_frames):
        frames = []
        for _ in range(n_frames):
            self.pos = self.pos + 0.05 * self.rng.standard_normal(self.pos.size)
            frames.append(self.pos.copy())
        return np.array(frames)

    def snapshot(self):
        return self.pos.copy()

    def restore(self, state):
        self.pos = state.copy()


class TestSteeringLoop:
    def test_runs_and_collects_frames(self):
        sims = [_RandomWalkSim(seed=i) for i in range(3)]
        loop = SteeringLoop(sims, frames_per_segment=10, ae_epochs=15, seed=0)
        result = loop.run(n_rounds=3)
        assert result.frames.shape == (3 * 3 * 10, 6)
        assert result.rounds == 3
        assert result.restarts > 0
        assert len(result.novelty_history) == 3

    def test_unsteered_baseline_has_no_restarts(self):
        sims = [_RandomWalkSim(seed=i) for i in range(2)]
        loop = SteeringLoop(sims, frames_per_segment=8, seed=0)
        result = loop.run_unsteered(n_rounds=2)
        assert result.restarts == 0
        assert result.frames.shape[0] == 2 * 2 * 8

    def test_steering_explores_ffea_conformations(self):
        """Steered sampling of the mass-spring model should cover at least
        as much descriptor space as unsteered sampling at equal budget."""

        class FfeaAdapter:
            def __init__(self, seed):
                self.model = MassSpringModel(n_side=4, seed=seed)

            def run_segment(self, n_frames):
                return self.model.sample_trajectory(
                    n_frames, steps_per_frame=5, temperature=0.3
                )

            def snapshot(self):
                return self.model.positions.copy()

            def restore(self, state):
                self.model.positions = state.copy()

        steered = SteeringLoop(
            [FfeaAdapter(i) for i in range(3)],
            frames_per_segment=8, ae_epochs=30, seed=1,
        ).run(n_rounds=3)
        unsteered = SteeringLoop(
            [FfeaAdapter(i + 10) for i in range(3)],
            frames_per_segment=8, seed=1,
        ).run_unsteered(n_rounds=3)
        assert steered.coverage > 0.5 * unsteered.coverage

    def test_coverage_requires_two_frames(self):
        with pytest.raises(ConfigurationError):
            SteeringResult.measure_coverage(np.zeros((1, 3)))

    def test_invalid_settings(self):
        with pytest.raises(ConfigurationError):
            SteeringLoop([], seed=0)
        with pytest.raises(ConfigurationError):
            SteeringLoop([_RandomWalkSim()], frames_per_segment=1)
        with pytest.raises(ConfigurationError):
            SteeringLoop([_RandomWalkSim()]).run(0)


class TestActiveLearning:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        pool = rng.uniform(-1, 1, size=(300, 2))
        val_x = rng.uniform(-1, 1, size=(80, 2))

        def oracle(x):
            return (x**2).sum(axis=1, keepdims=True)

        return pool, (val_x, oracle(val_x)), oracle

    def test_rmse_improves_over_rounds(self):
        pool, val, oracle = self._setup()
        loop = ActiveLearningLoop(oracle, pool, val, n_members=3, seed=0)
        result = loop.run(initial=16, per_round=16, n_rounds=4, epochs=120)
        assert result.final_rmse < result.rmse_history[0]

    def test_oracle_calls_counted(self):
        pool, val, oracle = self._setup(1)
        loop = ActiveLearningLoop(oracle, pool, val, n_members=2, seed=1)
        result = loop.run(initial=16, per_round=8, n_rounds=3, epochs=50)
        assert result.oracle_calls == 16 + 8 * 2  # last round trains only

    def test_random_acquisition_supported(self):
        pool, val, oracle = self._setup(2)
        loop = ActiveLearningLoop(oracle, pool, val, n_members=2, seed=2)
        result = loop.run(initial=16, per_round=8, n_rounds=2, epochs=50,
                          random_acquisition=True)
        assert result.rounds == 2

    def test_budget_exceeding_pool_rejected(self):
        pool, val, oracle = self._setup(3)
        loop = ActiveLearningLoop(oracle, pool, val, seed=3)
        with pytest.raises(ConfigurationError):
            loop.run(initial=200, per_round=100, n_rounds=5)

    def test_gp_surrogate_variant(self):
        pool, val, oracle = self._setup(5)
        loop = ActiveLearningLoop(
            oracle, pool, val, surrogate_kind="gp", gp_length_scale=0.5, seed=5
        )
        result = loop.run(initial=16, per_round=12, n_rounds=3, epochs=1)
        assert result.final_rmse < result.rmse_history[0] * 1.5
        assert result.final_rmse < 0.3

    def test_gp_beats_small_ensemble_on_smooth_target(self):
        """On a smooth low-dimensional target with few samples, the exact GP
        posterior is a stronger surrogate than a tiny bootstrap ensemble."""
        pool, val, oracle = self._setup(6)
        gp_loop = ActiveLearningLoop(
            oracle, pool, val, surrogate_kind="gp", gp_length_scale=0.5, seed=6
        )
        ens_loop = ActiveLearningLoop(
            oracle, pool, val, n_members=2, seed=6
        )
        gp = gp_loop.run(initial=16, per_round=12, n_rounds=3, epochs=40)
        ens = ens_loop.run(initial=16, per_round=12, n_rounds=3, epochs=40)
        assert gp.final_rmse < ens.final_rmse

    def test_unknown_surrogate_kind_rejected(self):
        pool, val, oracle = self._setup(7)
        with pytest.raises(ConfigurationError):
            ActiveLearningLoop(oracle, pool, val, surrogate_kind="svm")
