"""Tests for the distributed-training simulator."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.machine import SUMMIT
from repro.models import bert_large, get_model, resnet50
from repro.network.collectives import AllreduceAlgorithm
from repro.training import (
    DataSource,
    ParallelismPlan,
    ScalingStudy,
    TrainingJob,
    step_breakdown,
)
from repro.training.convergence import (
    BERT_CONVERGENCE,
    RESNET50_CONVERGENCE,
    steps_to_target,
    time_to_solution,
)


def make_job(model=None, nodes=4, **plan_kwargs):
    plan_kwargs.setdefault("local_batch", 32)
    return TrainingJob(
        model=model or resnet50(),
        machine=SUMMIT,
        n_nodes=nodes,
        plan=ParallelismPlan(**plan_kwargs),
    )


class TestParallelismPlan:
    def test_replicas_pure_data_parallel(self):
        plan = ParallelismPlan(local_batch=32)
        assert plan.replicas(24) == 24

    def test_replicas_model_parallel(self):
        plan = ParallelismPlan(local_batch=32, model_shards=6)
        assert plan.replicas(24) == 4

    def test_replicas_indivisible_rejected(self):
        plan = ParallelismPlan(local_batch=32, model_shards=5)
        with pytest.raises(ConfigurationError):
            plan.replicas(24)

    def test_global_batch_includes_accumulation(self):
        plan = ParallelismPlan(local_batch=30, accumulation_steps=8)
        assert plan.global_batch(24192) == 24192 * 30 * 8

    def test_blanchard_batch_is_5_8m(self):
        # 4032 nodes x 6 GPUs x 30 local x 8 accumulation = 5.8M
        plan = ParallelismPlan(local_batch=30, accumulation_steps=8)
        assert plan.global_batch(4032 * 6) == pytest.approx(5.8e6, rel=0.01)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelismPlan(local_batch=0)
        with pytest.raises(ConfigurationError):
            ParallelismPlan(local_batch=1, overlap_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ParallelismPlan(local_batch=1, compute_jitter_cv=-0.1)


class TestStepBreakdown:
    def test_components_sum_to_total(self):
        b = make_job().breakdown()
        assert b.total == pytest.approx(
            b["compute"] + b["straggler"] + b["mp_exchange"]
            + b["comm_exposed"] + b["io_exposed"]
        )

    def test_fractions_sum_to_one(self):
        b = make_job(overlap_fraction=0.0).breakdown()
        busy = (b["compute"] + b["mp_exchange"] + b["straggler"]) / b.total
        shares = b.fraction("comm_exposed") + b.fraction("io_exposed")
        assert shares + busy == pytest.approx(1.0)

    def test_single_node_has_intra_node_comm_only(self):
        b = make_job(nodes=1, overlap_fraction=0.0).breakdown()
        # 6 GPUs still allreduce over NVLink
        assert b["comm"] > 0

    def test_comm_grows_with_nodes(self):
        plan = dict(overlap_fraction=0.0,
                    )
        b_small = make_job(nodes=2, **plan).breakdown()
        b_large = make_job(nodes=2048, **plan).breakdown()
        assert b_large["comm"] > b_small["comm"]

    def test_overlap_hides_comm(self):
        exposed = make_job(nodes=256, overlap_fraction=0.0).breakdown()
        hidden = make_job(nodes=256, overlap_fraction=1.0).breakdown()
        assert hidden["comm_exposed"] < exposed["comm_exposed"]

    def test_memory_source_has_no_io(self):
        job = make_job().with_data_source(DataSource.MEMORY)
        assert job.breakdown()["io"] == 0.0

    def test_gpfs_io_exceeds_nvme_io_at_scale(self):
        gpfs = make_job(nodes=2048).with_data_source(DataSource.SHARED_FS)
        nvme = make_job(nodes=2048).with_data_source(DataSource.NVME)
        assert gpfs.breakdown()["io"] > nvme.breakdown()["io"]

    def test_straggler_grows_with_scale(self):
        small = make_job(nodes=2, compute_jitter_cv=0.02).breakdown()
        large = make_job(nodes=4096, compute_jitter_cv=0.02).breakdown()
        assert large["straggler"] > small["straggler"]

    def test_no_jitter_no_straggler(self):
        assert make_job(nodes=512).breakdown()["straggler"] == 0.0

    def test_accumulation_amortises_comm(self):
        plain = make_job(nodes=512, overlap_fraction=0.0).breakdown()
        accum = make_job(
            nodes=512, overlap_fraction=0.0, accumulation_steps=8
        ).breakdown()
        assert accum.fraction("comm_exposed") < plain.fraction("comm_exposed")

    def test_model_parallel_reduces_message(self):
        dp = make_job(model=bert_large(), nodes=64, overlap_fraction=0.0)
        mp = make_job(
            model=bert_large(), nodes=64, overlap_fraction=0.0, model_shards=6
        )
        assert mp.breakdown()["comm"] < dp.breakdown()["comm"]

    def test_model_parallel_adds_exchange(self):
        mp = make_job(model=bert_large(), nodes=64, model_shards=6)
        assert mp.breakdown()["mp_exchange"] > 0

    def test_pinned_ring_slower_for_small_messages(self):
        small_model = dataclasses.replace(resnet50(), parameters=1e5)
        auto = make_job(model=small_model, nodes=2048, overlap_fraction=0.0)
        ring = make_job(
            model=small_model, nodes=2048, overlap_fraction=0.0,
            allreduce_algorithm=AllreduceAlgorithm.RING,
        )
        assert ring.breakdown()["comm"] > auto.breakdown()["comm"]

    def test_cpu_system_rejected(self):
        cpu_only = dataclasses.replace(SUMMIT, gpus=None, gpus_per_node=0)
        with pytest.raises(ConfigurationError, match="no GPUs"):
            step_breakdown(
                resnet50(), cpu_only, 4, ParallelismPlan(local_batch=8)
            )


class TestTrainingJob:
    def test_throughput_equals_samples_over_time(self):
        job = make_job()
        b = job.breakdown()
        assert job.throughput() == pytest.approx(b["samples"] / b.total)

    def test_sustained_flops_below_peak(self):
        job = make_job(nodes=16)
        peak = 16 * 6 * 125e12
        assert 0 < job.sustained_flops() < peak

    def test_efficiency_vs_self_is_one(self):
        job = make_job()
        assert job.efficiency_vs(job) == pytest.approx(1.0)

    def test_with_nodes_preserves_plan(self):
        job = make_job(nodes=4)
        bigger = job.with_nodes(64)
        assert bigger.plan == job.plan
        assert bigger.n_nodes == 64

    def test_memory_check_rejects_oversized_model(self):
        huge = dataclasses.replace(
            bert_large(), parameters=5e9, activation_bytes_per_sample=1e9
        )
        with pytest.raises(CapacityError):
            make_job(model=huge, local_batch=32)

    def test_model_parallel_fits_oversized_model(self):
        huge = dataclasses.replace(
            bert_large(), parameters=4e9, activation_bytes_per_sample=1e8
        )
        job = TrainingJob(
            model=huge, machine=SUMMIT, n_nodes=4,
            plan=ParallelismPlan(local_batch=4, model_shards=6),
        )
        assert job.step_time() > 0

    def test_node_overflow_rejected(self):
        with pytest.raises(CapacityError):
            make_job(nodes=10_000)


class TestScalingStudy:
    def test_weak_scaling_baseline_efficiency_one(self):
        points = ScalingStudy(make_job(nodes=1)).weak_scaling([1, 8, 64])
        assert points[0].efficiency == 1.0

    def test_weak_scaling_efficiency_nonincreasing(self):
        job = make_job(nodes=1, overlap_fraction=0.3, compute_jitter_cv=0.02)
        points = ScalingStudy(job).weak_scaling([1, 8, 64, 512, 4096])
        effs = [p.efficiency for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(effs, effs[1:]))

    def test_weak_scaling_global_batch_grows(self):
        points = ScalingStudy(make_job(nodes=1)).weak_scaling([1, 4])
        assert points[1].global_batch == 4 * points[0].global_batch

    def test_strong_scaling_fixed_batch(self):
        job = make_job(nodes=1, local_batch=512)
        points = ScalingStudy(job).strong_scaling([1, 2, 4], global_batch=512 * 6)
        assert all(p.global_batch == 512 * 6 for p in points)

    def test_strong_scaling_indivisible_rejected(self):
        job = make_job(nodes=1, local_batch=7)
        with pytest.raises(ConfigurationError):
            ScalingStudy(job).strong_scaling([1, 4], global_batch=100)

    @pytest.mark.parametrize("global_batch", [0, -768])
    def test_strong_scaling_nonpositive_batch_rejected(self, global_batch):
        # 0 used to fall back to the base job's batch (768 here); a negative
        # batch raised about local_batch instead of naming global_batch
        job = make_job(nodes=1, local_batch=128)
        with pytest.raises(ConfigurationError, match="global_batch"):
            ScalingStudy(job).strong_scaling([1, 2], global_batch=global_batch)

    def test_table_renders_all_rows(self):
        points = ScalingStudy(make_job(nodes=1)).weak_scaling([1, 8])
        table = ScalingStudy.table(points, title="t")
        assert table.count("\n") == 3  # title + header + 2 rows

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalingStudy(make_job()).weak_scaling([])


class TestConvergence:
    def test_small_batch_perfect_scaling(self):
        s1 = steps_to_target(RESNET50_CONVERGENCE, 256)
        s2 = steps_to_target(RESNET50_CONVERGENCE, 512)
        assert s2 == pytest.approx(s1 / 2, rel=0.1)

    def test_large_batch_plateaus(self):
        s1 = steps_to_target(RESNET50_CONVERGENCE, 2**20)
        s2 = steps_to_target(RESNET50_CONVERGENCE, 2**21)
        assert s2 > s1 * 0.6  # far from halving

    def test_lamb_extends_critical_batch(self):
        sgd = steps_to_target(BERT_CONVERGENCE, 65536, "sgd")
        lamb = steps_to_target(BERT_CONVERGENCE, 65536, "lamb")
        assert lamb < sgd

    def test_optimizer_order(self):
        batch = 10_000
        results = [
            steps_to_target(RESNET50_CONVERGENCE, batch, opt)
            for opt in ("sgd", "momentum", "lars", "lamb")
        ]
        assert results == sorted(results, reverse=True)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigurationError):
            steps_to_target(RESNET50_CONVERGENCE, 256, "adagrad")

    def test_time_to_solution_combines_steps_and_step_time(self):
        job = make_job(nodes=16)
        t = time_to_solution(job, RESNET50_CONVERGENCE, "lars")
        steps = steps_to_target(RESNET50_CONVERGENCE, job.global_batch(), "lars")
        assert t == pytest.approx(steps * job.step_time())

    def test_scaling_out_with_lars_beats_sgd_time_to_solution(self):
        """The reason the Section IV-B apps use layer-wise optimizers:
        at large scale, time-to-solution with SGD stops improving."""
        small = make_job(nodes=16, local_batch=64)
        large = make_job(nodes=1024, local_batch=64)
        gain_sgd = time_to_solution(small, RESNET50_CONVERGENCE, "sgd") / \
            time_to_solution(large, RESNET50_CONVERGENCE, "sgd")
        gain_lars = time_to_solution(small, RESNET50_CONVERGENCE, "lars") / \
            time_to_solution(large, RESNET50_CONVERGENCE, "lars")
        assert gain_lars > gain_sgd


@settings(max_examples=25, deadline=None)
@given(
    nodes=st.sampled_from([1, 2, 8, 64, 512]),
    batch=st.sampled_from([8, 32, 128]),
    overlap=st.floats(min_value=0, max_value=1),
)
def test_step_time_always_positive_and_finite(nodes, batch, overlap):
    job = TrainingJob(
        model=resnet50(),
        machine=SUMMIT,
        n_nodes=nodes,
        plan=ParallelismPlan(local_batch=batch, overlap_fraction=overlap),
    )
    t = job.step_time()
    assert t > 0
    assert t < 60
