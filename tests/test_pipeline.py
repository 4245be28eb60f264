"""Tests for the pipeline-parallel analysis."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine import SUMMIT
from repro.models import bert_large
from repro.training.pipeline import (
    PipelineBreakdown,
    PipelinePlan,
    compare_strategies,
    pipeline_step,
)


class TestPipelinePlan:
    def test_bubble_formula(self):
        plan = PipelinePlan(stages=4, micro_batches=12)
        assert plan.bubble_fraction == pytest.approx(3 / 15)

    def test_single_stage_has_no_bubble(self):
        assert PipelinePlan(stages=1, micro_batches=8).bubble_fraction == 0.0

    def test_more_micro_batches_shrink_bubble(self):
        few = PipelinePlan(stages=6, micro_batches=6)
        many = PipelinePlan(stages=6, micro_batches=60)
        assert many.bubble_fraction < few.bubble_fraction

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelinePlan(stages=0, micro_batches=1)
        with pytest.raises(ConfigurationError):
            PipelinePlan(stages=1, micro_batches=0)

    @settings(max_examples=30)
    @given(s=st.integers(min_value=1, max_value=32),
           m=st.integers(min_value=1, max_value=256))
    def test_bubble_fraction_bounds(self, s, m):
        frac = PipelinePlan(stages=s, micro_batches=m).bubble_fraction
        assert 0.0 <= frac < 1.0


class TestPipelineStep:
    def test_breakdown_components_positive(self):
        b = pipeline_step(
            bert_large(), SUMMIT, 64, PipelinePlan(stages=6, micro_batches=16)
        )
        assert b.compute > 0
        assert b.bubble > 0
        assert b.total == pytest.approx(
            b.compute + b.bubble + b.stage_comm + b.dp_allreduce
        )

    def test_bubble_matches_plan_fraction_roughly(self):
        plan = PipelinePlan(stages=6, micro_batches=16)
        b = pipeline_step(bert_large(), SUMMIT, 64, plan)
        measured = b.bubble / (b.compute + b.bubble)
        assert measured == pytest.approx(plan.bubble_fraction, rel=0.05)

    def test_single_replica_has_no_allreduce(self):
        b = pipeline_step(
            bert_large(), SUMMIT, 1, PipelinePlan(stages=6, micro_batches=8),
            dp_replicas=1,
        )
        assert b.dp_allreduce == 0.0

    def test_sample_accounting(self):
        b = pipeline_step(
            bert_large(), SUMMIT, 4,
            PipelinePlan(stages=6, micro_batches=8, micro_batch_size=2),
        )
        assert b.samples == (4 * 6 // 6) * 16

    def test_too_many_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            pipeline_step(
                bert_large(), SUMMIT, 1, PipelinePlan(stages=7, micro_batches=8)
            )

    def test_oversubscribed_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            pipeline_step(
                bert_large(), SUMMIT, 1,
                PipelinePlan(stages=6, micro_batches=8), dp_replicas=2,
            )


class TestStrategyComparison:
    """The paper's closing claim: past the data-parallel crossover, 'generic
    model parallelization is essential'."""

    def test_data_parallel_wins_below_crossover(self):
        result = compare_strategies(bert_large(), SUMMIT, 1024, 32)
        assert result["data_parallel"] > 0.9 * result["pipeline_hybrid"]

    def test_pipeline_wins_past_crossover(self):
        giant = dataclasses.replace(
            bert_large(), parameters=2.5 * 350e6,
            activation_bytes_per_sample=48e6,
        )
        result = compare_strategies(giant, SUMMIT, 1024, 8)
        assert result["pipeline_hybrid"] > result["data_parallel"]

    def test_both_strategies_scale_with_nodes(self):
        small = compare_strategies(bert_large(), SUMMIT, 64, 32)
        large = compare_strategies(bert_large(), SUMMIT, 512, 32)
        for key in small:
            assert large[key] > small[key]
