"""Tests for the empirical batch-scaling experiment and the fault-detection
workflow."""

import numpy as np
import pytest

from repro.analysis.batch_scaling import (
    BatchScalingResult,
    fit_two_regime_law,
    run_batch_scaling_experiment,
    steps_to_loss,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.optim import LAMB, SGD
from repro.workflows.case_fault import FaultDetectionWorkflow


class TestTwoRegimeFit:
    def test_recovers_synthetic_law(self):
        s_min, b_crit = 5000.0, 128.0
        batches = [8, 32, 128, 512, 2048]
        steps = [s_min / b + s_min / b_crit for b in batches]
        a, bc = fit_two_regime_law(batches, steps)
        assert a == pytest.approx(s_min, rel=1e-6)
        assert bc == pytest.approx(b_crit, rel=1e-6)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ConfigurationError):
            fit_two_regime_law([8], [100])


class TestStepsToLoss:
    def test_larger_batch_fewer_steps(self):
        small = steps_to_loss(lambda: SGD(lr=0.02, momentum=0.9), 16, seed=0)
        large = steps_to_loss(lambda: SGD(lr=0.02, momentum=0.9), 256, seed=0)
        assert large < small

    def test_unreachable_target_raises(self):
        with pytest.raises(ConvergenceError):
            steps_to_loss(
                lambda: SGD(lr=1e-6), 16, target_loss=1e-6, max_steps=50, seed=0
            )

    def test_unknown_lr_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            steps_to_loss(lambda: SGD(lr=0.01), 16, lr_rule="cubic")


class TestBatchScalingExperiment:
    @pytest.fixture(scope="class")
    def sgd_result(self) -> BatchScalingResult:
        return run_batch_scaling_experiment(
            lambda: SGD(lr=0.02, momentum=0.9),
            batch_sizes=[16, 64, 256, 1024],
            seed=0,
        )

    def test_steps_monotone_decreasing(self, sgd_result):
        steps = sgd_result.steps_to_target
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_diminishing_returns(self, sgd_result):
        """The defining critical-batch signature: the 16->64 batch increase
        buys more step reduction than 256->1024 does."""
        s = sgd_result.steps_to_target
        early_gain = s[0] / s[1]
        late_gain = s[2] / s[3]
        assert early_gain > late_gain

    def test_speedup_far_below_perfect_at_large_batch(self, sgd_result):
        # 64x more samples per step should NOT give 64x fewer steps
        assert sgd_result.speedup()[-1] < 16

    def test_fitted_critical_batch_in_measured_range(self, sgd_result):
        assert 8 < sgd_result.fitted_critical_batch < 2048

    def test_lamb_trains_at_all_batch_sizes(self):
        result = run_batch_scaling_experiment(
            lambda: LAMB(lr=0.005), batch_sizes=[16, 256], seed=0
        )
        assert all(s > 0 for s in result.steps_to_target)


class TestFaultDetectionWorkflow:
    @pytest.fixture(scope="class")
    def trained(self):
        workflow = FaultDetectionWorkflow(seed=0)
        threshold = workflow.train_detector()
        return workflow, threshold

    def test_threshold_positive(self, trained):
        _, threshold = trained
        assert threshold > 0

    def test_detects_and_remediates_faults(self, trained):
        workflow, _ = trained
        result = workflow.run(n_frames=100, fault_probability=0.05)
        assert result.faults_injected > 0
        assert result.recall >= 0.75
        assert result.false_alarms <= 5
        assert result.rollbacks >= result.faults_detected
        assert result.final_energy_finite

    def test_clean_run_has_few_false_alarms(self):
        workflow = FaultDetectionWorkflow(seed=1)
        workflow.train_detector()
        result = workflow.run(n_frames=80, fault_probability=0.0)
        assert result.faults_injected == 0
        assert result.false_alarms <= 4  # <5 % of frames

    def test_run_before_training_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultDetectionWorkflow(seed=2).run()

    def test_invalid_probability_rejected(self, trained):
        workflow, _ = trained
        with pytest.raises(ConfigurationError):
            workflow.run(fault_probability=1.5)
