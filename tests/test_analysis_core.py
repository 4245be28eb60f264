"""Tests for the repro.core facade."""

import pytest

from repro.core import ScalingStudyRunner, SummitSimulator, UsageSurvey
from repro.errors import ConfigurationError
from repro.machine import PERLMUTTER_LIKE
from repro.training import ParallelismPlan


class TestSummitSimulator:
    @pytest.fixture(scope="class")
    def sim(self):
        return SummitSimulator()

    def test_allreduce_estimates_match_paper(self, sim):
        assert sim.allreduce_estimate("resnet50") == pytest.approx(8e-3, rel=0.05)
        assert sim.allreduce_estimate("bert_large") == pytest.approx(
            0.112, rel=0.05
        )

    def test_detailed_allreduce_larger_than_estimate(self, sim):
        est = sim.allreduce_estimate("bert_large")
        full = sim.allreduce_detailed("bert_large", 4096)
        assert full > est  # latency terms

    def test_io_report_reproduces_section_6b(self, sim):
        report = sim.io_report("resnet50")
        assert report["required"] == pytest.approx(20e12, rel=0.02)
        assert not report["shared_fs_feasible"]
        assert report["nvme_feasible"]
        assert "TB/s" in report["summary"]

    def test_io_report_small_scale_gpfs_ok(self, sim):
        report = sim.io_report("resnet50", n_nodes=128)
        assert report["shared_fs_feasible"]

    def test_io_report_names_the_machine_without_nvme(self):
        # every machine has a shared filesystem; only the NVMe can be missing
        sim = SummitSimulator(machine=PERLMUTTER_LIKE)
        with pytest.raises(ConfigurationError) as raised:
            sim.io_report("resnet50")
        assert str(raised.value) == (
            "Perlmutter-like nodes have no NVMe burst buffer to compare with "
            "the shared filesystem"
        )


class TestScalingStudyRunner:
    def test_weak_scaling_table(self):
        runner = ScalingStudyRunner("resnet50", ParallelismPlan(local_batch=64))
        table = runner.table([1, 8, 64])
        assert "resnet50 weak scaling" in table
        assert table.count("\n") == 4

    def test_strong_scaling_runs(self):
        runner = ScalingStudyRunner("resnet50", ParallelismPlan(local_batch=512))
        points = runner.run([1, 2, 4], strong=True)
        assert len({p.global_batch for p in points}) == 1


class TestUsageSurvey:
    def test_calibrated_survey_builds(self):
        survey = UsageSurvey.calibrated()
        assert len(survey.analytics.projects) == 645

    def test_report_contains_figures(self):
        text = UsageSurvey.calibrated().report()
        assert "Fig. 1" in text and "Fig. 6" in text
