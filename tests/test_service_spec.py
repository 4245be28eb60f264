"""Tests for the campaign spec schema and the deterministic job handlers."""

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.service import CampaignSpec, JobSpec, drug_campaign, run_job
from repro.service.handlers import HANDLERS


class TestJobSpec:
    def test_round_trip(self):
        job = JobSpec("j1", "quadrature", {"n_samples": 16}, seed=3)
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("", "quadrature")

    def test_empty_handler_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("j1", "")

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("j1", "quadrature", {"bad": object()})

    def test_content_payload_excludes_identity(self):
        a = JobSpec("a", "quadrature", {"n_samples": 4}, seed=1)
        b = JobSpec("b", "quadrature", {"n_samples": 4}, seed=1)
        assert a.content_payload() == b.content_payload()


class TestCampaignSpec:
    def test_json_round_trip(self):
        spec = drug_campaign(5, seed=9)
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = drug_campaign(3)
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())
        assert CampaignSpec.from_file(path) == spec

    def test_duplicate_job_ids_rejected(self):
        jobs = (JobSpec("a", "quadrature"), JobSpec("a", "quadrature"))
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="dup", jobs=jobs)

    def test_heartbeat_must_beat_lease(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", lease_timeout_s=1.0,
                         heartbeat_interval_s=2.0)

    def test_max_pending_positive(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", max_pending=0)

    def test_retry_policy_shared_fields(self):
        spec = CampaignSpec(name="x", max_attempts=7, backoff_base_s=0.5,
                            backoff_max_s=2.0, deadline_s=30.0)
        policy = spec.retry_policy()
        assert policy.max_attempts == 7
        assert policy.backoff_base == 0.5
        assert policy.backoff_max == 2.0
        assert policy.deadline_s == 30.0

    def test_drug_campaign_deterministic(self):
        assert drug_campaign(8, seed=1) == drug_campaign(8, seed=1)
        assert drug_campaign(8, seed=1) != drug_campaign(8, seed=2)


class TestHandlers:
    def test_unknown_handler(self):
        with pytest.raises(ConfigurationError, match="unknown job handler"):
            run_job("nope", {}, 0)

    @pytest.mark.parametrize("handler", ["docking", "quadrature"])
    def test_deterministic(self, handler):
        a = run_job(handler, {}, seed=42)
        b = run_job(handler, {}, seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_matters(self):
        assert run_job("quadrature", {}, 1) != run_job("quadrature", {}, 2)

    def test_results_json_serialisable(self):
        for handler in ("docking", "quadrature", "cost_point"):
            json.dumps(run_job(handler, {}, seed=0))

    def test_flaky_fails_then_succeeds(self, chaos_handlers):
        # the harness handler counts its own calls per job seed
        for _ in range(2):
            with pytest.raises(SimulationError):
                run_job("chaos:flaky", {"fail_attempts": 2}, 0)
        result = run_job("chaos:flaky", {"fail_attempts": 2}, 0)
        assert result == {"succeeded_on_attempt": 3}
        with pytest.raises(SimulationError):  # another seed, its own count
            run_job("chaos:flaky", {"fail_attempts": 2}, 1)

    def test_sleep_reports_duration(self, chaos_handlers):
        assert run_job("chaos:sleep", {"seconds": 0.01}, 0) == {
            "slept_s": 0.01
        }

    def test_registry_names_are_stable(self):
        # production handlers only: the harness registers its own per test
        assert set(HANDLERS) == {"docking", "cost_point", "quadrature"}
