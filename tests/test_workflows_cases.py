"""Tests for the three Section V workflow case studies.

The drug study's verify configuration (library 1500, seed 4, 48 initial
picks plus 4 x 24) is pinned number for number by
``goldens/drug_seed4.json``: every ``DrugDiscoveryResult`` field and a
SHA-256 of the first iteration's ``predict_with_uncertainty`` bytes. To
regenerate after an *intentional* change::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_workflows_cases.py
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ml.forest import RandomForestRegressor
from repro.science.docking import CompoundLibrary, DockingOracle
from repro.workflows import case_drug
from repro.workflows.case_biology import MultiscaleWorkflow
from repro.workflows.case_drug import DrugDiscoveryWorkflow
from repro.workflows.case_materials import MaterialsWorkflow

DRUG_GOLDEN = pathlib.Path(__file__).parent / "goldens" / "drug_seed4.json"


def _drug_golden_text(result, first_prediction_sha256: str) -> str:
    """The golden's bytes: one JSON key per line, one genome per line."""
    fields = {
        "best_true_affinity": result.best_true_affinity,
        "enrichment": result.enrichment,
        "enrichment_docking": result.enrichment_docking,
        "enrichment_random": result.enrichment_random,
        "evaluated_genomes": result.evaluated_genomes.tolist(),
        "first_prediction_sha256": first_prediction_sha256,
        "iteration_best": result.iteration_best,
        "md_calls": result.md_calls,
    }
    lines = []
    for key, value in fields.items():
        if key == "evaluated_genomes":
            rows = ",\n  ".join(json.dumps(row) for row in value)
            lines.append(f' "{key}": [\n  {rows}\n ]')
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


class TestMaterialsWorkflow:
    @pytest.fixture(scope="class")
    def result(self):
        return MaterialsWorkflow(lattice_size=12, seed=0).run(
            n_training=32, n_sweeps=80, n_warmup=80
        )

    def test_locates_transition_near_onsager(self, result):
        assert result.tc_relative_error < 0.15

    def test_bic_selects_nn_term(self, result):
        assert result.ce_terms == (1,)

    def test_surrogate_accurate(self, result):
        assert result.ce_rmse < 1e-6

    def test_expensive_calls_bounded_by_training_budget(self, result):
        assert result.expensive_calls == 32

    def test_surrogate_displaces_most_expensive_calls(self, result):
        assert result.call_reduction > 10

    def test_order_parameter_rises_on_cooling(self, result):
        orders = [r.order_parameter for r in result.sweep]
        assert orders[-1] > orders[0] + 0.4

    def test_small_lattice_rejected(self):
        with pytest.raises(ConfigurationError):
            MaterialsWorkflow(lattice_size=2)


class TestDrugDiscoveryWorkflow:
    @pytest.fixture(scope="class")
    def outcome(self):
        """The verify configuration, recording each surrogate prediction."""
        predictions: list[bytes] = []

        class RecordingForest(RandomForestRegressor):
            def predict_with_uncertainty(self, x):
                mean, std = super().predict_with_uncertainty(x)
                predictions.append(mean.tobytes() + std.tobytes())
                return mean, std

        library = CompoundLibrary.random(1500, seed=4)
        oracle = DockingOracle(seed=4)
        wf = DrugDiscoveryWorkflow(library, oracle, seed=4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(case_drug, "RandomForestRegressor", RecordingForest)
            result = wf.run(initial=48, per_iteration=24, n_iterations=4)
        return result, oracle, predictions

    def test_matches_golden(self, outcome):
        result, _, predictions = outcome
        assert len(predictions) == 4
        text = _drug_golden_text(
            result, hashlib.sha256(predictions[0]).hexdigest()
        )
        if os.environ.get("REPRO_REGEN_GOLDENS"):
            DRUG_GOLDEN.write_text(text)
            pytest.skip(f"regenerated {DRUG_GOLDEN.name}")
        assert DRUG_GOLDEN.exists(), (
            f"{DRUG_GOLDEN.name} missing - run with REPRO_REGEN_GOLDENS=1 "
            "to create it"
        )
        assert text == DRUG_GOLDEN.read_text(), (
            f"{DRUG_GOLDEN.name} drifted: the seed-4 drug study no longer "
            "reproduces its committed numbers"
        )

    def test_beats_random_selection(self, outcome):
        result, *_ = outcome
        assert result.enrichment > result.enrichment_random

    def test_competitive_with_docking_rank(self, outcome):
        result, *_ = outcome
        assert result.enrichment >= result.enrichment_docking

    def test_md_budget_respected(self, outcome):
        result, oracle, _ = outcome
        assert result.md_calls == 48 + 24 * 4
        assert oracle.md_calls == result.md_calls

    def test_iteration_best_monotone(self, outcome):
        result, *_ = outcome
        best = result.iteration_best
        assert all(b >= a - 1e-12 for a, b in zip(best, best[1:]))

    def test_mean_advantage_across_seeds(self):
        """The surrogate loop should beat docking-rank selection on average
        (the headline of the Section V-C pipeline)."""
        loops, docks = [], []
        for seed in range(3):
            library = CompoundLibrary.random(1200, seed=seed)
            oracle = DockingOracle(seed=seed)
            wf = DrugDiscoveryWorkflow(library, oracle, seed=seed)
            r = wf.run(initial=48, per_iteration=24, n_iterations=4)
            loops.append(r.enrichment)
            docks.append(r.enrichment_docking)
        assert np.mean(loops) > np.mean(docks)

    def test_ga_search_finds_above_average_compound(self):
        library = CompoundLibrary.random(800, seed=5)
        oracle = DockingOracle(seed=5)
        wf = DrugDiscoveryWorkflow(library, oracle, seed=5)
        ga_result, true_best = wf.ga_search(generations=15)
        truth = oracle.true_affinity(library.genomes)
        assert true_best > np.percentile(truth, 90)
        assert ga_result.evaluations > 0

    def test_small_library_rejected(self):
        with pytest.raises(ConfigurationError):
            DrugDiscoveryWorkflow(
                CompoundLibrary.random(10, seed=0), DockingOracle(seed=0)
            )

    def test_budget_exceeding_library_rejected(self):
        wf = DrugDiscoveryWorkflow(
            CompoundLibrary.random(100, seed=1), DockingOracle(seed=1)
        )
        with pytest.raises(ConfigurationError):
            wf.run(initial=48, per_iteration=24, n_iterations=10)


class TestMultiscaleWorkflow:
    @pytest.fixture(scope="class")
    def result(self):
        return MultiscaleWorkflow(seed=0).run(
            n_windows=6, frames_per_window=8, ae_epochs=250
        )

    def test_event_detected(self, result):
        assert result.event_detected
        assert result.event_score_ratio > 3.0

    def test_refinement_triggered(self, result):
        assert result.refinements_triggered == 1

    def test_consistency_rmse_finite_and_small(self, result):
        assert 0 <= result.consistency_rmse < 1.0

    def test_frame_accounting(self, result):
        # 6 windows + 1 event window of 8 coarse frames
        assert result.coarse_frames == 7 * 8
        # 6 windows + 1 refinement of 8 fine frames
        assert result.fine_frames == 7 * 8

    def test_too_few_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiscaleWorkflow(seed=0).run(n_windows=2, frames_per_window=8)

    def test_campaign_overlaps_across_facilities(self):
        graph = MultiscaleWorkflow.campaign_graph(n_windows=3)
        run = graph.execute()
        assert run.makespan < graph.serial_time()

    def test_cs2_accelerates_training_leg(self):
        slow = MultiscaleWorkflow.campaign_graph(n_windows=3, use_cs2=False).execute()
        fast = MultiscaleWorkflow.campaign_graph(n_windows=3, use_cs2=True).execute()
        assert fast.makespan <= slow.makespan

    def test_campaign_critical_path_ends_at_last_gno(self):
        graph = MultiscaleWorkflow.campaign_graph(n_windows=2)
        run = graph.execute()
        assert run.critical_path(graph)[-1] == "gno-1"
