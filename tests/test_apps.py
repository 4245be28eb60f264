"""Tests for the Gordon Bell registry and the extreme-scale app simulations.

The extreme-scale assertions are the Section IV-B reproduction targets: the
simulated sustained FLOP rates and parallel efficiencies must land near the
paper's reported values.
"""

import dataclasses

import pytest

from repro.apps import EXTREME_SCALE_APPS, GORDON_BELL_FINALISTS, gordon_bell_table
from repro.apps.extreme_scale import get_app
from repro.errors import ConfigurationError
from repro.portfolio import reference as ref
from repro.portfolio.taxonomy import Motif
from repro.training.parallelism import DataSource
from repro.training.scaling import ScalingStudy


class TestGordonBellRegistry:
    def test_total_17_finalists(self):
        assert len(GORDON_BELL_FINALISTS) == 17

    def test_table_iii_reproduced_exactly(self):
        assert gordon_bell_table() == ref.GORDON_BELL_TABLE

    def test_ten_ai_finalists(self):
        assert sum(1 for f in GORDON_BELL_FINALISTS if f.uses_ai) == 10

    def test_ai_finalists_have_motifs(self):
        for f in GORDON_BELL_FINALISTS:
            if f.uses_ai:
                assert f.motif is not None
            else:
                assert f.motif is None

    def test_known_scales(self):
        by_name = {f.name: f for f in GORDON_BELL_FINALISTS}
        assert by_name["Kurth et al."].max_nodes == 4560
        assert by_name["Nguyen-Cong et al."].max_nodes == 4650
        assert by_name["Trifan et al."].max_nodes == 256

    def test_known_peaks(self):
        by_name = {f.name: f for f in GORDON_BELL_FINALISTS}
        assert by_name["Kurth et al."].peak_flops == pytest.approx(1.13e18)
        assert by_name["Blanchard et al."].peak_flops == pytest.approx(603e15)

    def test_steering_is_most_common_covid_motif(self):
        covid_ai = [
            f.motif for f in GORDON_BELL_FINALISTS
            if f.category == "covid" and f.uses_ai
        ]
        assert covid_ai.count(Motif.STEERING) == 3


class TestExtremeScaleApps:
    def test_all_five_present(self):
        assert set(EXTREME_SCALE_APPS) == {
            "kurth", "yang", "laanait", "khan", "blanchard"
        }

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            get_app("mlperf")

    @pytest.fixture(scope="class")
    def results(self):
        return {key: app.simulate() for key, app in EXTREME_SCALE_APPS.items()}

    def test_kurth_1_13_exaflops(self, results):
        assert results["kurth"]["measured_flops"] == pytest.approx(1.13e18, rel=0.03)

    def test_kurth_efficiency_90_7(self, results):
        assert results["kurth"]["measured_efficiency"] == pytest.approx(
            0.907, abs=0.02
        )

    def test_yang_over_1_2_exaflops(self, results):
        assert results["yang"]["measured_flops"] > 1.15e18

    def test_yang_efficiency_93(self, results):
        assert results["yang"]["measured_efficiency"] == pytest.approx(0.93, abs=0.02)

    def test_laanait_2_15_exaflops(self, results):
        assert results["laanait"]["measured_flops"] == pytest.approx(
            2.15e18, rel=0.03
        )

    def test_laanait_global_batch_27600(self):
        app = get_app("laanait")
        assert app.job(app.peak_nodes).global_batch() == 27600

    def test_khan_efficiency_80(self, results):
        assert results["khan"]["measured_efficiency"] == pytest.approx(0.80, abs=0.03)

    def test_blanchard_603_petaflops(self, results):
        assert results["blanchard"]["measured_flops"] == pytest.approx(
            603e15, rel=0.03
        )

    def test_blanchard_efficiency_with_io_68(self, results):
        assert results["blanchard"]["measured_efficiency"] == pytest.approx(
            0.68, abs=0.03
        )

    def test_blanchard_efficiency_without_io_83(self):
        app = get_app("blanchard")
        no_io = dataclasses.replace(app, data_source=DataSource.MEMORY)
        result = no_io.simulate()
        assert result["measured_efficiency"] == pytest.approx(0.833, abs=0.03)

    def test_blanchard_global_batch_5_8m(self):
        app = get_app("blanchard")
        assert app.job(app.peak_nodes).global_batch() == pytest.approx(
            5.8e6, rel=0.01
        )

    def test_all_apps_below_machine_peak(self, results):
        for key, result in results.items():
            nodes = EXTREME_SCALE_APPS[key].peak_nodes
            peak = nodes * 6 * 125e12
            assert result["measured_flops"] < peak, key

    def test_io_bound_app_is_blanchard(self, results):
        """Only the GPFS-fed app has exposed I/O; the NVMe/in-memory apps
        do not — the Section VI-B storage-hierarchy argument."""
        io_fractions = {
            key: result["breakdown"].io_fraction for key, result in results.items()
        }
        assert io_fractions["blanchard"] > 0.05
        for key in ("kurth", "yang", "laanait", "khan"):
            assert io_fractions[key] < 0.01, key

    def test_khan_is_communication_dominated(self, results):
        """Khan's small WaveNet has the largest exposed-communication share
        of the five (small compute per step, unoverlapped)."""
        comm = {k: r["breakdown"].comm_fraction for k, r in results.items()}
        assert comm["khan"] == max(comm.values())

    def test_reported_dicts_match_reference(self):
        for key, app in EXTREME_SCALE_APPS.items():
            claims = ref.EXTREME_SCALE_CLAIMS[key]
            assert app.peak_nodes == claims["nodes"]

    @pytest.mark.parametrize("key", sorted(EXTREME_SCALE_APPS))
    def test_weak_scaling_peak_is_the_simulated_peak(self, key, results):
        """A ScalingStudy sweep's peak point carries the exact numbers the
        registry judges through ``simulate()``."""
        app = EXTREME_SCALE_APPS[key]
        peak = ScalingStudy(app.job(app.baseline_nodes)).weak_scaling(
            [app.baseline_nodes, app.peak_nodes]
        )[-1]
        assert peak.sustained_flops == results[key]["measured_flops"]
        assert peak.efficiency == results[key]["measured_efficiency"]
        assert peak.global_batch == app.job(app.peak_nodes).global_batch()

    def test_yang_shards_each_replica_across_a_node(self):
        # model parallelism on top of data parallelism (GAN batch limits)
        assert get_app("yang").plan.model_shards == 6

    def test_khan_trains_with_lamb(self):
        assert ref.EXTREME_SCALE_CLAIMS["khan"]["optimizer"] == "lamb"
