"""Tests for the machine registry: Summit builders built from the spec,
Summit byte-identity goldens, property tests over random valid MachineSpecs, the
``machine`` sweep axis, and the ``--machine`` CLI surface."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.cli import main
from repro.cost import sweep
from repro.cost.crossover import (
    DataParallelCrossoverModel,
    crossover_nodes,
    machine_crossover_sweep,
)
from repro.errors import ConfigurationError
from repro.machine.gpu import GpuSpec, Precision
from repro.machine.spec import (
    FRONTIER_LIKE,
    MACHINES,
    PERLMUTTER_LIKE,
    SUMMIT,
    TPU_POD_LIKE,
    MachineSpec,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.models.catalog import get_model
from repro.scheduler.jobs import SUMMIT_QUEUE_BINS, queue_bins_for
from repro.training.parallelism import DataSource, ParallelismPlan
from repro.training.step_time import step_cost

from .hypothesis_settings import QUICK_SETTINGS, STANDARD_SETTINGS

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "conformance_summit_seed0.json"


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert machine_names() == tuple(sorted(MACHINES))
        assert set(machine_names()) == {
            "summit", "frontier-like", "perlmutter-like", "tpu-pod-like"
        }

    def test_provenance_classes(self):
        assert SUMMIT.provenance == "paper"
        for spec in (FRONTIER_LIKE, PERLMUTTER_LIKE, TPU_POD_LIKE):
            assert spec.provenance == "estimated"

    def test_faster_fabrics_push_bert_large_crossover_out(self):
        """Section VI-B per machine: at a 50 ms step, BERT-large's gradient
        is communication-bound on Summit within 4,096 nodes, and a faster
        fabric crosses over no earlier (or never)."""
        sizes = np.array([get_model(m).gradient_bytes
                          for m in ("resnet50", "bert_large")])
        bert = {}
        for name in machine_names():
            spec = get_machine(name)
            ranks = np.arange(2, min(4096, spec.node_count) + 1)
            cross = crossover_nodes(machine_crossover_sweep(
                sizes, ranks, machine=spec, compute_time=0.05))
            bert[name] = cross[1]
        summit = get_machine("summit")
        assert summit.injection_bandwidth == SUMMIT.injection_bandwidth
        assert not np.isnan(bert["summit"])
        for name in ("frontier-like", "perlmutter-like"):
            assert np.isnan(bert[name]) or bert[name] >= bert["summit"], name

    def test_unknown_machine_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="frontier-like"):
            get_machine("el-capitan")

    def test_resolve_none_is_summit(self):
        assert resolve_machine(None) is SUMMIT

    def test_resolve_spec_passthrough(self):
        assert resolve_machine(FRONTIER_LIKE) is FRONTIER_LIKE

    def test_resolve_name(self):
        assert resolve_machine("perlmutter-like") is PERLMUTTER_LIKE

    def test_factories_return_module_instances(self):
        for name in machine_names():
            assert get_machine(name) is get_machine(name)

    def test_describe_tags_provenance(self):
        assert "provenance: paper" in SUMMIT.describe()
        assert "provenance: estimated" in FRONTIER_LIKE.describe()

    def test_perlmutter_has_no_nvme(self):
        assert not PERLMUTTER_LIKE.has_nvme
        assert PERLMUTTER_LIKE.nvme is None
        assert PERLMUTTER_LIKE.system().nvme is None

    def test_as_dict_is_json_serializable(self):
        for name in machine_names():
            json.dumps(get_machine(name).as_dict(), sort_keys=True)


class TestNoDrift:
    """The Summit builders and the spec share one source."""

    def test_summit_node_built_from_spec(self):
        from repro.machine.summit import summit_node

        node = summit_node()
        assert node == SUMMIT.node()
        assert node.gpu_count == SUMMIT.gpus_per_node
        assert node.injection_bandwidth == SUMMIT.injection_bandwidth

    def test_summit_system_built_from_spec(self):
        from repro.machine.summit import summit

        system = summit(include_high_mem=False)
        assert system.node_count == SUMMIT.node_count
        assert system.interconnect == SUMMIT.interconnect
        assert system.shared_fs == SUMMIT.shared_fs
        assert system.intra_node_link == SUMMIT.intra_node_link

    def test_link_singletons_match_spec(self):
        from repro.network.link import EDR_RAIL, NVLINK2, SUMMIT_INJECTION

        assert EDR_RAIL.bandwidth == SUMMIT.injection_rail_bandwidth
        assert EDR_RAIL.latency == SUMMIT.injection_latency
        assert SUMMIT_INJECTION == SUMMIT.interconnect
        assert SUMMIT_INJECTION.total_bandwidth == SUMMIT.injection_bandwidth
        assert NVLINK2 == SUMMIT.intra_node_link

    def test_storage_singletons_match_spec(self):
        from repro.storage.burst_buffer import SUMMIT_NVME
        from repro.storage.filesystem import SUMMIT_GPFS

        assert SUMMIT_GPFS == SUMMIT.shared_fs
        assert SUMMIT_NVME == SUMMIT.nvme

    def test_queue_bins_reproduce_summit_thresholds(self):
        assert queue_bins_for(None) == SUMMIT_QUEUE_BINS
        assert queue_bins_for("summit") == SUMMIT_QUEUE_BINS

    def test_queue_bins_scale_to_other_machines(self):
        bins = queue_bins_for("frontier-like")
        assert bins[0][0] == round(0.6 * FRONTIER_LIKE.node_count)
        assert bins[-1][0] == 1


class TestSummitGolden:
    """The Summit conformance artifact is byte-identical to the seed."""

    def test_verify_json_byte_identical(self, capsys):
        golden = GOLDEN.read_text()
        assert main(["verify", "--json"]) == 0
        assert capsys.readouterr().out == golden

    def test_run_conformance_machine_summit_identical(self):
        from repro.verify import run_conformance

        golden = GOLDEN.read_text()
        assert run_conformance(seed=0, machine="summit").to_json() == golden


def _gpu_scaled(gpu: GpuSpec, factor: float) -> GpuSpec:
    return GpuSpec(
        name=f"{gpu.name} x{factor:g}",
        peak_flops={p: v * factor for p, v in gpu.peak_flops.items()},
        memory_bytes=gpu.memory_bytes,
        memory_bandwidth=gpu.memory_bandwidth,
        nvlink_bandwidth=gpu.nvlink_bandwidth,
    )


@st.composite
def machine_specs(draw) -> MachineSpec:
    """Random valid MachineSpecs as Summit variations."""
    has_nvme = draw(st.booleans())
    return dataclasses.replace(
        SUMMIT,
        key="hypo",
        name="Hypothetical",
        provenance="estimated",
        node_count=draw(st.integers(min_value=64, max_value=8192)),
        injection_rails=draw(st.integers(min_value=1, max_value=4)),
        injection_rail_bandwidth=(
            draw(st.floats(min_value=1.0, max_value=50.0)) * units.GB
        ),
        injection_latency=(
            draw(st.floats(min_value=0.2, max_value=5.0)) * units.US
        ),
        nvme_capacity_bytes=1.6 * units.TB if has_nvme else 0.0,
        nvme_read_bandwidth=6.0 * units.GB if has_nvme else 0.0,
        nvme_write_bandwidth=2.1 * units.GB if has_nvme else 0.0,
        node_tags=(
            frozenset({"gpu", "nvme"}) if has_nvme else frozenset({"gpu"})
        ),
    )


class TestMachineSpecProperties:
    @QUICK_SETTINGS
    @given(spec=machine_specs(), factor=st.floats(min_value=1.1, max_value=8.0))
    def test_crossover_monotone_in_bandwidth(self, spec, factor):
        """More injection bandwidth never crosses over at fewer nodes."""
        faster = dataclasses.replace(
            spec,
            injection_rail_bandwidth=spec.injection_rail_bandwidth * factor,
        )
        ranks = np.arange(2, min(spec.node_count, 512) + 1)
        sizes = np.array([1e8, 1e9])
        lo = crossover_nodes(
            machine_crossover_sweep(sizes, ranks, machine=spec,
                                    compute_time=0.05)
        )
        hi = crossover_nodes(
            machine_crossover_sweep(sizes, ranks, machine=faster,
                                    compute_time=0.05)
        )
        lo = np.where(np.isnan(lo), np.inf, lo)
        hi = np.where(np.isnan(hi), np.inf, hi)
        assert np.all(hi >= lo)

    @QUICK_SETTINGS
    @given(spec=machine_specs(), factor=st.floats(min_value=1.1, max_value=8.0))
    def test_step_time_monotone_in_flops(self, spec, factor):
        """Faster accelerators never lengthen the compute term."""
        faster = dataclasses.replace(
            spec, gpus=_gpu_scaled(spec.gpus, factor)
        )
        plan = ParallelismPlan(local_batch=32)
        model = get_model("resnet50")
        # data from memory: the random spec may have no NVMe tier
        slow_bd = step_cost(
            model, spec.system(), plan, data_source=DataSource.MEMORY
        ).evaluate(n_nodes=16)
        fast_bd = step_cost(
            model, faster.system(), plan, data_source=DataSource.MEMORY
        ).evaluate(n_nodes=16)
        assert fast_bd["compute"] <= slow_bd["compute"]
        assert fast_bd["compute"] > 0

    @QUICK_SETTINGS
    @given(spec=machine_specs())
    def test_sweep_scalar_bit_parity_per_machine(self, spec):
        """The machine sweep axis is bitwise the scalar evaluate path."""
        model = DataParallelCrossoverModel()
        ranks = [2, 16, 64]
        result = sweep(
            model, {"machine": [spec], "n_ranks": np.array(ranks)},
            message_bytes=1e9, compute_time=0.05,
        )
        overrides = model.machine_config(spec)
        for j, p in enumerate(ranks):
            scalar = model.evaluate(
                message_bytes=1e9, compute_time=0.05, n_ranks=p, **overrides
            )
            for term, value in scalar.terms.items():
                assert result.term(term)[0, j] == value

    @QUICK_SETTINGS
    @given(spec=machine_specs())
    def test_structural_battery_passes(self, spec):
        """Any valid spec passes its own structural conformance battery."""
        from repro.verify.machines import run_machine_conformance

        assert run_machine_conformance(spec, seed=0).passed


class TestMachineSweepAxis:
    def test_machine_axis_stacks_registry_entries(self):
        model = DataParallelCrossoverModel()
        ranks = np.arange(2, 10)
        result = sweep(
            model, {"machine": ["summit", "frontier-like"], "n_ranks": ranks},
            message_bytes=1e9, compute_time=0.05,
        )
        assert list(result.axes) == ["machine", "n_ranks"]
        assert result.term("comm").shape == (2, len(ranks))
        solo = sweep(
            model, {"n_ranks": ranks}, message_bytes=1e9, compute_time=0.05,
            **model.machine_config(SUMMIT),
        )
        np.testing.assert_array_equal(
            result.term("comm")[0], solo.term("comm")
        )

    def test_machine_only_axis(self):
        model = DataParallelCrossoverModel()
        result = sweep(
            model, {"machine": ["summit", "tpu-pod-like"]},
            message_bytes=1e9, compute_time=0.05, n_ranks=64,
        )
        comm = result.term("comm")
        assert comm.shape == (2,)
        # the pod's 100 GB/s injection beats Summit's 2 x 12.5 GB/s
        assert comm[1] < comm[0]

    def test_unknown_machine_in_axis_raises(self):
        model = DataParallelCrossoverModel()
        with pytest.raises(ConfigurationError):
            sweep(model, {"machine": ["aurora"]},
                  message_bytes=1e9, compute_time=0.05, n_ranks=64)


class TestMachineCli:
    def test_machine_lists_registry(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        for name in machine_names():
            assert name in out

    def test_machine_describes_entry(self, capsys):
        assert main(["machine", "frontier-like"]) == 0
        out = capsys.readouterr().out
        assert "Frontier-like" in out and "estimated" in out

    def test_machine_unknown_exits_config_error(self, capsys):
        assert main(["machine", "el-capitan"]) == 3

    def test_verify_machine_frontier(self, capsys):
        assert main(["verify", "--machine", "frontier-like"]) == 0
        out = capsys.readouterr().out
        assert "machine.frontier-like" in out and "PASS" in out

    def test_verify_machine_json_deterministic(self, capsys):
        assert main(["verify", "--machine", "tpu-pod-like", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--machine", "tpu-pod-like", "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["sections"] == ["machine.tpu-pod-like"]
        assert payload["passed"] is True

    def test_sweep_crossover_machine_json(self, capsys):
        assert main([
            "sweep", "--crossover", "--machine", "frontier-like",
            "--nodes", "2,64,256", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "frontier-like"
        assert len(payload["rows"]) == 2

    def test_sweep_machine_summit_json_omits_key(self, capsys):
        assert main([
            "sweep", "--crossover", "--machine", "summit",
            "--nodes", "2,64", "--json",
        ]) == 0
        assert "machine" not in json.loads(capsys.readouterr().out)

    def test_telemetry_machine_restart(self, capsys):
        assert main([
            "telemetry", "--scenario", "restart",
            "--machine", "perlmutter-like", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "perlmutter-like"
        assert payload["results"]["n_checkpoints"] > 0

    def test_resilience_machine_without_nvme_rejects_nvme_tier(self, capsys):
        assert main([
            "resilience", "--app", "blanchard", "--nodes", "64",
            "--machine", "perlmutter-like", "--tier", "nvme",
            "--analytic-only",
        ]) == 3
