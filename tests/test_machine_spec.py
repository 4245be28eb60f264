"""Tests for the machine registry: Summit builders built from the spec,
Summit byte-identity goldens, constructor checks and property tests over
random valid MachineSpecs, and the ``--machine`` CLI surface."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.cli import main
from repro.cost import step_cost_model
from repro.cost.crossover import (
    DataParallelCrossoverModel,
    crossover_nodes,
    crossover_sweep,
)
from repro.errors import ConfigurationError
from repro.machine.gpu import GpuSpec, Precision
from repro.machine.node import NodeSpec
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
from repro.scheduler.jobs import SUMMIT_QUEUE_BINS
from repro.training.parallelism import DataSource, ParallelismPlan

from .hypothesis_settings import QUICK_SETTINGS, STANDARD_SETTINGS

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "conformance_summit_seed0.json"


def _crossover(sizes, ranks, spec, compute_time):
    """The Section VI-B crossover surface on ``spec``'s injection fabric."""
    return crossover_sweep(
        sizes, ranks, spec.injection_bandwidth,
        latency=spec.injection_latency, compute_time=compute_time,
    )


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
            cross = crossover_nodes(_crossover(sizes, ranks, spec, 0.05))
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


class TestNoDrift:
    """The Summit builders and the spec share one source."""

    def test_summit_node_built_from_spec(self):
        node = SUMMIT.node()
        assert node.gpu_count == SUMMIT.gpus_per_node
        assert node.injection_bandwidth == SUMMIT.injection_bandwidth

    def test_summit_system_built_from_spec(self):
        from repro.machine.summit import summit

        system = summit()
        assert system.name == SUMMIT.name
        assert system.node == SUMMIT.node()
        assert system.node_count == SUMMIT.node_count
        assert system.interconnect == SUMMIT.interconnect
        assert system.shared_fs is SUMMIT.shared_fs

    def test_link_singletons_match_spec(self):
        """Summit's links come from the spec's fields: the dual-rail
        injection link, NVLink inside a node, and the one EDR rail each
        fat-tree cable carries."""
        from repro.network.topology import FatTreeSpec

        rail = FatTreeSpec(hosts=64).link
        assert rail.bandwidth == SUMMIT.injection_rail_bandwidth
        assert rail.latency == SUMMIT.injection_latency
        assert SUMMIT.interconnect.total_bandwidth == SUMMIT.injection_bandwidth
        assert SUMMIT.interconnect.latency == SUMMIT.injection_latency
        assert SUMMIT.intra_node_link.total_bandwidth == (
            SUMMIT.intra_node_bandwidth
        )
        assert SUMMIT.intra_node_link.latency == SUMMIT.intra_node_latency

    def test_storage_singletons_match_spec(self):
        """One filesystem object per spec, and the NVMe tier from the
        spec's three NVMe figures."""
        from repro.storage.burst_buffer import BurstBuffer

        assert SUMMIT.shared_fs is SUMMIT.shared_fs
        assert SUMMIT.shared_fs.aggregate_read_bandwidth == (
            SUMMIT.fs_aggregate_read_bandwidth
        )
        assert SUMMIT.nvme == BurstBuffer(
            capacity_bytes=SUMMIT.nvme_capacity_bytes,
            read_bandwidth=SUMMIT.nvme_read_bandwidth,
            write_bandwidth=SUMMIT.nvme_write_bandwidth,
        )

    def test_queue_bins_reproduce_summit_thresholds(self):
        """The scheduler's bins are 60 %, 20 %, 2 % and 1 % of Summit's
        node count, and a catch-all from 1 node."""
        fractions = (0.6, 0.2, 0.02, 0.01)
        assert [low for low, _ in SUMMIT_QUEUE_BINS] == [
            round(f * SUMMIT.node_count) for f in fractions
        ] + [1]


def _float_fields(cls) -> tuple[str, ...]:
    """The rates, latencies and capacities a machine is described by."""
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.type in ("float", float)
    )


SPEC_FLOAT_FIELDS = _float_fields(MachineSpec)
NODE_FLOAT_FIELDS = _float_fields(NodeSpec)


class TestNonFiniteRejected:
    """NaN fails every constructor check, and infinity is no rate, latency
    or capacity: each is a ConfigurationError naming the field."""

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", SPEC_FLOAT_FIELDS)
    def test_machine_spec_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            dataclasses.replace(SUMMIT, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", NODE_FLOAT_FIELDS)
    def test_node_spec_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            dataclasses.replace(SUMMIT.node(), **{field: value})


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
        lo = crossover_nodes(_crossover(sizes, ranks, spec, 0.05))
        hi = crossover_nodes(_crossover(sizes, ranks, faster, 0.05))
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
        slow_bd = step_cost_model(
            model, spec, plan, data_source=DataSource.MEMORY
        ).evaluate(n_nodes=16)
        fast_bd = step_cost_model(
            model, faster, plan, data_source=DataSource.MEMORY
        ).evaluate(n_nodes=16)
        assert fast_bd["compute"] <= slow_bd["compute"]
        assert fast_bd["compute"] > 0

    @QUICK_SETTINGS
    @given(spec=machine_specs())
    def test_sweep_scalar_bit_parity_per_machine(self, spec):
        """A crossover sweep on the machine's fabric is bitwise the scalar
        evaluate path."""
        model = DataParallelCrossoverModel()
        ranks = [2, 16, 64]
        result = _crossover(1e9, np.array(ranks), spec, 0.05)
        for j, p in enumerate(ranks):
            scalar = model.evaluate(
                message_bytes=1e9, compute_time=0.05, n_ranks=p,
                latency=spec.injection_latency,
                bandwidth=spec.injection_bandwidth,
            )
            for term, value in scalar.terms.items():
                assert result.term(term)[j] == value

    @QUICK_SETTINGS
    @given(spec=machine_specs())
    def test_structural_battery_passes(self, spec):
        """Any valid spec passes its own structural conformance battery."""
        from repro.verify.machines import run_machine_conformance

        assert run_machine_conformance(spec, seed=0).passed


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
