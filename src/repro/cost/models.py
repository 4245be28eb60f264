"""Concrete cost models: the Section IV-B step-time composition and the
standalone Section VI-B analyses, built from :mod:`repro.cost.kernels`.

The centrepiece is :func:`step_cost_model`, which assembles the per-step
critical path as a dataflow composite::

    layout | compute | mp_exchange | allreduce | input_pipeline | straggler

Each stage emits named terms that later stages read (``compute_micro`` feeds
the overlap model, ``n_gpus`` feeds the straggler penalty), so the whole of
``training.step_time`` reduces to evaluating this composite — scalar for one
configuration, vectorized over a node-count axis for sweeps — with results
bit-identical to the original handwritten decomposition.

This module deliberately imports nothing from ``repro.machine`` /
``repro.network`` / ``repro.training`` (it receives specs duck-typed via the
factory arguments), keeping ``repro.cost`` a leaf layer those packages can
depend on.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.cost import kernels
from repro.cost.model import AnalyticCostModel, CompositeCostModel, compose
from repro.errors import CapacityError, ConfigurationError

__all__ = [
    "LayoutModel",
    "ComputeCostModel",
    "MpExchangeCostModel",
    "AllreduceCostModel",
    "GradientAllreduceModel",
    "InputPipelineCostModel",
    "StragglerCostModel",
    "IoRequirementModel",
    "CheckpointCostModel",
    "RooflineCostModel",
    "ConvergenceCostModel",
    "step_cost_model",
]


def _imax(x: Any) -> int:
    return int(np.max(x)) if isinstance(x, np.ndarray) else int(x)


def _imin(x: Any) -> int:
    return int(np.min(x)) if isinstance(x, np.ndarray) else int(x)


# -- step-time stages -----------------------------------------------------------


class LayoutModel(AnalyticCostModel):
    """Derived job-layout quantities: GPU count, replicas, ring width, and
    samples consumed per optimizer step."""

    name = "layout"
    requires = (
        "n_nodes",
        "gpu_count",
        "model_shards",
        "local_batch",
        "accumulation_steps",
        "replica_node_span",
        "max_nodes",
        "system_name",
    )
    provenance = {
        "n_gpus": "n_nodes * gpus/node",
        "replicas": "n_gpus / model_shards (data-parallel width)",
        "nodes_in_ring": "nodes per inter-node allreduce ring",
        "samples": "replicas * local_batch * accumulation_steps",
    }
    critical = ("samples",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        n_nodes = c["n_nodes"]
        if _imin(n_nodes) < 1:
            raise ConfigurationError("job size must be at least one node")
        if _imax(n_nodes) > c["max_nodes"]:
            raise CapacityError(
                f"{c['system_name']}: requested {_imax(n_nodes)} nodes, main "
                f"partition has {c['max_nodes']}"
            )
        n_gpus = n_nodes * c["gpu_count"]
        shards = c["model_shards"]
        if _imin(n_gpus) < shards:
            raise ConfigurationError(
                f"{_imin(n_gpus)} GPUs cannot hold a {shards}-shard replica"
            )
        remainder = n_gpus % shards
        if (isinstance(remainder, np.ndarray) and np.any(remainder)) or (
            not isinstance(remainder, np.ndarray) and remainder
        ):
            raise ConfigurationError(
                f"model_shards={shards} must divide the GPU count ({n_gpus})"
            )
        replicas = n_gpus // shards
        return {
            "n_gpus": n_gpus,
            "replicas": replicas,
            "nodes_in_ring": n_nodes // c["replica_node_span"],
            "samples": replicas * c["local_batch"] * c["accumulation_steps"],
        }


class ComputeCostModel(AnalyticCostModel):
    """Forward+backward compute per micro-step and per optimizer step."""

    name = "compute"
    requires = (
        "local_batch",
        "flops_per_sample",
        "sustained_flops",
        "model_shards",
        "accumulation_steps",
    )
    provenance = {
        "compute_micro": "batch * FLOPs/sample / sustained FLOP/s / shards",
        "compute": "accumulation_steps * compute_micro",
    }
    critical = ("compute",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        compute_micro = (
            kernels.step_compute_time(
                c["local_batch"], c["flops_per_sample"], c["sustained_flops"]
            )
            / c["model_shards"]
        )
        return {
            "compute_micro": compute_micro,
            "compute": c["accumulation_steps"] * compute_micro,
        }


class MpExchangeCostModel(AnalyticCostModel):
    """Model-parallel activation exchange per step (zero when unsharded)."""

    name = "mp_exchange"
    requires = ("mp_active", "accumulation_steps")
    defaults = {"mp_boundary_bytes": 0.0, "mp_latency": 0.0, "mp_bandwidth": 1.0}
    provenance = {
        "mp_exchange": "k * (alpha + boundary_bytes / B) across shard boundary",
    }
    critical = ("mp_exchange",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        if not c["mp_active"]:
            return {"mp_exchange": 0.0}
        return {
            "mp_exchange": c["accumulation_steps"]
            * kernels.transfer_time(
                c["mp_boundary_bytes"], c["mp_latency"], c["mp_bandwidth"]
            )
        }


class GradientAllreduceModel(AnalyticCostModel):
    """Hierarchical gradient allreduce: NVLink ring inside the node, fabric
    ring across ``nodes_in_ring`` nodes, then backward-pass overlap."""

    name = "gradient_allreduce"
    requires = (
        "message_bytes",
        "replicas_per_node",
        "intra_latency",
        "intra_bandwidth",
        "inter_latency",
        "inter_bandwidth",
        "overlap_fraction",
        "nodes_in_ring",
        "compute_micro",
    )
    defaults = {"allreduce_algorithm": None}
    provenance = {
        "comm": "intra-node + inter-node allreduce (alpha-beta, Sec. VI-B)",
        "comm_exposed": "max(0, comm - overlap_fraction * compute_micro)",
    }
    critical = ("comm_exposed",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        algorithm = c["allreduce_algorithm"]
        message = c["message_bytes"]
        comm = 0.0
        if c["replicas_per_node"] > 1:
            comm = comm + kernels.allreduce_time(
                c["replicas_per_node"],
                message,
                c["intra_latency"],
                c["intra_bandwidth"],
                algorithm,
            )
        comm = comm + kernels.allreduce_time(
            c["nodes_in_ring"],
            message,
            c["inter_latency"],
            c["inter_bandwidth"],
            algorithm,
        )
        return {
            "comm": comm,
            "comm_exposed": kernels.exposed_time(
                comm, c["overlap_fraction"], c["compute_micro"]
            ),
        }


class InputPipelineCostModel(AnalyticCostModel):
    """Per-step input-read cost for the configured data source, with
    prefetch overlap against the whole step's compute."""

    name = "input_pipeline"
    requires = ("io_mode", "samples_per_node_step", "bytes_per_sample",
                "io_overlap_fraction", "compute")
    defaults = {
        "io_rate": float("inf"),
        "fs_effective_aggregate": 0.0,
        "fs_per_client_cap": 0.0,
    }
    provenance = {
        "io": "samples/node/step * bytes/sample / achievable read rate",
        "io_exposed": "max(0, io - io_overlap_fraction * compute)",
    }
    critical = ("io_exposed",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        mode = c["io_mode"]
        if mode == "none":
            io = 0.0
        elif mode == "rate":
            io = kernels.input_read_time(
                c["samples_per_node_step"], c["bytes_per_sample"], c["io_rate"]
            )
        elif mode == "shared_fs":
            rate = kernels.shared_pool_bandwidth(
                c["fs_effective_aggregate"], c["fs_per_client_cap"], c["n_nodes"]
            )
            io = kernels.input_read_time(
                c["samples_per_node_step"], c["bytes_per_sample"], rate
            )
        else:
            raise ConfigurationError(f"unknown io_mode {mode!r}")
        return {
            "io": io,
            "io_exposed": kernels.exposed_time(
                io, c["io_overlap_fraction"], c["compute"]
            ),
        }


class StragglerCostModel(AnalyticCostModel):
    """Synchronous-SGD straggler penalty at the job's width."""

    name = "straggler"
    requires = ("compute", "compute_jitter_cv", "n_gpus")
    provenance = {
        "straggler": "compute * cv * sqrt(2 ln n_gpus) (expected max of n)",
    }
    critical = ("straggler",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "straggler": kernels.straggler_penalty(
                c["compute"], c["compute_jitter_cv"], c["n_gpus"]
            )
        }


#: Term order of the step composite's critical path — matches the seed
#: ``StepBreakdown.total`` addition order exactly.
STEP_CRITICAL = ("compute", "straggler", "mp_exchange", "comm_exposed", "io_exposed")


def step_cost_model(
    model: Any,
    system: Any,
    plan: Any,
    data_source: Any = "nvme",
    precision: Any = None,
    intra_node_link: Any = None,
) -> CompositeCostModel:
    """Bind a (model, system, plan) configuration into the step composite.

    Arguments mirror :func:`repro.training.step_time.step_breakdown`;
    ``data_source`` may be the :class:`~repro.training.parallelism.DataSource`
    enum or its string value. The returned composite requires only
    ``n_nodes`` — a scalar for ``evaluate`` or an integer array for
    ``evaluate_batch`` / :func:`repro.cost.sweep.sweep`.
    """
    node = system.node
    if not node.has_gpus:
        raise ConfigurationError(f"{system.name} main partition has no GPUs")
    if plan.model_shards > node.gpu_count and plan.model_shards % node.gpu_count:
        raise ConfigurationError(
            "multi-node model parallelism must use whole nodes per replica"
        )
    if intra_node_link is None:
        raise ConfigurationError("step_cost_model needs an intra_node_link spec")

    source = getattr(data_source, "value", data_source)
    shards = plan.model_shards
    gpu_count = node.gpu_count
    sustained = (
        model.sustained_flops(node.gpus)
        if precision is None
        else model.sustained_flops(node.gpus, precision)
    )

    # -- model-parallel boundary (static per configuration) ----------------------
    mp_active = shards > 1
    if mp_active:
        act_bytes = model.activation_bytes_per_sample or model.bytes_per_sample
        boundary_bytes = (
            2.0 * act_bytes * plan.local_batch * (shards - 1) / shards
        )
        mp_link = intra_node_link if shards <= gpu_count else system.interconnect
        mp_latency, mp_bandwidth = mp_link.latency, mp_link.total_bandwidth
    else:
        boundary_bytes, mp_latency, mp_bandwidth = 0.0, 0.0, 1.0

    # -- data-source binding ------------------------------------------------------
    if source == "memory":
        io_mode, io_params = "none", {}
    elif source == "nvme":
        if system.nvme is None:
            raise ConfigurationError(
                f"{system.name} nodes have no NVMe burst buffer"
            )
        io_mode = "rate"
        io_params = {"io_rate": system.nvme.read_bandwidth}
    elif source == "shared_fs":
        if system.shared_fs is None:
            raise ConfigurationError(f"{system.name} has no shared filesystem")
        fs = system.shared_fs
        io_mode = "shared_fs"
        io_params = {
            # Order matters for bit parity: derate the aggregate first, as
            # SharedFileSystem.read_bandwidth(random_access=True) does.
            "fs_effective_aggregate": fs.aggregate_read_bandwidth
            * fs.random_read_derate,
            "fs_per_client_cap": fs.per_client_read_bandwidth,
        }
    else:
        raise ConfigurationError(f"unknown data source {source!r}")

    replicas_per_node = max(1, gpu_count // shards)
    replica_node_span = max(1, shards // gpu_count)
    samples_per_node_step = (
        plan.local_batch * plan.accumulation_steps * replicas_per_node
        if shards <= gpu_count
        else plan.local_batch * plan.accumulation_steps / replica_node_span
    )
    algorithm = plan.allreduce_algorithm
    defaults: dict[str, Any] = {
        "system_name": system.name,
        "max_nodes": system.node_count,
        "gpu_count": gpu_count,
        "model_shards": shards,
        "local_batch": plan.local_batch,
        "accumulation_steps": plan.accumulation_steps,
        "replica_node_span": replica_node_span,
        "flops_per_sample": model.effective_flops_per_sample,
        "sustained_flops": sustained,
        "mp_active": mp_active,
        "mp_boundary_bytes": boundary_bytes,
        "mp_latency": mp_latency,
        "mp_bandwidth": mp_bandwidth,
        "message_bytes": model.gradient_bytes / shards,
        "replicas_per_node": replicas_per_node,
        "intra_latency": intra_node_link.latency,
        "intra_bandwidth": intra_node_link.total_bandwidth,
        "inter_latency": system.interconnect.latency,
        "inter_bandwidth": system.interconnect.total_bandwidth,
        "overlap_fraction": plan.overlap_fraction,
        "allreduce_algorithm": getattr(algorithm, "value", algorithm),
        "io_mode": io_mode,
        "samples_per_node_step": samples_per_node_step,
        "bytes_per_sample": model.bytes_per_sample,
        "io_overlap_fraction": plan.io_overlap_fraction,
        "compute_jitter_cv": plan.compute_jitter_cv,
        **io_params,
    }
    return compose(
        LayoutModel(),
        ComputeCostModel(),
        MpExchangeCostModel(),
        GradientAllreduceModel(),
        InputPipelineCostModel(),
        StragglerCostModel(),
        name=f"step[{model.name} @ {system.name}]",
        critical=STEP_CRITICAL,
        defaults=defaults,
    )


# -- standalone Section VI-B models ----------------------------------------------


class AllreduceCostModel(AnalyticCostModel):
    """Bare collective cost over (p, message, link) axes."""

    name = "allreduce"
    requires = ("p", "message_bytes", "latency", "bandwidth")
    defaults = {"allreduce_algorithm": "ring"}
    provenance = {
        "comm": "allreduce alpha-beta cost (Thakur/Rabenseifner, Sec. VI-B)",
    }
    critical = ("comm",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        kernels.check_participants(c["p"], c["message_bytes"])
        return {
            "comm": kernels.allreduce_time(
                c["p"], c["message_bytes"], c["latency"], c["bandwidth"],
                c["allreduce_algorithm"],
            )
        }


class IoRequirementModel(AnalyticCostModel):
    """Aggregate read bandwidth for ideal data-parallel scaling (~20 TB/s
    for full-Summit ResNet-50)."""

    name = "io_requirement"
    requires = ("samples_per_second_per_device", "bytes_per_sample", "n_devices")
    provenance = {
        "per_device_bandwidth": "samples/s/device * bytes/sample",
        "required_bandwidth": "per-device bandwidth * n_devices (Sec. VI-B)",
    }
    critical = ("required_bandwidth",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        per_device = kernels.per_device_read_bandwidth(
            c["samples_per_second_per_device"], c["bytes_per_sample"]
        )
        return {
            "per_device_bandwidth": per_device,
            "required_bandwidth": per_device * c["n_devices"],
        }


class CheckpointCostModel(AnalyticCostModel):
    """Young/Daly checkpoint economics at a given write rate."""

    name = "checkpoint"
    requires = ("state_bytes_per_node", "write_rate", "n_nodes",
                "node_mtbf_seconds")
    provenance = {
        "write_time": "state_bytes_per_node / write rate",
        "system_mtbf": "node MTBF / n_nodes",
        "optimal_interval": "Young: sqrt(2 * write_time * system MTBF)",
        "overhead_fraction": "delta/tau + (tau/2 + delta)/MTBF",
        "goodput_fraction": "1 - overhead_fraction",
    }
    critical = ("overhead_fraction",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        write_time = c["state_bytes_per_node"] / c["write_rate"]
        mtbf = kernels.system_mtbf(c["node_mtbf_seconds"], c["n_nodes"])
        interval = kernels.young_interval(write_time, mtbf)
        overhead = kernels.young_overhead(write_time, interval, mtbf)
        return {
            "write_time": write_time,
            "system_mtbf": mtbf,
            "optimal_interval": interval,
            "overhead_fraction": overhead,
            "goodput_fraction": 1.0 - overhead,
        }


class RooflineCostModel(AnalyticCostModel):
    """Device roofline placement over (flops, bytes_moved) axes."""

    name = "roofline"
    requires = ("flops", "bytes_moved", "peak_flops", "memory_bandwidth")
    provenance = {
        "arithmetic_intensity": "FLOPs / bytes of device-memory traffic",
        "ridge_intensity": "peak FLOP/s / memory bandwidth",
        "attainable_flops": "min(peak, intensity * memory bandwidth)",
    }
    critical = ("attainable_flops",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        intensity = c["flops"] / c["bytes_moved"]
        return {
            "arithmetic_intensity": intensity,
            "ridge_intensity": c["peak_flops"] / c["memory_bandwidth"],
            "attainable_flops": kernels.roofline_attainable(
                c["peak_flops"], c["memory_bandwidth"], intensity
            ),
        }


class ConvergenceCostModel(AnalyticCostModel):
    """Two-regime large-batch convergence law over a batch-size axis."""

    name = "convergence"
    requires = ("batch", "min_samples", "critical_batch")
    provenance = {
        "samples_to_target": "S_min * (1 + B / B_crit)",
        "steps_to_target": "samples_to_target / B",
    }
    critical = ("steps_to_target",)

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        samples = kernels.two_regime_samples(
            c["batch"], c["min_samples"], c["critical_batch"]
        )
        return {
            "samples_to_target": samples,
            "steps_to_target": samples / c["batch"],
        }
