"""Machine-registry conformance: expectation sets for non-Summit machines.

Summit's 80 paper-pinned entries live in :mod:`repro.verify.expectations`
and never change. Non-Summit registry machines (``frontier-like``,
``perlmutter-like``, ``tpu-pod-like``) have no paper to pin against, so
their conformance battery is *structural*: every derived quantity the
:class:`~repro.machine.spec.MachineSpec` exposes must re-derive from its
primitive fields (aggregate NVMe = per-node x node count, injection =
rails x rail bandwidth, peak FLOPs = nodes x GPUs x per-GPU), the spec
must round-trip through its node, link and storage adapters without
drift, and the Section VI-B analytics replayed on the machine must keep
their shape (crossover node count nonincreasing in message size; grid
sweeps bit-identical to scalar evaluation).

:func:`run_machine_conformance` folds these into the same
:class:`~repro.verify.report.ConformanceReport` artifact the Summit
battery produces, so ``repro verify --machine frontier-like`` emits the
familiar deterministic JSON for CI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.verify.expectations import Expectation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.spec import MachineSpec

__all__ = ["build_machine_registry", "run_machine_conformance"]

#: Scales exercised by the per-machine sweep checks; small on purpose —
#: the battery must stay cheap enough for a CI smoke matrix.
_CHECK_SIZES = (1e6, 1e8, 1e9, 1e10)
_CHECK_RANK_MAX = 1024


def _structural(spec: "MachineSpec", key: str, description: str, measure,
                expected=True, cmp="true", **kwargs) -> Expectation:
    """A structural self-consistency expectation for one machine.

    ``provenance`` follows the registry convention: machines whose numbers
    come from the paper keep ``stated``; estimated machines are tagged
    ``estimated`` so report consumers can tell the classes apart.
    """
    return Expectation(
        key=f"machine.{spec.key}.{key}",
        section=f"machine.{spec.key}",
        description=description,
        paper=f"registry:{spec.key}",
        provenance="stated" if spec.provenance == "paper" else "estimated",
        expected=expected,
        measure=measure,
        cmp=cmp,
        **kwargs,
    )


def build_machine_registry(spec: "MachineSpec") -> tuple[Expectation, ...]:
    """The structural expectation set for one registry machine.

    Every measurement closes over ``spec`` and ignores the
    :class:`~repro.verify.expectations.VerifyContext` — machine checks need
    no portfolio or app artifacts, only the spec and the analytics layers.
    """
    checks: list[Expectation] = [
        _structural(
            spec, "injection_bandwidth",
            "aggregate injection = rails x per-rail bandwidth",
            lambda ctx: spec.injection_bandwidth,
            expected=spec.injection_rails * spec.injection_rail_bandwidth,
            cmp="exact", units="B/s",
        ),
        _structural(
            spec, "algorithmic_bandwidth",
            "paper's closed-form allreduce bandwidth is half of injection",
            lambda ctx: spec.algorithmic_bandwidth,
            expected=spec.injection_bandwidth / 2.0,
            cmp="exact", units="B/s",
        ),
        _structural(
            spec, "system_round_trip",
            "node, link and storage adapters preserve GPU count, link rates "
            "and storage bandwidths",
            lambda ctx: _system_round_trip(spec),
        ),
        _structural(
            spec, "crossover_monotone",
            "crossover node count nonincreasing in message size",
            lambda ctx: _crossover_monotone(spec),
        ),
        _structural(
            spec, "sweep_scalar_parity",
            "crossover grid sweep bit-identical to scalar evaluation",
            lambda ctx: _sweep_scalar_parity(spec),
        ),
    ]
    if spec.gpus is not None:
        from repro.machine.gpu import Precision

        checks.insert(2, _structural(
            spec, "peak_flops",
            "machine peak = nodes x GPUs/node x per-GPU peak",
            lambda ctx: spec.peak_flops(Precision.MIXED),
            expected=(
                spec.node_count
                * (spec.gpus_per_node * spec.gpus.peak(Precision.MIXED))
            ),
            cmp="exact", units="FLOP/s",
        ))
    if spec.has_nvme:
        checks.insert(2, _structural(
            spec, "aggregate_nvme_read",
            "aggregate NVMe read = per-node rate x node count",
            lambda ctx: spec.aggregate_nvme_read_bandwidth,
            expected=spec.nvme_read_bandwidth * spec.node_count,
            cmp="exact", units="B/s",
        ))
    return tuple(checks)


def _system_round_trip(spec: "MachineSpec") -> bool:
    """The node, link and storage adapters re-expose the spec's numbers."""
    node = spec.node()
    link = spec.interconnect
    checks = [
        node.gpu_count == spec.gpus_per_node,
        node.injection_bandwidth == spec.injection_bandwidth,
        link.total_bandwidth == spec.injection_bandwidth,
        link.latency == spec.injection_latency,
        spec.shared_fs.aggregate_read_bandwidth
        == spec.fs_aggregate_read_bandwidth,
    ]
    if spec.has_nvme:
        checks.append(
            spec.nvme is not None
            and spec.nvme.aggregate_read_bandwidth(spec.node_count)
            == spec.aggregate_nvme_read_bandwidth
        )
    else:
        checks.append(spec.nvme is None)
    return all(checks)


def _crossover_monotone(spec: "MachineSpec") -> bool:
    """Crossover node count must be nonincreasing in message size."""
    from repro.cost.crossover import crossover_nodes, crossover_sweep

    result = crossover_sweep(
        np.array(_CHECK_SIZES),
        np.arange(2, min(_CHECK_RANK_MAX, spec.node_count) + 1),
        spec.injection_bandwidth,
        latency=spec.injection_latency,
        compute_time=0.1,
    )
    nodes = crossover_nodes(result)
    finite = np.where(np.isnan(nodes), np.inf, nodes)
    return not any(
        b > a for a, b in zip(finite, finite[1:]) if np.isfinite(b)
    )


def _sweep_scalar_parity(spec: "MachineSpec") -> bool:
    """The vectorized crossover sweep equals scalar evaluation bit for bit."""
    from repro.cost.crossover import DataParallelCrossoverModel, crossover_sweep

    ranks = [2, 16, 64]
    grid = crossover_sweep(
        np.array(_CHECK_SIZES), np.array(ranks), spec.injection_bandwidth,
        latency=spec.injection_latency, compute_time=0.1,
    )
    model = DataParallelCrossoverModel()
    for i, size in enumerate(_CHECK_SIZES):
        for j, p in enumerate(ranks):
            scalar = model.evaluate(
                message_bytes=size, n_ranks=p,
                bandwidth=spec.injection_bandwidth,
                latency=spec.injection_latency, compute_time=0.1,
            )
            for term, value in scalar.terms.items():
                if grid.term(term)[i, j] != value:
                    return False
    return True


def run_machine_conformance(machine, seed: int = 0):
    """The conformance report for one non-Summit registry machine.

    The battery is the structural expectation set from
    :func:`build_machine_registry` plus the crossover-shape invariant
    replayed on the machine's fabric. It is deliberately small (a CI smoke
    battery, not the 80-entry Summit gate) and fully deterministic — the
    JSON bytes depend only on ``seed`` and the spec.
    """
    from repro.machine.spec import resolve_machine
    from repro.verify.expectations import VerifyContext
    from repro.verify.invariants import audit_crossover_shape
    from repro.verify.report import ConformanceReport

    spec = resolve_machine(machine)
    ctx = VerifyContext(seed=seed)
    registry = build_machine_registry(spec)
    return ConformanceReport(
        seed=seed,
        sections=(f"machine.{spec.key}",),
        expectations=[e.check(ctx) for e in registry],
        differentials=[],
        invariants=[audit_crossover_shape(machine=spec)],
    )
