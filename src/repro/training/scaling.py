"""Scaling studies: sweep a TrainingJob across node counts.

Weak scaling keeps the per-GPU batch fixed (the regime of every Section IV-B
result); strong scaling keeps the global batch fixed and shrinks the local
batch as nodes grow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.training.job import TrainingJob
from repro.training.parallelism import ParallelismPlan


@dataclass(frozen=True)
class ScalingPoint:
    """One row of a scaling study."""

    n_nodes: int
    n_gpus: int
    step_time: float
    throughput: float  # samples/s
    sustained_flops: float
    efficiency: float  # vs. the study's baseline, weak-scaling definition
    comm_fraction: float
    io_fraction: float
    global_batch: int

    def row(self) -> str:
        """Fixed-width table row (see ScalingStudy.table)."""
        return (
            f"{self.n_nodes:>6} {self.n_gpus:>7} {self.step_time * 1e3:>10.2f} "
            f"{self.throughput:>12.0f} {self.sustained_flops / 1e15:>10.3f} "
            f"{self.efficiency * 100:>7.1f}% {self.comm_fraction * 100:>6.1f}% "
            f"{self.io_fraction * 100:>6.1f}% {self.global_batch:>10}"
        )


_HEADER = (
    f"{'nodes':>6} {'gpus':>7} {'step(ms)':>10} {'samples/s':>12} "
    f"{'PFLOP/s':>10} {'eff':>8} {'comm':>7} {'io':>7} {'batch':>10}"
)


class ScalingStudy:
    """Run a node-count sweep for a base job.

    >>> from repro.machine import SUMMIT
    >>> from repro.models import resnet50
    >>> from repro.training import ParallelismPlan, TrainingJob
    >>> base = TrainingJob(resnet50(), SUMMIT, 1, ParallelismPlan(local_batch=128))
    >>> study = ScalingStudy(base)
    >>> points = study.weak_scaling([1, 4, 16])
    >>> points[0].efficiency
    1.0
    """

    def __init__(self, base: TrainingJob):
        self.base = base

    def weak_scaling(self, node_counts: list[int]) -> list[ScalingPoint]:
        """Fixed local batch; the global batch grows with the machine."""
        if not node_counts:
            raise ConfigurationError("node_counts must be non-empty")
        jobs = [self.base.with_nodes(n) for n in sorted(node_counts)]
        return self._evaluate(jobs)

    def strong_scaling(
        self, node_counts: list[int], global_batch: int | None = None
    ) -> list[ScalingPoint]:
        """Fixed global batch; the local batch shrinks as nodes grow.

        ``global_batch`` defaults to the base job's; a value below 1, or a
        node count for which it does not divide into whole per-replica
        batches, is rejected.
        """
        if not node_counts:
            raise ConfigurationError("node_counts must be non-empty")
        if global_batch is None:
            target = self.base.global_batch()
        elif not global_batch >= 1:  # written so that NaN fails it
            raise ConfigurationError(
                f"global_batch must be >= 1, got {global_batch}"
            )
        else:
            target = global_batch
        jobs = []
        for n in sorted(node_counts):
            gpus = n * self.base.machine.gpus_per_node
            replicas = self.base.plan.replicas(gpus)
            denominator = replicas * self.base.plan.accumulation_steps
            if target % denominator:
                raise ConfigurationError(
                    f"global batch {target} not divisible across {replicas} "
                    f"replicas x {self.base.plan.accumulation_steps} accumulation"
                )
            local = target // denominator
            plan = replace(self.base.plan, local_batch=local)
            jobs.append(self.base.with_nodes(n).with_plan(plan))
        return self._evaluate(jobs)

    def _evaluate(self, jobs: list[TrainingJob]) -> list[ScalingPoint]:
        baseline = jobs[0]
        base_per_gpu = baseline.throughput() / baseline.n_gpus
        points = []
        for job in jobs:
            b = job.breakdown()
            throughput = b["samples"] / b.total
            per_gpu = throughput / job.n_gpus
            points.append(
                ScalingPoint(
                    n_nodes=job.n_nodes,
                    n_gpus=job.n_gpus,
                    step_time=b.total,
                    throughput=throughput,
                    sustained_flops=throughput * job.model.effective_flops_per_sample,
                    efficiency=per_gpu / base_per_gpu,
                    comm_fraction=b.fraction("comm_exposed"),
                    io_fraction=b.fraction("io_exposed"),
                    global_batch=job.global_batch(),
                )
            )
        return points

    @staticmethod
    def table(points: list[ScalingPoint], title: str = "") -> str:
        """Render points as the fixed-width table ``repro scaling`` prints."""
        lines = []
        if title:
            lines.append(title)
        lines.append(_HEADER)
        lines.extend(p.row() for p in points)
        return "\n".join(lines)
