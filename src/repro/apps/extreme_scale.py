"""The five Section IV-B extreme-scale training applications.

Each :class:`ExtremeScaleApp` binds a catalog model to the parallel layout
the paper describes (data parallelism everywhere; model parallelism for
Yang's PI-GAN; gradient accumulation for Blanchard's SMILES-BERT) and to
per-app overlap/jitter calibrations, and carries the paper's reported
numbers for comparison. ``simulate()`` runs the training simulator and
returns measured-vs-reported rows.

Calibration notes: ``sustained_fraction`` (in the model catalog) fixes the
single-GPU rate; ``overlap_fraction`` and ``compute_jitter_cv`` are tuned so
the simulated scaling matches the reported efficiency at the reported node
count. The *shape* — which component (jitter/comm/IO) dominates at which
scale — is the reproduction target; see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.report import ResilienceReport
    from repro.resilience.restart import RestartStats
    from repro.training.goodput import GoodputModel

from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec, resolve_machine
from repro.models import (
    ModelSpec,
    deeplabv3plus,
    fc_densenet,
    pi_gan,
    smiles_bert,
    wavenet_gw,
)
from repro.training.job import TrainingJob
from repro.training.parallelism import DataSource, ParallelismPlan


@dataclass(frozen=True)
class ExtremeScaleApp:
    """One Section IV-B application, ready to simulate."""

    key: str
    citation: str
    model_factory: Callable[[], ModelSpec]
    plan: ParallelismPlan
    data_source: DataSource
    baseline_nodes: int
    peak_nodes: int
    reported: dict  # the paper's numbers (subset of reference.EXTREME_SCALE_CLAIMS)

    def job(
        self,
        n_nodes: int,
        machine: MachineSpec | str | None = None,
    ) -> TrainingJob:
        """The app's training job at ``n_nodes`` on ``machine`` (a registry
        name or spec; default Summit)."""
        return TrainingJob(
            model=self.model_factory(),
            machine=resolve_machine(machine),
            n_nodes=n_nodes,
            plan=self.plan,
            data_source=self.data_source,
        )

    def simulate(self, machine: MachineSpec | str | None = None) -> dict:
        """Run baseline and peak configurations; return measured numbers."""
        base = self.job(self.baseline_nodes, machine)
        peak = self.job(self.peak_nodes, machine)
        return {
            "key": self.key,
            "nodes": self.peak_nodes,
            "measured_flops": peak.sustained_flops(),
            "measured_efficiency": peak.efficiency_vs(base),
            "step_time": peak.step_time(),
            "breakdown": peak.breakdown(),
            "reported": self.reported,
        }

    def cost_model(self, machine: MachineSpec | str | None = None):
        """The app's step-time composite from the :mod:`repro.cost` layer.

        Evaluate at one node count (``.evaluate(n_nodes=...)``) or across a
        grid (:meth:`sweep_nodes`); scalar results are bit-identical to
        ``job(n).breakdown()``.
        """
        from repro.cost import step_cost_model

        return step_cost_model(
            self.model_factory(),
            resolve_machine(machine),
            self.plan,
            data_source=self.data_source,
        )

    def sweep_nodes(self, n_nodes, machine: MachineSpec | str | None = None):
        """Vectorized step-time sweep over a node-count axis.

        ``n_nodes`` is any 1-D integer sequence; node counts must be
        multiples of the replica span for model-parallel apps. Returns a
        :class:`~repro.cost.sweep.SweepResult`.
        """
        from repro.cost import sweep

        return sweep(self.cost_model(machine), {"n_nodes": n_nodes})

    def resilience_report(
        self,
        n_nodes: int | None = None,
        node_mtbf_seconds: float | None = None,
        state_bytes_per_node: float | None = None,
        tier: str = "nvme",
        empirical: bool = True,
        seed: int = 0,
        machine: MachineSpec | str | None = None,
    ) -> "ResilienceReport":
        """Expected goodput at scale under failures and checkpointing.

        Runs the training simulator for the raw rate, then derates it with
        the Young/Daly model (and, when ``empirical``, the event-driven
        checkpoint-restart simulation) at the job's width — the step-time
        number the five scaling reproductions quote becomes a
        time-to-solution number.
        """
        nodes = n_nodes if n_nodes is not None else self.peak_nodes
        model = self.goodput_model(
            nodes, node_mtbf_seconds, state_bytes_per_node, machine
        )
        return model.report(
            name=f"{self.key} @ {nodes} nodes ({tier})",
            tier=tier,
            empirical=empirical,
            seed=seed,
        )

    def goodput_model(
        self,
        n_nodes: int | None = None,
        node_mtbf_seconds: float | None = None,
        state_bytes_per_node: float | None = None,
        machine: MachineSpec | str | None = None,
    ) -> "GoodputModel":
        """The resilience-aware throughput model at this app's width, with
        the checkpoint tiers (NVMe, shared FS) of ``machine``."""
        from repro.resilience.faults import DEFAULT_NODE_MTBF_SECONDS
        from repro.training.goodput import (
            DEFAULT_STATE_BYTES_PER_NODE,
            GoodputModel,
        )

        nodes = n_nodes if n_nodes is not None else self.peak_nodes
        return GoodputModel(
            job=self.job(nodes, machine),
            node_mtbf_seconds=(
                node_mtbf_seconds
                if node_mtbf_seconds is not None
                else DEFAULT_NODE_MTBF_SECONDS
            ),
            state_bytes_per_node=(
                state_bytes_per_node
                if state_bytes_per_node is not None
                else DEFAULT_STATE_BYTES_PER_NODE
            ),
        )

    def resilience_ensemble(
        self,
        n_nodes: int | None = None,
        node_mtbf_seconds: float | None = None,
        state_bytes_per_node: float | None = None,
        tier: str = "nvme",
        n_replicas: int = 8,
        seed: int = 0,
        n_jobs: int = 1,
        machine: MachineSpec | str | None = None,
    ) -> "list[RestartStats]":
        """A Monte-Carlo ensemble of checkpoint-restart runs for this app.

        Replica ``i`` uses the ``i``-th child of ``seed``; the replica list
        is identical at every ``n_jobs``, so averaging the overheads gives
        an ``n_jobs``-invariant error bar around the Young/Daly optimum.
        """
        model = self.goodput_model(
            n_nodes, node_mtbf_seconds, state_bytes_per_node, machine
        )
        return model.simulate_ensemble(
            tier=tier, seed=seed, n_replicas=n_replicas, n_jobs=n_jobs,
        )


def _app(key, citation, model_factory, plan, source, baseline, peak, reported):
    return ExtremeScaleApp(
        key=key, citation=citation, model_factory=model_factory, plan=plan,
        data_source=source, baseline_nodes=baseline, peak_nodes=peak,
        reported=reported,
    )


EXTREME_SCALE_APPS: dict[str, ExtremeScaleApp] = {
    app.key: app
    for app in (
        # Kurth et al.: climate segmentation; LARC, fp16 gradient lag, NVMe
        # staging with MPI inter-node sample exchange. 1.13 EF / 90.7 %.
        _app(
            "kurth",
            "Kurth et al., Exascale Deep Learning for Climate Analytics (SC18)",
            deeplabv3plus,
            ParallelismPlan(
                local_batch=2,
                overlap_fraction=0.9,
                compute_jitter_cv=0.042,
            ),
            DataSource.NVME,
            1,
            4560,
            {"peak_flops": 1.13e18, "efficiency": 0.907},
        ),
        # Yang et al.: PI-GAN for stochastic PDEs; model parallelism within
        # the node (GAN batch limits) + data parallelism. >1.2 EF / 93 %.
        _app(
            "yang",
            "Yang et al., Highly-scalable physics-informed GANs (DLS 2019)",
            pi_gan,
            ParallelismPlan(
                local_batch=2048,
                model_shards=6,
                overlap_fraction=0.8,
                compute_jitter_cv=0.03,
            ),
            DataSource.MEMORY,  # PDE collocation points are generated, not read
            1,
            4584,
            {"peak_flops": 1.2e18, "efficiency": 0.93},
        ),
        # Laanait et al.: microscopy inverse problem; LARS/Adam, novel
        # gradient-reduction optimisations, global batch 27,600. 2.15 EF.
        _app(
            "laanait",
            "Laanait et al., Exascale deep learning for scientific inverse "
            "problems (2019)",
            fc_densenet,
            ParallelismPlan(
                local_batch=1,
                overlap_fraction=0.95,
                compute_jitter_cv=0.012,
            ),
            DataSource.NVME,
            1,
            4600,
            {"peak_flops": 2.15e18, "global_batch": 27600},
        ),
        # Khan et al.: gravitational-wave parameter inference; LAMB.
        # 80 % efficiency scaling 8 -> 1024 nodes.
        _app(
            "khan",
            "Khan et al., Physics-inspired deep learning for black hole "
            "mergers (Phys. Lett. B 2020)",
            wavenet_gw,
            ParallelismPlan(
                local_batch=16,
                overlap_fraction=0.0,
                compute_jitter_cv=0.07,
            ),
            DataSource.NVME,
            8,
            1024,
            {"efficiency": 0.80},
        ),
        # Blanchard et al.: SMILES-BERT pretraining; LAMB + gradient
        # accumulation to a 5.8 M global batch. 603 PF; 68 % with I/O,
        # 83.3 % without.
        _app(
            "blanchard",
            "Blanchard et al., Language models for SARS-CoV-2 inhibitors (SC21)",
            smiles_bert,
            ParallelismPlan(
                local_batch=30,
                accumulation_steps=8,
                overlap_fraction=0.5,
                io_overlap_fraction=0.35,
                compute_jitter_cv=0.015,
            ),
            DataSource.SHARED_FS,
            1,
            4032,
            {
                "peak_flops": 603e15,
                "efficiency_with_io": 0.68,
                "efficiency_without_io": 0.833,
                "max_global_batch": 5.8e6,
            },
        ),
    )
}


def get_app(key: str) -> ExtremeScaleApp:
    try:
        return EXTREME_SCALE_APPS[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown app {key!r}; available: {sorted(EXTREME_SCALE_APPS)}"
        ) from None
