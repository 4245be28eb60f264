"""Cross-module integration tests: the paper's storylines end to end."""

import dataclasses

import numpy as np
import pytest

from repro.apps.extreme_scale import get_app
from repro.machine.summit import summit
from repro.models import get_model, resnet50
from repro.network.collectives import AllreduceAlgorithm
from repro.optim import LAMB, LARS, SGD
from repro.science.md import LennardJonesMD, lattice_state
from repro.science.potentials import LennardJonesPotential, MLPairPotential
from repro.training import DataSource, ParallelismPlan, ScalingStudy, TrainingJob
from repro.training.convergence import RESNET50_CONVERGENCE, time_to_solution


class TestDataParallelStoryline:
    """Section VI-B end to end: the same model goes from compute-bound to
    communication-bound as the gradient grows, and from GPFS-feasible to
    NVMe-only as the job grows."""

    def test_comm_bound_transition_with_model_size(self):
        """ResNet-50 hides its 100 MB allreduce easily; BERT-large's 1.4 GB
        is 'close to the time of per-batch forward and backward propagation
        and hence hard to hide'; a 3x-BERT model (with the local batch the
        GPU memory still allows) is communication-bound outright."""
        system = summit(include_high_mem=False)

        def comm_fraction(model, local_batch):
            job = TrainingJob(
                model, system, 1024,
                ParallelismPlan(
                    local_batch=local_batch, overlap_fraction=0.0,
                    allreduce_algorithm=AllreduceAlgorithm.RING,
                ),
                data_source=DataSource.MEMORY,
            )
            return job.breakdown().comm_fraction

        from repro.models import bert_large

        giant = dataclasses.replace(
            bert_large(), parameters=2.5 * 350e6,
            activation_bytes_per_sample=48e6,
        )
        small = comm_fraction(resnet50(), 128)
        medium = comm_fraction(bert_large(), 32)
        large = comm_fraction(giant, 8)
        assert small < medium < large
        assert small < 0.2
        assert large > 0.5

    def test_io_wall_appears_with_scale_on_gpfs(self):
        system = summit(include_high_mem=False)
        plan = ParallelismPlan(local_batch=128)
        small = TrainingJob(resnet50(), system, 16, plan, DataSource.SHARED_FS)
        large = TrainingJob(resnet50(), system, 4096, plan, DataSource.SHARED_FS)
        assert small.breakdown().io_fraction < 0.05
        assert large.breakdown().io_fraction > 0.30

    def test_nvme_removes_the_io_wall(self):
        system = summit(include_high_mem=False)
        plan = ParallelismPlan(local_batch=128)
        gpfs = TrainingJob(resnet50(), system, 4096, plan, DataSource.SHARED_FS)
        nvme = TrainingJob(resnet50(), system, 4096, plan, DataSource.NVME)
        assert nvme.step_time() < 0.5 * gpfs.step_time()


class TestTimeToSolutionStoryline:
    """Why every Section IV-B app pairs scale-out with LARS/LAMB."""

    def test_sgd_time_to_solution_saturates_lars_does_not(self):
        system = summit(include_high_mem=False)
        plan = ParallelismPlan(local_batch=64)
        times_sgd, times_lars = [], []
        for nodes in (64, 1024):
            job = TrainingJob(resnet50(), system, nodes, plan)
            times_sgd.append(time_to_solution(job, RESNET50_CONVERGENCE, "sgd"))
            times_lars.append(time_to_solution(job, RESNET50_CONVERGENCE, "lars"))
        sgd_speedup = times_sgd[0] / times_sgd[1]
        lars_speedup = times_lars[0] / times_lars[1]
        assert lars_speedup > 2 * sgd_speedup

    def test_layerwise_optimizers_win_time_to_solution_at_1024_nodes(self):
        job = TrainingJob(
            resnet50(), summit(include_high_mem=False), 1024,
            ParallelismPlan(local_batch=64),
        )
        times = {
            opt: time_to_solution(job, RESNET50_CONVERGENCE, opt)
            for opt in ("sgd", "momentum", "lars", "lamb")
        }
        assert times["lars"] < times["sgd"]
        assert times["lamb"] < times["momentum"]

    def test_optimizers_train_a_real_network_equally_well(self):
        """The numpy optimizers aren't just cost-model labels: LARS/LAMB
        actually train the real MLP to the same loss as tuned SGD."""
        from repro.ml import MLP

        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 4))
        y = np.column_stack([x.sum(axis=1), (x**2).sum(axis=1)])
        finals = {}
        for name, opt in (
            ("sgd", SGD(lr=0.01, momentum=0.9)),
            ("lars", LARS(lr=1.0, eta=0.02)),
            ("lamb", LAMB(lr=0.02)),
        ):
            net = MLP([4, 32, 2], seed=0)
            history = net.fit(x, y, epochs=150, optimizer=opt, batch_size=64,
                              seed=0)
            finals[name] = history[-1]
        assert max(finals.values()) < 0.5
        assert max(finals.values()) / min(finals.values()) < 50


class TestMLPotentialStoryline:
    """The MD-potentials motif end to end: learn a potential from reference
    data, run MD with it, get the same structure (Jia et al.'s claim at
    laptop scale)."""

    @pytest.fixture(scope="class")
    def potentials(self):
        ml = MLPairPotential(seed=0)
        ml.fit(LennardJonesPotential(), epochs=400, seed=0)
        return LennardJonesPotential(), ml

    def test_learned_potential_reproduces_rdf_peak(self, potentials):
        reference, learned = potentials
        peaks = []
        for potential in (reference, learned):
            md = LennardJonesMD(
                lattice_state(5, density=0.6, temperature=0.5, seed=1),
                potential=potential, dt=0.002,
            )
            rng = np.random.default_rng(0)
            for _ in range(400):
                md.langevin_step(0.7, 1.0, rng)
            r, g = md.radial_distribution(n_bins=40)
            peaks.append(r[g.argmax()])
        assert abs(peaks[0] - peaks[1]) < 0.2

    def test_learned_potential_conserves_energy_in_nve(self, potentials):
        _, learned = potentials
        md = LennardJonesMD(
            lattice_state(4, density=0.4, temperature=0.2, seed=2),
            potential=learned, dt=0.001,
        )
        e0 = md.total_energy()
        md.run(100)
        drift = abs(md.total_energy() - e0) / max(abs(e0), 1.0)
        assert drift < 0.05  # finite-difference forces are approximate


class TestExtremeScaleAblation:
    """Degrading the design choices the Section IV-B papers made must hurt,
    in the direction the papers say it hurts."""

    def test_kurth_without_overlap_loses_efficiency(self):
        app = get_app("kurth")
        base = app.simulate()["measured_efficiency"]
        degraded = dataclasses.replace(
            app, plan=dataclasses.replace(app.plan, overlap_fraction=0.0)
        ).simulate()["measured_efficiency"]
        assert degraded < base

    def test_blanchard_without_accumulation_is_comm_heavier(self):
        app = get_app("blanchard")
        base = app.job(app.peak_nodes).breakdown().comm_fraction
        degraded_plan = dataclasses.replace(app.plan, accumulation_steps=1)
        degraded = dataclasses.replace(app, plan=degraded_plan)
        assert degraded.job(app.peak_nodes).breakdown().comm_fraction > base

    def test_blanchard_accumulation_raises_throughput(self):
        app = get_app("blanchard")
        rates = {}
        for k in (1, 8):
            plan = dataclasses.replace(app.plan, accumulation_steps=k)
            job = dataclasses.replace(app, plan=plan).job(app.peak_nodes)
            b = job.breakdown()
            rates[k] = b.samples / b.total
        assert rates[8] > rates[1]

    def test_kurth_overlap_hides_exposed_comm(self):
        app = get_app("kurth")
        exposed = []
        for fraction in (0.0, 0.5, 0.9):
            plan = dataclasses.replace(app.plan, overlap_fraction=fraction)
            job = dataclasses.replace(app, plan=plan).job(app.peak_nodes)
            exposed.append(job.breakdown().comm_exposed)
        assert exposed == sorted(exposed, reverse=True)

    def test_pinned_ring_hits_the_latency_wall_for_small_gradients(self):
        """DeePMD's ~4 MB gradient in a 4096-way ring is latency-bound;
        tuned algorithm selection avoids that wall."""
        comm = {}
        for algo in (None, AllreduceAlgorithm.RING):
            job = TrainingJob(
                get_model("deepmd"), summit(include_high_mem=False), 4096,
                ParallelismPlan(local_batch=8, overlap_fraction=0.0,
                                allreduce_algorithm=algo),
                DataSource.MEMORY,
            )
            comm[algo] = job.breakdown().comm
        assert comm[AllreduceAlgorithm.RING] > comm[None]

    def test_yang_without_model_parallelism_needs_more_memory(self):
        """Yang's model parallelism exists because of GAN batch limits; with
        1-shard replicas and the same local batch the job still fits (the
        PI-GAN is small) but pays more allreduce per replica group."""
        app = get_app("yang")
        dp_plan = dataclasses.replace(app.plan, model_shards=1)
        dp = dataclasses.replace(app, plan=dp_plan)
        mp_comm = app.job(512).breakdown().comm
        dp_comm = dp.job(512).breakdown().comm
        assert dp_comm > mp_comm


class TestFullStudyPipeline:
    def test_survey_and_scaling_compose(self):
        """The two halves of the paper from one import chain."""
        from repro.core import ScalingStudyRunner, UsageSurvey

        survey = UsageSurvey.calibrated()
        active_share = list(survey.analytics.overall_usage().values())[0]
        runner = ScalingStudyRunner(
            "deeplabv3plus",
            ParallelismPlan(local_batch=2, overlap_fraction=0.9,
                            compute_jitter_cv=0.042),
        )
        points = runner.run([1, 64, 4560])
        assert 0.30 < active_share < 0.35
        assert points[-1].sustained_flops == pytest.approx(1.13e18, rel=0.05)
