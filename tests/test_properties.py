"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold over wide input ranges, not just the examples the
unit tests pick: cost-model monotonicity and scale-invariance, allocation
margins, optimizer step-size bounds, simulation conservation laws.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine import SUMMIT
from repro.models.base import ModelSpec
from repro.network.collectives import allreduce_time, ring_allreduce_time
from repro.network.link import LinkSpec
from repro.optim import LAMB, LARC, LARS, SGD
from repro.portfolio.generate import integerize, ipf_fit
from repro.science.ising import AlloyLattice, MonteCarlo
from repro.training import DataSource, ParallelismPlan, TrainingJob


links = st.builds(
    LinkSpec,
    latency=st.floats(min_value=1e-8, max_value=1e-4),
    bandwidth=st.floats(min_value=1e8, max_value=1e12),
    rails=st.integers(min_value=1, max_value=4),
)


class TestCollectiveProperties:
    @settings(max_examples=50, deadline=None)
    @given(link=links, p=st.integers(min_value=2, max_value=8192),
           m=st.floats(min_value=1.0, max_value=1e10))
    def test_auto_allreduce_never_beats_physics(self, link, p, m):
        """No algorithm can move the data faster than one full message over
        the injection link (each rank must at least send its gradient once)."""
        t = allreduce_time(p, m, link, None)
        lower_bound = (p - 1) / p * m / link.total_bandwidth
        assert t >= lower_bound * 0.999

    @settings(max_examples=50, deadline=None)
    @given(link=links, p=st.integers(min_value=2, max_value=4096),
           m=st.floats(min_value=1.0, max_value=1e9))
    def test_allreduce_equals_reduce_scatter_plus_allgather(self, link, p, m):
        ring = ring_allreduce_time(p, m, link)
        # ring reduce-scatter and ring allgather: (p-1) alpha + (p-1)/p M/B each
        phase = (p - 1) * link.latency + (p - 1) / p * m / link.total_bandwidth
        two_phase = phase + phase
        assert ring == pytest.approx(two_phase, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(link=links, p=st.integers(min_value=2, max_value=4096),
           m=st.floats(min_value=1.0, max_value=1e9),
           scale=st.floats(min_value=1.5, max_value=10.0))
    def test_bandwidth_term_scales_linearly(self, link, p, m, scale):
        base = ring_allreduce_time(p, m, link)
        scaled = ring_allreduce_time(p, m * scale, link)
        latency = 2 * (p - 1) * link.latency
        assert scaled - latency == pytest.approx((base - latency) * scale,
                                                 rel=1e-6)


class TestTrainingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.sampled_from([1, 2, 4, 16, 64, 256, 1024, 4096]),
        batch=st.sampled_from([1, 8, 64]),
        params=st.floats(min_value=1e5, max_value=5e8),
        flops=st.floats(min_value=1e8, max_value=1e12),
    )
    def test_per_gpu_throughput_never_improves_with_scale(
        self, nodes, batch, params, flops
    ):
        """Weak-scaling efficiency is at most 1: adding nodes can only hold
        or degrade per-GPU throughput (communication-dominated models can
        even lose *total* throughput, so only the per-GPU form is universal).
        """
        model = ModelSpec("m", params, flops, 1e3, 0.2,
                          activation_bytes_per_sample=1e4)
        plan = ParallelismPlan(local_batch=batch)
        small = TrainingJob(model, SUMMIT, max(1, nodes // 2), plan,
                            DataSource.MEMORY)
        large = TrainingJob(model, SUMMIT, nodes, plan, DataSource.MEMORY)
        per_gpu_small = small.throughput() / small.n_gpus
        per_gpu_large = large.throughput() / large.n_gpus
        assert per_gpu_large <= per_gpu_small * 1.001

    @settings(max_examples=30, deadline=None)
    @given(
        overlap=st.floats(min_value=0.0, max_value=1.0),
        nodes=st.sampled_from([4, 64, 512]),
    )
    def test_overlap_never_hurts(self, overlap, nodes):
        model = ModelSpec("m", 1e8, 1e10, 1e3, 0.2)
        base = TrainingJob(
            model, SUMMIT, nodes,
            ParallelismPlan(local_batch=32, overlap_fraction=0.0),
            DataSource.MEMORY,
        )
        better = TrainingJob(
            model, SUMMIT, nodes,
            ParallelismPlan(local_batch=32, overlap_fraction=overlap),
            DataSource.MEMORY,
        )
        assert better.step_time() <= base.step_time() + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(min_value=1, max_value=16))
    def test_accumulation_preserves_sample_accounting(self, k):
        model = ModelSpec("m", 1e7, 1e9, 1e3, 0.2)
        plan = ParallelismPlan(local_batch=8, accumulation_steps=k)
        job = TrainingJob(model, SUMMIT, 4, plan, DataSource.MEMORY)
        b = job.breakdown()
        assert b["samples"] == 4 * 6 * 8 * k


class TestAllocationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.integers(min_value=1, max_value=40), min_size=2,
                      max_size=6),
        n_cols=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_ipf_integerize_roundtrip(self, rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        total = sum(rows)
        cols = rng.multinomial(total, np.ones(n_cols) / n_cols)
        assume((cols > 0).all())
        fitted = ipf_fit(
            np.ones((len(rows), n_cols)),
            np.array(rows, dtype=float),
            cols.astype(float),
        )
        out = integerize(fitted)
        assert (out.sum(axis=1) == np.array(rows)).all()
        assert (out.sum(axis=0) == cols).all()
        assert (out >= 0).all()


class TestOptimizerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_lars_step_invariant_to_gradient_scale(self, scale, seed):
        """LARS's defining property: rescaling the gradient does not change
        the (first) update direction or magnitude."""
        rng = np.random.default_rng(seed)
        w0 = rng.normal(size=5) + 2.0
        g = rng.normal(size=5)
        assume(np.linalg.norm(g) > 1e-6)

        w_a = [w0.copy()]
        LARS(lr=0.5, momentum=0.0, eta=0.01).step(w_a, [g.copy()])
        w_b = [w0.copy()]
        LARS(lr=0.5, momentum=0.0, eta=0.01).step(w_b, [g * scale])
        assert np.allclose(w_a[0], w_b[0], rtol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(min_value=1.0, max_value=1e6),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_larc_update_bounded_by_global_lr(self, scale, seed):
        """LARC clips: no coordinate moves more than lr * ||step vector||
        regardless of weight scale."""
        rng = np.random.default_rng(seed)
        w0 = (rng.normal(size=5) + 1.0) * scale
        g = rng.normal(size=5)
        assume(np.linalg.norm(g) > 1e-6)
        w = [w0.copy()]
        lr = 0.01
        LARC(lr=lr, momentum=0.0, eta=10.0).step(w, [g.copy()])
        moved = np.linalg.norm(w[0] - w0)
        assert moved <= lr * np.linalg.norm(g) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_lamb_step_bounded_by_lr_times_clip(self, seed):
        rng = np.random.default_rng(seed)
        w0 = rng.normal(size=8) * 100
        g = rng.normal(size=8)
        assume(np.linalg.norm(g) > 1e-6)
        w = [w0.copy()]
        opt = LAMB(lr=0.1, clip=2.0, weight_decay=0.0)
        opt.step(w, [g.copy()])
        # |update| <= lr * clip * |direction|; direction elements are ~<= 1
        assert np.abs(w[0] - w0).max() <= 0.1 * 2.0 * np.sqrt(8) * 1.5

    @settings(max_examples=20, deadline=None)
    @given(lr=st.floats(min_value=1e-4, max_value=0.2),
           seed=st.integers(min_value=0, max_value=50))
    def test_sgd_reduces_convex_loss(self, lr, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=4)
        w = [target + rng.normal(size=4)]
        before = float(((w[0] - target) ** 2).sum())
        opt = SGD(lr=lr)
        for _ in range(5):
            opt.step(w, [2.0 * (w[0] - target)])
        after = float(((w[0] - target) ** 2).sum())
        assert after <= before


class TestMonteCarloProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_sweep_preserves_spin_domain(self, seed):
        lattice = AlloyLattice(8, seed=seed)
        mc = MonteCarlo(lattice, seed=seed)
        mc.sweep(2.0)
        assert set(np.unique(lattice.spins)) <= {-1, 1}

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_zero_temperature_limit_never_raises_energy(self, seed):
        lattice = AlloyLattice(8, seed=seed)
        mc = MonteCarlo(lattice, seed=seed)
        e_prev = lattice.energy()
        for _ in range(5):
            mc.sweep(1e-9)
            e_now = lattice.energy()
            assert e_now <= e_prev + 1e-9
            e_prev = e_now
