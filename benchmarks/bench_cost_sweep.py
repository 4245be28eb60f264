"""Vectorized cost-model sweep vs the scalar reference loop.

Maps the Section VI-B crossover surface — gradient message size x node count
x link bandwidth — through :class:`repro.cost.DataParallelCrossoverModel`
twice: once as a single ``evaluate_batch`` pass (:func:`repro.cost.sweep`)
and once as a Python loop of scalar ``evaluate`` calls
(:func:`repro.cost.sweep_scalar`). Asserts the two are element-wise
bit-identical, that the vectorized pass is >= 50x faster on a >= 10,000-point
grid, and that the surface reproduces the paper's ResNet-50 ~8 ms /
BERT-large ~110 ms allreduce estimates.

Set ``REPRO_SMOKE=1`` for a small-grid CI smoke run with a relaxed speedup
threshold (timing under CI noise is not a benchmark).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from _record import record
from conftest import report

from repro.cost import (
    DataParallelCrossoverModel,
    crossover_nodes,
    crossover_sweep,
    sweep,
    sweep_scalar,
)
from repro.machine.spec import SUMMIT

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

#: Per-step compute budget the crossover is judged against (a mid-size model).
COMPUTE_TIME = 0.05

#: Relative speedup the vectorized path must deliver on the full grid; the
#: smoke grid is too small for stable timing, so it only sanity-checks > 1x.
MIN_SPEEDUP = 2.0 if SMOKE else 50.0


def _grid() -> dict[str, np.ndarray]:
    """Model size x node count x link bandwidth axes (>= 10k points full)."""
    if SMOKE:
        sizes = np.linspace(10e6, 2e9, 10)
        nodes = np.array([2, 64, 1024, SUMMIT.node_count])
        bandwidths = np.linspace(12.5e9, 50e9, 4)
    else:
        sizes = np.linspace(10e6, 2e9, 100)
        nodes = np.unique(
            np.geomspace(2, SUMMIT.node_count, 25).round().astype(int)
        )
        bandwidths = np.linspace(5e9, 50e9, 8)
    return {
        "message_bytes": sizes,
        "n_ranks": nodes,
        "bandwidth": bandwidths,
    }


def _fixed() -> dict:
    return {
        "latency": SUMMIT.injection_latency,
        "compute_time": COMPUTE_TIME,
        # "best" evaluates all three allreduce algorithms per point, which is
        # exactly where vectorization pays.
        "allreduce_algorithm": "best",
    }


def test_cost_sweep_vectorized_vs_scalar(benchmark):
    model = DataParallelCrossoverModel()
    grid, fixed = _grid(), _fixed()
    n_points = int(np.prod([len(v) for v in grid.values()]))
    if not SMOKE:
        assert n_points >= 10_000

    fast = benchmark(lambda: sweep(model, grid, **fixed))

    t0 = time.perf_counter()
    vec_again = sweep(model, grid, **fixed)
    t_vec = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = sweep_scalar(model, grid, **fixed)
    t_scalar = time.perf_counter() - t0

    # -- bit-identical parity, every term, every grid point ---------------------
    assert set(fast.breakdown) == set(slow.breakdown)
    for term in fast.breakdown:
        assert np.array_equal(
            np.asarray(fast.term(term), dtype=float), slow.term(term)
        ), f"term {term!r} diverged from the scalar reference"
    assert np.array_equal(np.asarray(vec_again.total(), dtype=float), slow.total())

    speedup = t_scalar / t_vec
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized sweep only {speedup:.1f}x faster than the scalar loop "
        f"on {n_points} points (need >= {MIN_SPEEDUP}x)"
    )

    report(
        "Cost-model sweep — vectorized vs scalar reference",
        [
            ("grid points", ">= 10,000", f"{n_points:,}"),
            ("scalar loop", "-", f"{t_scalar * 1e3:.1f} ms"),
            ("vectorized pass", "-", f"{t_vec * 1e3:.1f} ms"),
            ("speedup", f">= {MIN_SPEEDUP:g}x", f"{speedup:.0f}x"),
            ("bit-identical", "yes", "yes"),
        ],
        header=("metric", "target", "measured"),
    )
    record(
        "cost_sweep",
        {
            "grid_points": n_points,
            "scalar_seconds": t_scalar,
            "vectorized_seconds": t_vec,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        },
        wall_seconds=t_vec + t_scalar,
    )


def test_crossover_surface_reproduces_paper_estimates(benchmark):
    """Section VI-B: 102.4 MB ResNet-50 -> ~8 ms, 1.4 GB BERT-large ->
    ~110 ms at 25 GB/s injection (12.5 GB/s algorithmic bandwidth)."""
    sizes = np.array([102.4e6, 1.4e9])

    result = benchmark(
        lambda: crossover_sweep(
            sizes,
            np.arange(2, SUMMIT.node_count + 1, 2 if not SMOKE else 512),
            SUMMIT.injection_bandwidth,
            latency=SUMMIT.injection_latency,
            compute_time=COMPUTE_TIME,
        )
    )

    paper = result.term("paper_estimate")[:, 0]
    assert paper[0] == pytest.approx(8e-3, rel=0.05)  # "roughly 8 ms"
    assert paper[1] == pytest.approx(110e-3, rel=0.05)  # "roughly ... 110 ms"

    # The full ring formula adds 2(p-1) latency terms on top of the paper's
    # bandwidth-only closed form: strictly slower everywhere, and converging
    # to it (relatively) for bandwidth-dominated large messages.
    ring_full = result.term("comm")[:, -1]
    assert np.all(ring_full > paper)
    assert ring_full[1] == pytest.approx(paper[1], rel=0.15)

    cross = crossover_nodes(result)
    # With a 50 ms/step compute budget, BERT-large's 112 ms allreduce is
    # comm-bound from the start; ResNet-50's 8 ms never catches compute.
    assert np.isnan(cross[0])
    assert cross[1] == result.axes["n_ranks"][0]

    report(
        "Section VI-B crossover — paper figures from the sweep surface",
        [
            ("ResNet-50 estimate", "~8 ms", f"{paper[0] * 1e3:.2f} ms"),
            ("BERT-large estimate", "~110 ms", f"{paper[1] * 1e3:.2f} ms"),
            ("ResNet-50 comm-bound", "never (50 ms budget)",
             "never" if np.isnan(cross[0]) else f"{int(cross[0])} nodes"),
            ("BERT-large comm-bound", "always (50 ms budget)",
             f"from {int(cross[1])} nodes"),
        ],
        header=("quantity", "paper", "measured"),
    )
