"""Data-parallel execution fabric: process-pool sweeps and the result cache.

Times the same cost-model sweep four ways — serial, fanned out over a
4-worker process pool, computed cold through the content-addressed result
cache, and replayed warm from it — and asserts every variant is
**bit-identical** to the serial pass (determinism is the contract; speed
is the payoff). All scalars land in one ``BENCH_parallel_exec.json``.

Speedup assertions are honest about the host: the pool speedup is only
enforced when the machine actually has >= 4 cores, and the warm/cold cache
ratio only on the full-size grid. Set ``REPRO_SMOKE=1`` for a small-grid
CI smoke run that checks parity and records timings without enforcing
either threshold.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _record import record
from conftest import report

from repro.cost import DataParallelCrossoverModel, sweep
from repro.exec import ResultCache
from repro.machine.spec import SUMMIT

SMOKE = bool(os.environ.get("REPRO_SMOKE"))

#: Pool width the acceptance speedup is quoted at.
N_JOBS = 4

#: Required pool speedup on a >= 4-core host on the full grid.
MIN_POOL_SPEEDUP = 2.5

#: Required warm-cache speedup over the cold (compute + store) pass.
MIN_CACHE_SPEEDUP = 10.0


def _grid() -> dict[str, np.ndarray]:
    """Crossover surface axes; the longest axis is what gets sharded."""
    if SMOKE:
        sizes = np.linspace(10e6, 2e9, 24)
        nodes = np.array([2, 64, 1024, SUMMIT.node_count])
        bandwidths = np.linspace(12.5e9, 50e9, 3)
    else:
        sizes = np.linspace(10e6, 2e9, 400)
        nodes = np.unique(
            np.geomspace(2, SUMMIT.node_count, 40).round().astype(int)
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
        "compute_time": 0.05,
        # "best" evaluates every allreduce algorithm per point — enough
        # arithmetic per shard for the pool to have something to win on.
        "allreduce_algorithm": "best",
    }


def _assert_identical(a, b) -> None:
    assert set(a.breakdown) == set(b.breakdown)
    for term in a.breakdown:
        ta, tb = np.asarray(a.term(term)), np.asarray(b.term(term))
        assert ta.dtype == tb.dtype and ta.tobytes() == tb.tobytes(), (
            f"term {term!r} diverged from the serial pass"
        )


def test_parallel_exec_fabric(benchmark, tmp_path):
    model = DataParallelCrossoverModel()
    grid, fixed = _grid(), _fixed()
    n_points = int(np.prod([len(v) for v in grid.values()]))

    serial = benchmark(lambda: sweep(model, grid, **fixed))

    t0 = time.perf_counter()
    serial_again = sweep(model, grid, **fixed)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = sweep(model, grid, n_jobs=N_JOBS, **fixed)
    t_pool = time.perf_counter() - t0

    _assert_identical(serial, serial_again)
    _assert_identical(serial, pooled)

    cache = ResultCache(root=tmp_path / "cache")
    t0 = time.perf_counter()
    cold = sweep(model, grid, cache=cache, **fixed)
    t_cold = time.perf_counter() - t0
    assert (cache.hits, cache.misses) == (0, 1)
    t0 = time.perf_counter()
    warm = sweep(model, grid, cache=cache, **fixed)
    t_warm = time.perf_counter() - t0
    assert (cache.hits, cache.misses) == (1, 1)
    _assert_identical(serial, cold)
    _assert_identical(serial, warm)

    pool_speedup = t_serial / t_pool
    cache_speedup = t_cold / t_warm
    cores = os.cpu_count() or 1
    enforce_pool = not SMOKE and cores >= N_JOBS
    if enforce_pool:
        assert pool_speedup >= MIN_POOL_SPEEDUP, (
            f"{N_JOBS}-worker sweep only {pool_speedup:.2f}x faster than "
            f"serial on {n_points} points / {cores} cores "
            f"(need >= {MIN_POOL_SPEEDUP}x)"
        )
    if not SMOKE:
        assert cache_speedup >= MIN_CACHE_SPEEDUP, (
            f"warm cache only {cache_speedup:.1f}x faster than the cold "
            f"pass (need >= {MIN_CACHE_SPEEDUP}x)"
        )

    report(
        f"Parallel execution fabric ({n_points:,} points, {cores} cores)",
        [
            ("serial pass", "-", f"{t_serial * 1e3:.1f} ms"),
            (f"{N_JOBS}-worker pool", "-", f"{t_pool * 1e3:.1f} ms"),
            ("pool speedup",
             f">= {MIN_POOL_SPEEDUP}x" if enforce_pool else "recorded",
             f"{pool_speedup:.2f}x"),
            ("cache cold", "-", f"{t_cold * 1e3:.1f} ms"),
            ("cache warm", "-", f"{t_warm * 1e3:.2f} ms"),
            ("cache speedup",
             f">= {MIN_CACHE_SPEEDUP}x" if not SMOKE else "recorded",
             f"{cache_speedup:.1f}x"),
            ("bit-identical", "yes", "yes"),
        ],
        header=("metric", "target", "measured"),
    )
    record(
        "parallel_exec",
        {
            "grid_points": n_points,
            "n_jobs": N_JOBS,
            "host_cores": cores,
            "serial_seconds": t_serial,
            "parallel_seconds": t_pool,
            "pool_speedup": pool_speedup,
            "min_pool_speedup": MIN_POOL_SPEEDUP if enforce_pool else None,
            "cache_cold_seconds": t_cold,
            "cache_warm_seconds": t_warm,
            "cache_speedup": cache_speedup,
            "min_cache_speedup": None if SMOKE else MIN_CACHE_SPEEDUP,
        },
        wall_seconds=t_serial + t_pool + t_cold + t_warm,
    )
