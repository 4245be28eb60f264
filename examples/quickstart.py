#!/usr/bin/env python
"""Quickstart: the three headline analyses of the paper in ~40 lines.

1. Summit's machine model and the Section VI-B communication estimates.
2. The Section VI-B I/O feasibility analysis (GPFS vs node-local NVMe).
3. A full-system weak-scaling study for a climate-segmentation model.

Run:  python examples/quickstart.py
"""

from repro import units
from repro.core import ScalingStudyRunner, SummitSimulator
from repro.training import ParallelismPlan


def main() -> None:
    sim = SummitSimulator()

    print("=" * 72)
    print(sim.machine.describe())
    print()

    # -- Section VI-B: allreduce cost estimates -------------------------------
    print("Gradient allreduce on Summit (paper's bandwidth-only estimate):")
    for key in ("resnet50", "bert_large"):
        t = sim.allreduce_estimate(key)
        t_full = sim.allreduce_detailed(key, n_nodes=4096)
        print(
            f"  {key:<12} estimate {units.format_time(t):>10}   "
            f"full ring model at 4096 nodes {units.format_time(t_full):>10}"
        )
    print()

    # -- Section VI-B: the I/O wall ---------------------------------------------
    print("Input-pipeline feasibility for full-Summit data-parallel training:")
    print(" ", sim.io_report("resnet50")["summary"])
    print()

    # -- Section IV-B style scaling study ------------------------------------------
    runner = ScalingStudyRunner(
        "deeplabv3plus",
        ParallelismPlan(local_batch=2, overlap_fraction=0.9, compute_jitter_cv=0.042),
    )
    print(runner.table([1, 16, 128, 1024, 4560]))


if __name__ == "__main__":
    main()
