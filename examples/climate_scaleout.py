#!/usr/bin/env python
"""Climate-analytics scale-out (Kurth et al., Section IV-B.1) end to end.

Reproduces the shape of the first exascale deep-learning result: weak
scaling of a DeepLabv3+-style segmentation network to 4 560 Summit nodes,
with the step-time decomposition showing *why* it scales — fp16 gradients,
NVLink-then-InfiniBand hierarchical allreduce hidden under the backward
pass, and the node-local NVMe input pipeline. Also runs the counterfactuals
the paper's design implies: what GPFS staging or unoverlapped communication
would have cost.

Run:  python examples/climate_scaleout.py
"""

from repro import units
from repro.apps.extreme_scale import get_app
from repro.training import DataSource, ScalingStudy
from repro.training.scaling import ScalingStudy as Study


def main() -> None:
    app = get_app("kurth")
    print("Application:", app.citation)
    print()

    base = app.job(1)
    study = ScalingStudy(base)
    points = study.weak_scaling([1, 16, 64, 256, 1024, 4560])
    print(Study.table(points, "DeepLabv3+ climate segmentation, weak scaling"))
    print()

    peak = app.job(app.peak_nodes)
    b = peak.breakdown()
    print(f"At {app.peak_nodes} nodes:")
    print(f"  sustained          {units.format_flops(peak.sustained_flops())}")
    print(f"  step time          {units.format_time(b.total)}")
    print(f"  compute            {units.format_time(b['compute'])}")
    print(f"  straggler penalty  {units.format_time(b['straggler'])}")
    print(f"  allreduce (total)  {units.format_time(b['comm'])}  "
          f"(exposed {units.format_time(b['comm_exposed'])})")
    print(f"  input pipeline     {units.format_time(b['io'])}  "
          f"(exposed {units.format_time(b['io_exposed'])})")
    print(f"  reported: 1.13 EF peak, 90.7 % parallel efficiency")
    print()

    # -- counterfactual: shared-filesystem input pipeline --------------------------
    gpfs_job = peak.with_data_source(DataSource.SHARED_FS)
    gb = gpfs_job.breakdown()
    slowdown = gb.total / b.total
    print(
        f"Counterfactual — read inputs from GPFS instead of NVMe: "
        f"step {units.format_time(gb.total)} ({slowdown:.1f}x slower; "
        f"exposed I/O {units.format_time(gb['io_exposed'])})"
    )

    # -- counterfactual: no communication/computation overlap ------------------------
    from dataclasses import replace

    no_overlap = peak.with_plan(replace(peak.plan, overlap_fraction=0.0))
    nb = no_overlap.breakdown()
    print(
        f"Counterfactual — no comm/compute overlap: step "
        f"{units.format_time(nb.total)} "
        f"({nb.total / b.total:.2f}x; exposed comm {units.format_time(nb['comm_exposed'])})"
    )


if __name__ == "__main__":
    main()
