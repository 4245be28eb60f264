#!/usr/bin/env python
"""Operating Summit: scheduling, checkpointing, and an ML-enhanced solver.

Three shorter studies rounding out the reproduction:

1. A day of Summit operations — a 1 000-job campaign generated from the
   calibrated project portfolio, scheduled under three queue policies,
   reporting utilisation, waits, and the AI/ML share of *delivered*
   node-hours (the alternative usage metric of Section II-C).
2. Checkpointing a 4 096-node job — Young-optimal intervals on node-local
   NVMe vs the shared filesystem (another face of the Section VI-B storage
   argument).
3. The math/cs-algorithm motif — a learned deflation space cutting
   conjugate-gradient iterations 2-3x with accuracy untouched
   (Ichimura et al., Gordon Bell 2018).
4. A failure-injected 4 600-node campaign — node failures drawn from
   per-node MTBF, checkpoint-restart recovery, and the resulting goodput,
   with the empirical overhead validated against the Young/Daly optimum.

Run:  python examples/summit_operations.py
"""

import numpy as np

from repro.apps.extreme_scale import get_app
from repro.machine import SUMMIT
from repro.portfolio import generate_portfolio
from repro.scheduler import FaultModel, Policy, Scheduler, campaign_from_portfolio
from repro.science.solver import solver_study
from repro.storage.checkpoint import CheckpointPlan


def main() -> None:
    # -- 1. a day of Summit operations -----------------------------------------
    print("1. Scheduling a 1000-job day on Summit")
    print("=" * 64)
    projects = generate_portfolio()
    rng = np.random.default_rng(1)
    sample = [projects[i] for i in rng.choice(len(projects), 250, replace=False)]
    jobs = campaign_from_portfolio(sample, jobs_per_project=4,
                                   horizon=24 * 3600.0, seed=0)
    print(f"{'policy':<16}{'util':>6}{'mean wait':>11}{'wide wait':>11}"
          f"{'AI share':>10}")
    for policy in (Policy.FIFO, Policy.CAPABILITY, Policy.SMALLEST_FIRST):
        r = Scheduler(4608, policy).run(jobs)
        print(f"{policy.value:<16}{r.utilization:>5.0%}"
              f"{r.mean_wait / 3600:>10.1f}h{r.mean_wait_wide / 3600:>10.1f}h"
              f"{r.ai_share:>10.0%}")
    print("(capability priority trades mean wait for wide-job wait —\n"
          " the leadership-computing policy of Section II-B)\n")

    # -- 2. checkpointing -----------------------------------------------------------
    print("2. Checkpointing a 4096-node job (100 GB/node of state)")
    print("=" * 64)
    plan = CheckpointPlan(
        state_bytes_per_node=100e9, n_nodes=4096,
        node_mtbf_seconds=5 * 365 * 24 * 3600.0,
    )
    for name, tier in plan.compare_tiers(SUMMIT.nvme, SUMMIT.shared_fs).items():
        print(f"  {name:<10} write {tier['write_time']:>7.0f} s   "
              f"optimal interval {tier['optimal_interval'] / 3600:>5.2f} h   "
              f"overhead {tier['overhead']:>5.1%}")
    print()

    # -- 3. ML-enhanced solver ---------------------------------------------------------
    print("3. ML-enhanced CG solver (math/cs algorithm motif)")
    print("=" * 64)
    results = solver_study(n=20, n_snapshots=100, n_solves=8, seed=0)
    print(f"  plain CG            {results['plain']:>5.0f} iterations")
    print(f"  Jacobi CG           {results['jacobi']:>5.0f} iterations")
    print(f"  learned deflation   {results['deflated']:>5.0f} iterations "
          f"(basis k={results['basis_dimension']:.0f}, "
          f"{results['plain'] / results['deflated']:.1f}x)")
    print("  (the solver still iterates the true residual to tolerance —\n"
          "   the ML component cannot compromise the answer)\n")

    # -- 4. failure injection and checkpoint-restart ----------------------------
    print("4. Failure-injected 4600-node campaign (Laanait et al.)")
    print("=" * 64)
    report = get_app("laanait").resilience_report(seed=0)
    print(report.format())
    agreement = report.agreement()
    assert agreement is not None
    print(f"  -> empirical overhead within {agreement:.1%} of the Young/Daly"
          f" optimum ({'OK' if report.matches_analytical() else 'MISMATCH'},"
          " tol 20%)\n")

    print("   ... and the same failures at the batch-scheduler level:")
    wide_jobs = [j for j in jobs if j.nodes >= 1024][:40] or jobs[:40]
    base = Scheduler(4608).run(wide_jobs)
    faults = FaultModel(node_mtbf_seconds=0.5 * 365 * 24 * 3600.0,
                        checkpoint_interval=3600.0, seed=0)
    faulty = Scheduler(4608).run(wide_jobs, faults=faults)
    print(f"   fault-free makespan {base.makespan / 3600:>7.1f} h,"
          f" goodput {base.goodput_fraction:.1%}")
    print(f"   with failures       {faulty.makespan / 3600:>7.1f} h,"
          f" goodput {faulty.goodput_fraction:.1%}"
          f"  ({faulty.n_failures} failures, {faulty.n_requeues} requeues,"
          f" {faulty.lost_node_hours:,.0f} node-hours lost)")


if __name__ == "__main__":
    main()
