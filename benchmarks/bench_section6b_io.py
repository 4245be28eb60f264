"""Section VI-B (I/O considerations).

Paper: "For the standard ResNet50 on ImageNet benchmark, a total of 20 TB/s
is required for ideal scaling. This cannot be achieved on current shared
file systems such as GPFS, the read bandwidth of which is only 2.5 TB/s. On
the other hand, node-local NVMe has aggregate read bandwidth over 27 TB/s."
Plus: staging and per-epoch reshuffle cost on the burst buffer.
"""

import pytest
from _record import record, timed
from conftest import report

from repro.core import SummitSimulator
from repro.machine.spec import SUMMIT
from repro.storage.burst_buffer import SUMMIT_NVME, StagingPlan
from repro.storage.dataset import IMAGENET, ShardingPlan
from repro.storage.filesystem import SUMMIT_GPFS


def test_section6b_read_requirement(benchmark):
    sim = SummitSimulator()

    def compute():
        return sim.io_report("resnet50")

    with timed() as t:
        result = benchmark(compute)

    assert result["required"] == pytest.approx(20e12, rel=0.02)
    assert result["shared_fs"] == pytest.approx(
        SUMMIT.fs_aggregate_read_bandwidth
    )
    assert result["nvme"] > 27e12  # the paper's "over 27 TB/s"
    assert not result["shared_fs_feasible"]
    assert result["nvme_feasible"]

    record(
        "section6b_read_requirement",
        {
            "required_bandwidth": result["required"],
            "shared_fs_bandwidth": result["shared_fs"],
            "nvme_bandwidth": result["nvme"],
            "shared_fs_feasible": result["shared_fs_feasible"],
            "nvme_feasible": result["nvme_feasible"],
        },
        wall_seconds=t.seconds,
    )
    report(
        "Section VI-B — full-Summit ResNet-50 input-read feasibility",
        [
            ("required aggregate", "20 TB/s", f"{result['required'] / 1e12:.2f} TB/s"),
            ("GPFS read bandwidth", "2.5 TB/s", f"{result['shared_fs'] / 1e12:.2f} TB/s"),
            ("NVMe aggregate", ">27 TB/s", f"{result['nvme'] / 1e12:.2f} TB/s"),
            ("GPFS sufficient?", "no", "no" if not result["shared_fs_feasible"] else "yes"),
            ("NVMe sufficient?", "yes", "yes" if result["nvme_feasible"] else "no"),
        ],
        header=("metric", "paper", "measured"),
    )


def test_section6b_staging_and_shuffle_costs(benchmark):
    """The paper's caveats: NVMe data 'is not persistent between jobs'
    (staging cost) and partitioning 'can be expensive if per-epoch data
    shuffling is enforced'."""
    plan = ShardingPlan(
        IMAGENET,
        n_nodes=SUMMIT.node_count,
        nvme_bytes_per_node=SUMMIT.nvme_capacity_bytes,
    )
    staging = StagingPlan(plan, SUMMIT_GPFS, SUMMIT_NVME)

    def compute():
        return staging.staging_time(), staging.epoch_read_time(), staging.reshuffle_time()

    with timed() as t:
        stage_t, epoch_t, shuffle_t = benchmark(compute)

    # staging happens once per job; epoch reads are much cheaper
    assert epoch_t < stage_t
    # enforced global reshuffling through the shared FS costs more than the
    # local epoch read it replaces
    assert shuffle_t > epoch_t

    record(
        "section6b_staging_shuffle",
        {
            "staging_seconds": stage_t,
            "epoch_read_seconds": epoch_t,
            "reshuffle_seconds": shuffle_t,
        },
        wall_seconds=t.seconds,
    )
    report(
        "Section VI-B — burst-buffer lifecycle costs (ImageNet, 4608 nodes)",
        [
            ("stage from GPFS", "once per job", f"{stage_t:.1f} s"),
            ("epoch read (NVMe)", "per epoch", f"{epoch_t:.3f} s"),
            ("global reshuffle", "'expensive'", f"{shuffle_t:.1f} s"),
        ],
        header=("step", "paper", "measured"),
    )
