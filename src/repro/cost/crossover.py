"""Section VI-B crossover analysis: where does communication overtake compute?

The paper's Table III argument — ResNet-50's 102.4 MB gradient costs ~8 ms to
allreduce while BERT-large's 1.4 GB costs ~110 ms — generalises to a surface:
for each (model size, node count, link bandwidth) point, compare the
alpha-beta allreduce cost against the per-step compute budget. The
:class:`DataParallelCrossoverModel` evaluates that comparison, and
:func:`crossover_sweep` maps the whole surface in one vectorized pass.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.cost import kernels
from repro.cost.model import AnalyticCostModel
from repro.cost.sweep import SweepResult, sweep

__all__ = [
    "DataParallelCrossoverModel",
    "crossover_sweep",
    "crossover_nodes",
]


class DataParallelCrossoverModel(AnalyticCostModel):
    """Communication-vs-compute balance for synchronous data parallelism.

    Generic over any model: the configuration carries the gradient message
    size and the per-step compute time directly, so the same instance sweeps
    ResNet-50, BERT-large, or a continuum of synthetic sizes.
    """

    name = "dp_crossover"
    requires = ("message_bytes", "n_ranks", "latency", "bandwidth",
                "compute_time")
    defaults = {"allreduce_algorithm": "ring"}
    provenance = {
        "comm": "allreduce alpha-beta cost at n_ranks (Sec. VI-B)",
        "compute": "per-step compute budget",
        "comm_compute_ratio": "comm / compute; > 1 means comm-bound",
        "paper_estimate": "message / (B/2) — the paper's closed form",
    }
    critical = ("compute", "comm")

    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        kernels.check_participants(c["n_ranks"], c["message_bytes"])
        comm = kernels.allreduce_time(
            c["n_ranks"], c["message_bytes"], c["latency"], c["bandwidth"],
            c["allreduce_algorithm"],
        )
        return {
            "comm": comm,
            "compute": c["compute_time"],
            "comm_compute_ratio": comm / c["compute_time"],
            "paper_estimate": kernels.paper_allreduce_estimate(
                c["message_bytes"], c["bandwidth"]
            ),
        }


def crossover_sweep(
    message_bytes: Any,
    n_ranks: Any,
    bandwidth: Any,
    latency: float,
    compute_time: float,
    algorithm: str | None = "ring",
) -> SweepResult:
    """Map the crossover surface over (message size x ranks x bandwidth).

    Any of the first three arguments may be a 1-D sequence (becoming a grid
    axis) or a scalar (held fixed). Returns a :class:`SweepResult` whose
    ``comm_compute_ratio`` term locates the comm-bound region.
    """
    grid: dict[str, Any] = {}
    fixed: dict[str, Any] = {
        "latency": latency,
        "compute_time": compute_time,
        "allreduce_algorithm": algorithm,
    }
    for name, value in (
        ("message_bytes", message_bytes),
        ("n_ranks", n_ranks),
        ("bandwidth", bandwidth),
    ):
        if np.ndim(value) == 1:
            grid[name] = value
        else:
            fixed[name] = value
    return sweep(DataParallelCrossoverModel(), grid, **fixed)


def crossover_nodes(result: SweepResult) -> np.ndarray:
    """Node counts where allreduce first overtakes compute, over the
    remaining axes of a :func:`crossover_sweep` with an ``n_ranks`` axis."""
    return result.crossover_along("n_ranks", "compute", "comm")
