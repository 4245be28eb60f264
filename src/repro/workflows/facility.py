"""Compute facilities for multi-site workflow placement.

Trifan et al. (Section V-B) run their campaign across four sites: NAMD on
Perlmutter (NERSC) and ThetaGPU (ALCF), CVAE training on Summit (up to 256
nodes) or a Cerebras CS-2, with FFEA/ANCA-AE/GNO on ThetaGPU. A
:class:`Facility` is a named node pool with a relative speed factor; the DAG
executor acquires nodes from it for each task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Facility:
    """A named machine available to workflow tasks.

    ``speed`` rescales task durations (1.0 = reference machine time);
    ``nodes`` bounds concurrent placement.
    """

    name: str
    nodes: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError(f"{self.name}: need at least one node")
        if not 0.0 < self.speed < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"{self.name}: speed must be finite and positive"
            )

    def duration(self, reference_seconds: float) -> float:
        """Wall-clock on this facility for work that takes
        ``reference_seconds`` on the reference machine."""
        if reference_seconds < 0:
            raise ConfigurationError("negative duration")
        return reference_seconds / self.speed


#: The facilities of the Trifan et al. campaign, with speeds relative to
#: Summit per-node throughput for the respective task types.
FACILITIES = {
    "summit": Facility(name="Summit", nodes=4608, speed=1.0),
    "perlmutter": Facility(name="Perlmutter", nodes=1536, speed=2.2),
    "thetagpu": Facility(name="ThetaGPU", nodes=24, speed=1.6),
    "cs2": Facility(name="Cerebras CS-2", nodes=1, speed=10.0),
}
