"""Numpy implementations of the optimizers behind the paper's scale-out results.

Every Section IV-B application uses a large-batch optimizer — LARC (Kurth),
LARS (Laanait), LAMB (Khan, Blanchard). These are real, tested
implementations that operate on lists of numpy parameter arrays, used by the
:mod:`repro.ml` networks and by :mod:`repro.analysis.batch_scaling`.
"""

from repro.optim.adam import Adam
from repro.optim.base import Optimizer
from repro.optim.lamb import LAMB
from repro.optim.larc import LARC
from repro.optim.lars import LARS
from repro.optim.schedule import LinearScalingRule, WarmupSchedule
from repro.optim.sgd import SGD

__all__ = [
    "Adam",
    "LAMB",
    "LARC",
    "LARS",
    "LinearScalingRule",
    "Optimizer",
    "SGD",
    "WarmupSchedule",
]
