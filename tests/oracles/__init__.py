"""Reference implementations kept only as test oracles.

- :mod:`.scan_engine` — :class:`ScanEngine`, the production engine with
  a linear-scan event queue in place of its heap;
- :mod:`.forest` — :class:`NodeTreeRegressor` and
  :class:`NodeForestRegressor`, CART trees of node objects split one
  feature at a time and walked row by row;
- :mod:`.ising` — :class:`ScalarMonteCarlo`, the Ising Monte Carlo swept
  site by site;
- :mod:`.scheduler` — :class:`SortingScheduler`, the batch scheduler that
  re-sorts its whole queue at every event.

Production code never imports these. The differential suites and the
golden tests run them beside the production paths.
"""

from repro.sim import Engine
from .forest import NodeForestRegressor, NodeTreeRegressor
from .ising import ScalarMonteCarlo
from .scan_engine import ScanEngine
from .scheduler import SortingScheduler

#: Engine class by name: the ``scan`` oracle and the production ``heap``
#: engine, the two sides of every engine differential test.
ENGINES = {"scan": ScanEngine, "heap": Engine}

__all__ = [
    "ENGINES",
    "NodeForestRegressor",
    "NodeTreeRegressor",
    "ScalarMonteCarlo",
    "ScanEngine",
    "SortingScheduler",
]
