"""Reference implementations kept only as test oracles.

- :mod:`.heap_engine` — :class:`HeapEngine`, the production engine
  drained by a one-pop-per-event ``heapq`` loop;
- :mod:`.timer_bank` — :class:`ObjectTimerBank`, a timer bank's
  population run as per-lane :class:`~repro.sim.engine.Timer` processes.

Production code never imports these. The differential suites, the golden
tests and ``benchmarks/bench_engine.py`` run them beside the production
paths.
"""

from repro.sim import Engine
from .heap_engine import HeapEngine
from .timer_bank import ObjectTimerBank

#: Engine class by name: the ``heap`` oracle and the production
#: ``calendar`` engine, the two sides of every engine differential test.
ENGINES = {"heap": HeapEngine, "calendar": Engine}

__all__ = ["ENGINES", "HeapEngine", "ObjectTimerBank"]
