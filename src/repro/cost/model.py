"""The analytic cost-model base class and its composition operator.

A cost model maps a named numeric configuration to a
:class:`~repro.cost.breakdown.CostBreakdown`. Every model offers two entry
points sharing **one** implementation of the formulas (``_terms``):

- ``evaluate(**config)`` — the scalar path: plain Python numbers in, Python
  floats out, bit-identical to the handwritten expressions it replaced;
- ``evaluate_batch(**config)`` — the vectorized path: NumPy arrays (or
  mixes of arrays and scalars) broadcast through the same formulas.

:func:`compose` builds a :class:`CompositeCostModel` that evaluates stages
left to right in a shared namespace: each stage's output terms become config
for the stages after it, which is how ``step time = compute ∘ allreduce ∘
io ∘ straggler`` is wired without duplicating any expression.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.cost.breakdown import CostBreakdown
from repro.errors import ConfigurationError


class AnalyticCostModel(abc.ABC):
    """Base class implementing both entry points over a single ``_terms``.

    Subclasses declare:

    - ``name`` — identifier used in breakdowns and sweeps;
    - ``requires`` — config keys the model reads (validated up front);
    - ``defaults`` — optional config fallbacks;
    - ``critical`` — term names summing to the critical-path total;
    - ``provenance`` — term name -> formula/paper-section note.
    """

    name: str = "cost"
    requires: tuple[str, ...] = ()
    defaults: dict[str, Any] = {}
    critical: tuple[str, ...] = ()
    provenance: dict[str, str] = {}

    @abc.abstractmethod
    def _terms(self, c: Mapping[str, Any]) -> dict[str, Any]:
        """Compute the named terms from a validated configuration."""

    # -- entry points -------------------------------------------------------------

    def _config(self, config: Mapping[str, Any]) -> dict[str, Any]:
        merged = dict(self.defaults)
        merged.update(config)
        missing = [k for k in self.requires if k not in merged]
        if missing:
            raise ConfigurationError(
                f"{self.name}: missing config keys {missing}; requires "
                f"{list(self.requires)}"
            )
        return merged

    def evaluate(self, **config: Any) -> CostBreakdown:
        """Scalar path. Rejects array inputs so the bit-exact contract of
        the Python-arithmetic path is never silently mixed with NumPy."""
        c = self._config(config)
        arrays = [k for k, v in c.items() if isinstance(v, np.ndarray)]
        if arrays:
            raise ConfigurationError(
                f"{self.name}.evaluate() is the scalar path; got arrays for "
                f"{arrays} — use evaluate_batch()"
            )
        return self._wrap(self._terms(c))

    def evaluate_batch(self, **config: Any) -> CostBreakdown:
        """Vectorized path: list/tuple values are promoted to arrays and all
        array-valued keys broadcast together through the same formulas."""
        return self._wrap(self._terms(self._batch_config(config)))

    def _batch_config(self, config: Mapping[str, Any]) -> dict[str, Any]:
        c = self._config(config)
        for key, value in c.items():
            if isinstance(value, (list, tuple)):
                c[key] = np.asarray(value)
        return c

    def _wrap(self, terms: dict[str, Any]) -> CostBreakdown:
        return CostBreakdown(
            model=self.name,
            terms=terms,
            provenance=dict(self.provenance),
            critical=self.critical or tuple(terms),
        )


class CompositeCostModel(AnalyticCostModel):
    """Stages evaluated left to right in a shared config namespace.

    A stage may read any config key *or any term emitted by an earlier
    stage* (dataflow composition). Term names must be globally unique.
    """

    def __init__(
        self,
        stages: list[AnalyticCostModel],
        name: str = "composite",
        critical: tuple[str, ...] = (),
        defaults: dict[str, Any] | None = None,
    ):
        if not stages:
            raise ConfigurationError("composite cost model needs >= 1 stage")
        self.stages = list(stages)
        self.name = name
        self.critical = critical
        self.defaults = dict(defaults or {})
        prov: dict[str, str] = {}
        for stage in stages:
            prov.update(stage.provenance)
        self.provenance = prov

    def _terms(
        self, c: Mapping[str, Any], telemetry: Any = None
    ) -> dict[str, Any]:
        """Run the stages in order; with ``telemetry``, time each one."""
        env = dict(c)
        out: dict[str, Any] = {}
        t0 = time.perf_counter()
        for stage in self.stages:
            if telemetry is not None:
                span = telemetry.begin(
                    stage.name, "cost-stage", facility="cost",
                    track=stage.name, time=time.perf_counter() - t0,
                )
            produced = stage._terms(stage._config(env))
            if telemetry is not None:
                telemetry.end(span, time=time.perf_counter() - t0,
                              terms=len(produced))
                telemetry.metrics.histogram("cost.stage_seconds").record(
                    span.duration
                )
            clash = set(produced) & set(out)
            if clash:
                raise ConfigurationError(
                    f"{self.name}: stages {sorted(clash)} produced twice"
                )
            env.update(produced)
            out.update(produced)
        return out

    def evaluate_batch_staged(
        self, telemetry: Any, **config: Any
    ) -> CostBreakdown:
        """``evaluate_batch`` with one wall-clock telemetry span per stage.

        Identical result to :meth:`evaluate_batch` (same stage loop, same
        dataflow); the only addition is observability: each stage lands as
        a span on the ``cost`` facility (track = stage name, measured with
        :func:`time.perf_counter` relative to the start of the stage loop)
        plus a ``cost.stage_seconds`` histogram sample. Use it to see where
        a big sweep's evaluation time actually goes.
        """
        return self._wrap(self._terms(self._batch_config(config), telemetry))


def compose(
    *stages: AnalyticCostModel,
    name: str = "composite",
    critical: tuple[str, ...] = (),
    defaults: dict[str, Any] | None = None,
) -> CompositeCostModel:
    """Build a named dataflow composite of ``stages``, with a name, a
    critical-path selection and bound default config."""
    return CompositeCostModel(list(stages), name=name, critical=critical,
                              defaults=defaults)
