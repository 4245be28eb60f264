"""Vectorized parameter sweeps over cost-model configuration grids.

:func:`sweep` builds a sparse ``np.meshgrid`` over the named axes and pushes
the whole grid through ``evaluate_batch`` in one pass — every term comes back
as an array over the grid shape. :func:`sweep_scalar` is the reference
implementation (a Python loop over ``evaluate``); the property suite asserts
the two are element-wise **bit-identical**, which is what licenses the fast
path for paper-figure reproduction.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cost.breakdown import CostBreakdown
from repro.errors import ConfigurationError

__all__ = ["SweepResult", "sweep", "sweep_scalar"]


@contextmanager
def _sweep_span(telemetry: Any, model: Any, size: int):
    """Wall-clock span around one sweep, timed with ``perf_counter``.

    Sweeps run outside any simulation, so span times are real seconds from
    the start of the sweep rather than simulated time; the sweep also lands
    in a ``cost.sweep_seconds`` histogram and a ``cost.points`` counter.
    """
    t0 = time.perf_counter()
    span = telemetry.begin(
        "sweep", "sweep", facility="cost", track=model.name,
        time=0.0, model=model.name, points=size,
    )
    try:
        yield span
    finally:
        telemetry.end(span, time=time.perf_counter() - t0)
        telemetry.metrics.histogram("cost.sweep_seconds").record(
            span.duration
        )
        telemetry.metrics.counter("cost.points").inc(size)


@dataclass(frozen=True)
class SweepResult:
    """A breakdown evaluated over a labelled N-dimensional grid.

    ``axes`` maps axis name -> 1-D coordinate array, in grid order;
    ``breakdown`` holds the vectorized terms broadcastable to ``shape``.
    """

    model: str
    axes: dict[str, np.ndarray]
    breakdown: CostBreakdown

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.axes.values())

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    def term(self, name: str) -> np.ndarray:
        """A term broadcast to the full grid shape."""
        return np.broadcast_to(np.asarray(self.breakdown[name]), self.shape)

    def total(self) -> np.ndarray:
        """Critical-path total over the full grid."""
        return np.broadcast_to(np.asarray(self.breakdown.total), self.shape)

    def at(self, *index: int) -> CostBreakdown:
        """Scalar breakdown at one grid index."""
        return self.breakdown.at(*index)

    def crossover_along(
        self, axis: str, term_a: str, term_b: str
    ) -> np.ndarray:
        """First coordinate along ``axis`` where ``term_b`` >= ``term_a``.

        Returns an array over the remaining axes (NaN where ``term_b`` never
        catches up) — e.g. the node count at which allreduce overtakes
        compute, as a function of model size and link bandwidth.
        """
        names = self.axis_names
        if axis not in names:
            raise ConfigurationError(
                f"{self.model}: no axis {axis!r} among {names}"
            )
        dim = names.index(axis)
        a = np.moveaxis(self.term(term_a), dim, -1)
        b = np.moveaxis(self.term(term_b), dim, -1)
        mask = b >= a
        idx = np.argmax(mask, axis=-1)
        coords = self.axes[axis][idx].astype(float)
        return np.where(np.any(mask, axis=-1), coords, np.nan)


def sweep(
    model: Any,
    grid: dict[str, Any],
    telemetry: Any = None,
    **fixed: Any,
) -> SweepResult:
    """Evaluate ``model`` over the outer product of the ``grid`` axes.

    ``grid`` maps config keys to 1-D sequences; axes are combined with a
    *sparse* ``meshgrid`` (``indexing='ij'``) so an N-axis sweep broadcasts
    instead of materialising N full-rank copies of every input. ``fixed``
    entries are passed through as scalars.

    A :class:`~repro.telemetry.Telemetry` handle wraps the whole sweep in a
    wall-clock span on the ``cost`` facility; composite models additionally
    get one span per stage (via ``evaluate_batch_staged``), so a slow sweep
    shows which stage's formulas the time went into.

    >>> from repro.cost.models import ConvergenceCostModel
    >>> r = sweep(ConvergenceCostModel(), {"batch": [1024, 4096]},
    ...           min_samples=1.15e8, critical_batch=4096)
    >>> r.shape
    (2,)
    >>> [round(float(s)) for s in r.term("steps_to_target")]
    [140381, 56152]
    """
    if not grid:
        raise ConfigurationError("sweep() needs at least one grid axis")
    axes = {name: np.asarray(values) for name, values in grid.items()}
    for name, values in axes.items():
        if values.ndim != 1 or values.size == 0:
            raise ConfigurationError(
                f"sweep axis {name!r} must be a non-empty 1-D sequence"
            )
    meshes = np.meshgrid(*axes.values(), indexing="ij", sparse=True)
    config = dict(fixed)
    config.update(zip(axes, meshes))
    if telemetry is None:
        breakdown = model.evaluate_batch(**config)
    else:
        size = int(np.prod([len(v) for v in axes.values()]))
        with _sweep_span(telemetry, model, size):
            if hasattr(model, "evaluate_batch_staged"):
                breakdown = model.evaluate_batch_staged(telemetry, **config)
            else:
                breakdown = model.evaluate_batch(**config)
    return SweepResult(model=model.name, axes=axes, breakdown=breakdown)


def sweep_scalar(model: Any, grid: dict[str, Any], **fixed: Any) -> SweepResult:
    """Reference implementation: a Python loop of scalar ``evaluate`` calls.

    Produces the same ``SweepResult`` as :func:`sweep`, element-wise
    bit-identical; exists to validate (and benchmark against) the
    vectorized path.
    """
    if not grid:
        raise ConfigurationError("sweep_scalar() needs at least one grid axis")
    axes = {name: np.asarray(values) for name, values in grid.items()}
    shape = tuple(len(v) for v in axes.values())
    names = tuple(axes)
    term_grids: dict[str, np.ndarray] = {}
    first: CostBreakdown | None = None
    for flat_index in range(int(np.prod(shape))):
        index = np.unravel_index(flat_index, shape)
        config = dict(fixed)
        for name, i in zip(names, index):
            config[name] = axes[name][i].item()
        bd = model.evaluate(**config)
        if first is None:
            first = bd
            for term in bd:
                term_grids[term] = np.empty(shape, dtype=float)
        for term, value in bd.items():
            term_grids[term][index] = value
    assert first is not None
    breakdown = CostBreakdown(
        model=first.model,
        terms=dict(term_grids),
        provenance=first.provenance,
        critical=first.critical,
    )
    return SweepResult(model=model.name, axes=axes, breakdown=breakdown)
