"""Deterministic job handlers the campaign service dispatches to.

A handler is a pure function ``(params, seed) -> JSON value``: same inputs,
same output, every time, on every worker. That purity is what makes the
service's crash-recovery guarantee checkable — a job requeued after a
worker SIGKILL recomputes to *exactly* the bytes the dead worker would have
produced, so an interrupted campaign's final result set is byte-identical
to an uninterrupted run, and :func:`expected_results` predicts that set
in-process. It is also what lets every completed result live in the shared
:class:`~repro.exec.cache.ResultCache` as a memoization tier.

Handlers round float results through a fixed decimal precision so the JSON
wire encoding (the service's at-rest and on-the-wire format) is canonical.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError

from repro.service.spec import CampaignSpec

__all__ = ["HANDLERS", "expected_results", "get_handler", "run_job"]


def _round(value: float, places: int = 9) -> float:
    return float(round(float(value), places))


def _h_docking(params: dict[str, Any], seed: int) -> Any:
    """Score one batch of a Section V virtual-screening campaign."""
    from repro.science.docking import CompoundLibrary, DockingOracle

    n_compounds = int(params.get("n_compounds", 64))
    library = CompoundLibrary.random(n_compounds, seed=seed)
    oracle = DockingOracle(seed=seed)
    scores = oracle.docking_score(library.genomes)
    best = int(np.argmax(scores))
    return {
        "n_compounds": n_compounds,
        "best_compound": best,
        "best_score": _round(scores[best]),
        "mean_score": _round(float(np.mean(scores))),
    }


def _h_cost_point(params: dict[str, Any], seed: int) -> Any:
    """Evaluate one Section IV-B app step-time point — the 'what does this
    model cost at N nodes' query the memoization tier exists for."""
    from repro.apps.extreme_scale import get_app

    app = get_app(str(params.get("app", "kurth")))
    nodes = int(params.get("nodes", app.peak_nodes))
    result = app.sweep_nodes([nodes])
    breakdown = {
        term: _round(result.at(0)[term]) for term in sorted(result.breakdown)
    }
    return {"app": app.key, "nodes": nodes,
            "total_seconds": _round(result.total()[0]), **breakdown}


def _h_quadrature(params: dict[str, Any], seed: int) -> Any:
    """Seeded Monte-Carlo integral — cheap, deterministic filler work."""
    n = int(params.get("n_samples", 1024))
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    return {"n_samples": n, "estimate": _round(float(np.mean(x * x)))}


HANDLERS: dict[str, Callable[[dict[str, Any], int], Any]] = {
    "docking": _h_docking,
    "cost_point": _h_cost_point,
    "quadrature": _h_quadrature,
}


def get_handler(name: str) -> Callable[[dict[str, Any], int], Any]:
    try:
        return HANDLERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown job handler {name!r}; "
            f"known: {', '.join(sorted(HANDLERS))}"
        ) from None


def run_job(handler: str, params: dict[str, Any], seed: int) -> Any:
    """Dispatch one job to its handler.

    >>> run_job("quadrature", {"n_samples": 256}, seed=1) == \\
    ...     run_job("quadrature", {"n_samples": 256}, seed=1)
    True
    """
    return get_handler(handler)(dict(params), seed)


def expected_results(spec: CampaignSpec) -> dict[str, Any]:
    """The ground-truth result set: every job's handler run in-process.

    Handlers are pure, so any run of ``spec`` that completes every job,
    however often it was interrupted, must end with exactly this set.
    """
    return {
        job.job_id: run_job(job.handler, job.params, job.seed)
        for job in spec.jobs
    }
