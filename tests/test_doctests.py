"""Run the library's doctests — the examples embedded in docstrings are part
of the documented API contract."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.units",
    "repro.core.api",
    "repro.cost.kernels",
    "repro.cost.breakdown",
    "repro.cost.sweep",
    "repro.exec.parallel",
    "repro.exec.cache",
    "repro.ml.mlp",
    "repro.ml.surrogate",
    "repro.optim.sgd",
    "repro.optim.schedule",
    "repro.machine.summit",
    "repro.portfolio.taxonomy",
    "repro.science.md",
    "repro.sim.engine",
    "repro.telemetry",
    "repro.telemetry.stream",
    "repro.training.job",
    "repro.training.scaling",
    "repro.analysis.scaling_laws",
    "repro.atomicio",
    "repro.resilience.retry",
    "repro.service.spec",
    "repro.service.journal",
    "repro.service.pubsub",
    "repro.service.handlers",
    "tests.service_chaos",
    "repro.verify.expectations",
    "repro.verify.differential",
    "repro.verify.invariants",
    "repro.verify.report",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"
