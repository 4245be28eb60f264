"""Shared fixtures and Hypothesis profiles for the tier-1 suite.

The conformance fixtures are session-scoped: the expectation registry's
measurement substrate (the calibrated portfolio, the five app simulations,
the Section V workflow campaigns) is computed once and shared by every
parametrized expectation test in ``test_conformance.py``.

``HYPOTHESIS_PROFILE=ci`` loads the derandomized ``ci`` profile: every
property test then draws the same examples on every machine, so a failure
seen in CI replays locally under the same variable. It is loaded here,
before any test module builds its settings tiers, so the tiers in
``hypothesis_settings.py`` inherit it.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile(
    "ci", derandomize=True, database=None, deadline=None, print_blob=True
)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def chaos_handlers(monkeypatch):
    """Register the fault harness's ``chaos:sleep``/``chaos:flaky`` job
    handlers (``tests/service_chaos.py``) for one test, with fresh
    ``chaos:flaky`` call counts."""
    from repro.service import HANDLERS
    from tests.service_chaos import chaos_handlers as harness_handlers

    for name, handler in harness_handlers().items():
        monkeypatch.setitem(HANDLERS, name, handler)


@pytest.fixture(scope="session")
def verify_context():
    """One shared, lazily-populated measurement cache (seed 0)."""
    from repro.verify import VerifyContext

    return VerifyContext(seed=0)


@pytest.fixture(scope="session")
def conformance_report(verify_context):
    """The full conformance battery, run once per session.

    Reuses ``verify_context``'s cached measurements for the expectation
    layer, so the marginal cost over the registry tests is just the
    differential and invariant batteries.
    """
    from repro.verify import build_registry
    from repro.verify.differential import run_differentials
    from repro.verify.invariants import run_invariants
    from repro.verify.report import ConformanceReport

    registry = build_registry()
    ordered: dict[str, None] = {}
    for e in registry:
        ordered.setdefault(e.section, None)
    return ConformanceReport(
        seed=verify_context.seed,
        sections=tuple(ordered),
        expectations=[e.check(verify_context) for e in registry],
        differentials=run_differentials(seed=verify_context.seed),
        invariants=run_invariants(seed=verify_context.seed),
    )
