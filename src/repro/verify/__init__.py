"""Paper-parity conformance subsystem.

Three layers, each machine-checkable and deterministic:

- :mod:`repro.verify.expectations` — the **expectation registry**: every
  paper-stated quantity (Tables I-III, Figures 1-6, the five Section IV-B
  extreme-scale results, the Section VI-B bandwidth/allreduce numbers and
  the Section V workflow targets) encoded with value, tolerance, units and
  provenance, plus the measurement that reproduces it;
- :mod:`repro.verify.differential` — **differential runners** that push the
  same computation through every equivalent code path (scalar ``evaluate``
  vs vectorized ``sweep`` vs the loop reference, telemetry-on vs
  telemetry-off, fault-path-without-faults vs the fault-free executor,
  same-seed replays) and assert bit- or tolerance-parity between paths;
- :mod:`repro.verify.invariants` — **invariant auditors** for structural
  properties: node-second conservation in workflow runs, span-tree
  well-formedness and counter/span accounting parity in telemetry,
  monotonicity of scaling and crossover curves, byte-identical same-seed
  trace exports.

:func:`repro.verify.report.run_conformance` runs all three and returns a
:class:`~repro.verify.report.ConformanceReport` whose JSON serialization is
byte-identical for identical seeds — the artifact CI gates on. The
``repro verify`` CLI subcommand and ``tests/test_conformance.py`` are thin
drivers over this module.
"""

from repro.verify.differential import (
    DifferentialResult,
    app_sweep_parity,
    checkpoint_replay_parity,
    run_differentials,
    sweep_bit_parity,
    telemetry_sweep_parity,
    workflow_telemetry_parity,
)
from repro.verify.expectations import (
    CheckResult,
    Expectation,
    VerifyContext,
    build_registry,
)
from repro.verify.invariants import (
    InvariantResult,
    audit_crossover_shape,
    audit_scaling_shape,
    audit_span_tree,
    audit_trace_determinism,
    audit_workflow_conservation,
    run_invariants,
)
from repro.verify.machines import build_machine_registry, run_machine_conformance
from repro.verify.report import ConformanceReport, run_conformance

__all__ = [
    "CheckResult",
    "ConformanceReport",
    "DifferentialResult",
    "Expectation",
    "InvariantResult",
    "VerifyContext",
    "app_sweep_parity",
    "audit_crossover_shape",
    "audit_scaling_shape",
    "audit_span_tree",
    "audit_trace_determinism",
    "audit_workflow_conservation",
    "build_machine_registry",
    "build_registry",
    "checkpoint_replay_parity",
    "run_conformance",
    "run_differentials",
    "run_invariants",
    "run_machine_conformance",
    "sweep_bit_parity",
    "telemetry_sweep_parity",
    "workflow_telemetry_parity",
]
