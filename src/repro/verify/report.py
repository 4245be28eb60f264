"""The conformance report: one deterministic artifact gating the whole repo.

:func:`run_conformance` runs the expectation registry, the differential
battery and the invariant audits, and folds the results into a
:class:`ConformanceReport`. The JSON serialization is deliberately free of
wall-clock timestamps, host names and git state: identical seeds produce
byte-identical reports, so CI can both *gate* on the pass flag and *diff*
the artifact across commits to see exactly which paper number moved.

>>> empty = ConformanceReport(seed=0, sections=())
>>> empty.passed
True
>>> empty.counts()["expectations"]
{'total': 0, 'passed': 0, 'failed': 0}
>>> empty.to_json() == ConformanceReport(seed=0, sections=()).to_json()
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.verify.differential import DifferentialResult, run_differentials
from repro.verify.expectations import (
    CheckResult,
    VerifyContext,
    build_registry,
)
from repro.verify.invariants import InvariantResult, run_invariants

__all__ = ["ConformanceReport", "run_conformance"]

#: Bumped whenever the report layout changes, so CI consumers can detect it.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class ConformanceReport:
    """All conformance results for one seed, serializable and diffable."""

    seed: int
    sections: tuple[str, ...]
    expectations: list[CheckResult] = field(default_factory=list)
    differentials: list[DifferentialResult] = field(default_factory=list)
    invariants: list[InvariantResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            all(r.passed for r in self.expectations)
            and all(r.passed for r in self.differentials)
            and all(r.passed for r in self.invariants)
        )

    def counts(self) -> dict[str, dict[str, int]]:
        out = {}
        for layer, results in (
            ("expectations", self.expectations),
            ("differentials", self.differentials),
            ("invariants", self.invariants),
        ):
            n_pass = sum(1 for r in results if r.passed)
            out[layer] = {"total": len(results), "passed": n_pass,
                          "failed": len(results) - n_pass}
        return out

    def failures(self) -> list[str]:
        return [
            r.message()
            for results in (self.expectations, self.differentials, self.invariants)
            for r in results
            if not r.passed
        ]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "sections": list(self.sections),
            "passed": self.passed,
            "counts": self.counts(),
            "expectations": [r.as_dict() for r in self.expectations],
            "differentials": [r.as_dict() for r in self.differentials],
            "invariants": [r.as_dict() for r in self.invariants],
        }

    def to_json(self) -> str:
        """Deterministic serialization: same seed -> byte-identical output."""
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, default=_jsonify
        ) + "\n"

    def format(self) -> str:
        """Human-readable summary, failures expanded."""
        lines = [f"conformance report (seed {self.seed})", ""]
        for layer, c in self.counts().items():
            lines.append(
                f"  {layer:<14} {c['passed']:>3}/{c['total']} passed"
                + (f"  ({c['failed']} FAILED)" if c["failed"] else "")
            )
        by_section: dict[str, list[CheckResult]] = {}
        for r in self.expectations:
            by_section.setdefault(r.section, []).append(r)
        if by_section:
            lines.append("")
            for section in self.sections:
                results = by_section.get(section, [])
                if not results:
                    continue
                n_pass = sum(1 for r in results if r.passed)
                lines.append(f"  {section:<12} {n_pass:>3}/{len(results)}")
        failures = self.failures()
        if failures:
            lines.append("")
            lines.append("failures:")
            lines.extend(f"  {m}" for m in failures)
        lines.append("")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _jsonify(value):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(f"not JSON-serializable: {value!r}")


def run_conformance(
    seed: int = 0,
    sections: tuple[str, ...] | list[str] | None = None,
    machine=None,
) -> ConformanceReport:
    """Run the full conformance battery and return the report.

    ``sections`` restricts the expectation registry to the named paper
    sections (e.g. ``("fig1", "section4b")``); the differential and
    invariant batteries always run in full — they are cheap and global.

    ``machine`` selects a registry machine. Summit (the default, also
    reachable as ``machine="summit"``) runs the full 80-entry paper-pinned
    battery through the unchanged code path — byte-identical to every
    earlier release. Any other machine has no paper numbers to pin, so it
    runs the small structural battery of
    :func:`repro.verify.machines.run_machine_conformance` instead
    (``sections`` does not apply there).
    """
    if machine is not None:
        from repro.machine.spec import resolve_machine

        spec = resolve_machine(machine)
        if spec.key != "summit":
            from repro.verify.machines import run_machine_conformance

            return run_machine_conformance(spec, seed=seed)
    registry = build_registry()
    if sections is not None:
        wanted = set(sections)
        unknown = wanted - {e.section for e in registry}
        if unknown:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown registry sections: {sorted(unknown)}"
            )
        registry = tuple(e for e in registry if e.section in wanted)
    ctx = VerifyContext(seed=seed)
    return ConformanceReport(
        seed=seed,
        sections=tuple(dict.fromkeys(e.section for e in registry)),
        expectations=[e.check(ctx) for e in registry],
        differentials=run_differentials(seed=seed),
        invariants=run_invariants(seed=seed),
    )
