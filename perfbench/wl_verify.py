"""verify: the serial conformance battery behind ``repro verify``.

Each pass builds a fresh ``VerifyContext(seed)`` and the expectation
registry (set-up), then runs the three batteries as separate operations
(timed together): every expectation check, ``run_differentials(seed)`` and
``run_invariants(seed)``. A battery that raises is counted as one failed
check, so a crash in one keeps the others' timings. A traced pass first
touches the context's cached artifacts one by one, which splits the
expectation time into the portfolio, app and workflow layers.

Failed verdicts are the program's own output, reported as ``verify.failed``
and in ``failed_share``; several seeds have known baseline failures. The
benchmark's checks are that every pass reproduces the first pass verdict
for verdict, and that at seed 0 the report bytes equal the committed
golden.
"""

from __future__ import annotations

import json

from harness import ROOT, Context, Outcome, digest

IMPORTS = ["repro.verify", "repro.apps.extreme_scale"]

GOLDEN_SEED0 = ROOT / "tests" / "goldens" / "conformance_summit_seed0.json"

#: (span name, VerifyContext artifact) touched before the checks when traced.
ARTIFACTS = (
    ("portfolio.calibrate", lambda v: v.analytics),
    ("apps.simulate", None),  # every extreme-scale app, see _touch
    ("workflows.case_materials.run", lambda v: v.materials),
    ("workflows.case_biology.run", lambda v: v.biology),
    ("workflows.case_drug.run", lambda v: v.drug),
)


def _touch(span, vctx) -> None:
    from repro.apps.extreme_scale import EXTREME_SCALE_APPS

    for name, artifact in ARTIFACTS:
        with span(name):
            if artifact is None:
                for key in EXTREME_SCALE_APPS:
                    vctx.app_result(key)
            else:
                artifact(vctx)


def _battery(span, name: str, body):
    """Run one battery; a raised error becomes its (repeatable) verdict."""
    with span(name):
        try:
            return body(), None
        except Exception as exc:  # a known baseline failure: count, go on
            return None, f"{type(exc).__name__}: {exc}"


def run(ctx: Context) -> Outcome:
    from repro.verify import (
        ConformanceReport, VerifyContext, build_registry, run_differentials,
        run_invariants,
    )

    span = ctx.tracer.span
    first: dict = {}
    batteries = ("expectations", "differentials", "invariants")

    def one_pass(i: int) -> None:
        with ctx.measure("setup", "verify.setup"):
            vctx = VerifyContext(seed=ctx.seed)
            registry = build_registry()
        with ctx.measure("run", "verify.run"):
            if ctx.tracer.enabled:
                _touch(span, vctx)
            outcomes = dict(zip(batteries, (
                _battery(span, "verify.expectations",
                         lambda: [e.check(vctx) for e in registry]),
                _battery(span, "verify.differentials",
                         lambda: run_differentials(seed=ctx.seed)),
                _battery(span, "verify.invariants",
                         lambda: run_invariants(seed=ctx.seed)),
            )))

        verdicts: list[str] = []  # one canonical line per judged check
        failed = 0
        for name, (results, error) in outcomes.items():
            if error is not None:
                verdicts.append(f"{name}: {error}")
                failed += 1
                continue
            for r in results:
                verdicts.append(json.dumps(r.as_dict(), sort_keys=True,
                                           default=repr))
                failed += not r.passed
        if i == 0:
            first.update(verdicts=verdicts, failed=failed)
        else:
            want = first["verdicts"]
            bad = [f"check {k}: verdict differs from the first pass"
                   for k in range(max(len(want), len(verdicts)))
                   if want[k:k + 1] != verdicts[k:k + 1]]
            ctx.checks.count(len(verdicts), bad)
        if ctx.seed == 0:
            report = ConformanceReport(
                seed=0,
                sections=tuple(dict.fromkeys(e.section for e in registry)),
                expectations=outcomes["expectations"][0] or [],
                differentials=outcomes["differentials"][0] or [],
                invariants=outcomes["invariants"][0] or [],
            )
            ctx.checks.expect(
                GOLDEN_SEED0.is_file()
                and report.to_json() == GOLDEN_SEED0.read_text(),
                f"seed-0 report differs from {GOLDEN_SEED0.name}",
            )

    ctx.passes(one_pass)
    n_checks = len(first["verdicts"])
    outcome = Outcome(
        items=n_checks,
        metrics={
            "verify_s": (ctx.median("run"), "s"),
            "checks": (n_checks, "count"),
            "failed_checks": (first["failed"], "count"),
        },
        failed_share=(first["failed"], n_checks, "conformance checks"),
        digest=digest("\n".join(first["verdicts"])),
    )
    if ctx.trace:
        tr = ctx.tracer
        outcome.layers = {
            f"{name}_s": tr.median(name) for name, _ in ARTIFACTS
        }
        outcome.layers.update({
            f"verify.{name}_s": tr.median(f"verify.{name}")
            for name in batteries
        })
        outcome.layers["verify.checks"] = n_checks
        outcome.layers["verify.failed"] = first["failed"]
    return outcome
