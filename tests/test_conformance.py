"""The paper-parity conformance suite: registry, differentials, invariants.

Every expectation in :mod:`repro.verify.expectations` runs as its own
parametrized tier-1 test (failures name the paper citation and the
measured-vs-paper delta), the cross-path differential runners and
structural auditors run over the session-scoped report fixture, and the
``repro verify`` CLI contract — deterministic byte-identical JSON — is
pinned here too.
"""

import json

import pytest

from repro.verify import VerifyContext, build_registry
from repro.verify.report import run_conformance

REGISTRY = {e.key: e for e in build_registry()}
REGISTRY_KEYS = list(REGISTRY)


# ---------------------------------------------------------------------------
# Registry structure
# ---------------------------------------------------------------------------


def test_registry_covers_every_paper_section():
    # the section order run_conformance reports
    sections = tuple(dict.fromkeys(e.section for e in build_registry()))
    assert sections == (
        "table1", "table2", "table3",
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
        "section4b", "section5", "section6b",
    )


def test_registry_keys_unique_and_complete():
    registry = build_registry()
    assert len(registry) >= 80
    assert len({e.key for e in registry}) == len(registry)
    for e in registry:
        assert e.description and e.paper, e.key
        assert e.provenance in ("stated", "estimated", "structural"), e.key


def test_every_section4b_app_has_registry_entries():
    keys = set(REGISTRY_KEYS)
    for app in ("kurth", "yang", "laanait", "khan", "blanchard"):
        assert any(k.startswith(f"section4b.{app}.") for k in keys), app


# ---------------------------------------------------------------------------
# The registry itself, one test per paper-stated quantity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", REGISTRY_KEYS)
def test_expectation(key, verify_context):
    result = REGISTRY[key].check(verify_context)
    assert result.passed, result.message()


# ---------------------------------------------------------------------------
# Section IV-B goldens: calibration drift fails loudly
# ---------------------------------------------------------------------------

#: Exact values the current calibration produces. Tolerance is loose enough
#: to survive benign float-level refactors, tight enough that any real
#: recalibration (changed plan, changed kernel) trips the pin — the paper
#: tolerance alone (2-3 %) would let silent drift accumulate.
SECTION4B_GOLDENS = {
    "kurth": {"measured_flops": 1.130174481973284e18,
              "measured_efficiency": 0.9072589364166656},
    "yang": {"measured_flops": 1.2119694664127747e18,
             "measured_efficiency": 0.9321996411645688},
    "laanait": {"measured_flops": 2.1499761136734195e18,
                "measured_efficiency": 0.9700727715638544},
    "khan": {"measured_flops": 2.7326940944901436e16,
             "measured_efficiency": 0.8131242957274286},
    "blanchard": {"measured_flops": 6.017270674912498e17,
                  "measured_efficiency": 0.6984096221204704},
}


@pytest.mark.parametrize("app_key", sorted(SECTION4B_GOLDENS))
def test_section4b_goldens(app_key, verify_context):
    result = verify_context.app_result(app_key)
    for field, golden in SECTION4B_GOLDENS[app_key].items():
        measured = result[field]
        delta = (measured - golden) / golden
        assert measured == pytest.approx(golden, rel=1e-09), (
            f"{app_key}.{field} drifted from its calibrated value: "
            f"pinned {golden!r}, measured {measured!r} "
            f"(rel. delta {delta:+.3e}). If this recalibration is "
            f"intentional, re-check the paper expectation "
            f"(section4b.{app_key}.*) still passes and update the golden."
        )


def test_section4b_golden_blanchard_no_io(verify_context):
    measured = verify_context.blanchard_no_io["measured_efficiency"]
    assert measured == pytest.approx(0.8469919688613947, rel=1e-09), (
        f"blanchard no-I/O efficiency drifted: measured {measured!r} "
        "(paper: 83.3% without I/O costs, Sec. IV-B.5)"
    )


def test_section4b_golden_global_batches(verify_context):
    assert verify_context.app_global_batch("laanait") == 27600
    assert verify_context.app_global_batch("blanchard") == 5806080


# ---------------------------------------------------------------------------
# Differential runners + invariant auditors (session report fixture)
# ---------------------------------------------------------------------------


def test_differentials_all_pass(conformance_report):
    failed = [r.message() for r in conformance_report.differentials
              if not r.passed]
    assert len(conformance_report.differentials) >= 6
    assert not failed, "\n".join(failed)


def test_invariants_all_pass(conformance_report):
    failed = [r.message() for r in conformance_report.invariants
              if not r.passed]
    assert len(conformance_report.invariants) >= 7
    assert not failed, "\n".join(failed)


def test_invariant_default_run_completes_at_every_seed():
    """The audited DAG never exhausts its retry budget (seeds 0-63)."""
    from repro.verify.invariants import _default_run

    for seed in range(64):
        run, graph, _ = _default_run(seed)
        assert set(run.end_times) == set(graph.tasks), seed


def test_report_passes_and_serializes(conformance_report):
    assert conformance_report.passed
    payload = json.loads(conformance_report.to_json())
    assert payload["passed"] is True
    assert payload["schema"] == 1
    assert payload["counts"]["expectations"]["failed"] == 0
    assert "FAIL" not in conformance_report.format().splitlines()[-1]


def test_report_byte_determinism():
    """Same seed -> byte-identical JSON (the CI artifact contract)."""
    sections = ("table1", "table2", "table3", "fig3")
    first = run_conformance(seed=0, sections=sections)
    second = run_conformance(seed=0, sections=sections)
    assert first.to_json() == second.to_json()
    assert json.loads(first.to_json())["sections"] == list(sections)


def test_run_conformance_rejects_unknown_section():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_conformance(sections=("fig1", "nonexistent"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_verify_json(capsys, tmp_path):
    from repro.cli import main

    out_path = tmp_path / "conformance.json"
    code = main([
        "verify", "--sections", "table1,table2,fig3",
        "--json", "--out", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert capsys.readouterr().out.strip().endswith(str(out_path))


def test_cli_verify_list(capsys):
    from repro.cli import main

    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "section4b.kurth.peak_flops" in out
    assert "Sec. VI-B" in out


# ---------------------------------------------------------------------------
# Expectation semantics
# ---------------------------------------------------------------------------


def test_expectation_comparison_modes():
    from repro.verify import Expectation

    approx = Expectation(
        key="t.approx", section="t", description="d", paper="p",
        provenance="stated", expected=100.0, rel_tol=0.05,
        measure=lambda ctx: None,
    )
    assert approx.compare(104.0).passed
    assert not approx.compare(106.0).passed
    assert approx.compare(104.0).rel_error == pytest.approx(0.04)

    bound = Expectation(
        key="t.bound", section="t", description="d", paper="p",
        provenance="stated", expected=10.0, cmp="lt",
        measure=lambda ctx: None,
    )
    assert bound.compare(9.9).passed
    assert not bound.compare(10.0).passed

    exact = Expectation(
        key="t.exact", section="t", description="d", paper="p",
        provenance="stated", expected=False, cmp="exact",
        measure=lambda ctx: None,
    )
    assert exact.compare(False).passed
    assert not exact.compare(True).passed


def test_expectation_rejects_bad_config():
    from repro.errors import ConfigurationError
    from repro.verify import Expectation

    with pytest.raises(ConfigurationError):
        Expectation(
            key="t.bad", section="t", description="d", paper="p",
            provenance="stated", expected=1.0, cmp="nearly",
            measure=lambda ctx: None,
        )
    with pytest.raises(ConfigurationError):
        Expectation(  # approx without any tolerance
            key="t.bad2", section="t", description="d", paper="p",
            provenance="stated", expected=1.0, measure=lambda ctx: None,
        )


def test_verify_context_caches_measurements():
    ctx = VerifyContext(seed=0)
    assert ctx.app_result("khan") is ctx.app_result("khan")
    assert ctx.overall_usage is ctx.overall_usage
