"""Text tables of the survey figures — what ``repro survey`` prints."""

from __future__ import annotations

from repro.portfolio.analytics import PortfolioAnalytics
from repro.portfolio.taxonomy import AdoptionStatus, Domain, MLMethod, Motif


def render_fig1(analytics: PortfolioAnalytics) -> str:
    usage = analytics.overall_usage()
    lines = ["Fig. 1 — Overall AI/ML usage (% of projects)"]
    for status in AdoptionStatus:
        lines.append(f"  {status.value:<10} {usage[status] * 100:5.1f}%")
    return "\n".join(lines)


def render_fig2(analytics: PortfolioAnalytics) -> str:
    table = analytics.usage_by_program_year()
    lines = [
        "Fig. 2 — AI/ML usage by program and year (% of projects)",
        f"  {'program':<10} {'year':>5} {'active':>8} {'inactive':>9} {'none':>7}",
    ]
    for (program, year), fractions in table.items():
        lines.append(
            f"  {program.value:<10} {year:>5} "
            f"{fractions[AdoptionStatus.ACTIVE] * 100:>7.1f}% "
            f"{fractions[AdoptionStatus.INACTIVE] * 100:>8.1f}% "
            f"{fractions[AdoptionStatus.NONE] * 100:>6.1f}%"
        )
    return "\n".join(lines)


def render_fig3(analytics: PortfolioAnalytics) -> str:
    usage = analytics.usage_by_method()
    lines = ["Fig. 3 — Usage by AI/ML method (% of AI projects)"]
    for method in MLMethod:
        lines.append(f"  {method.value:<14} {usage[method] * 100:5.1f}%")
    return "\n".join(lines)


def render_fig4(analytics: PortfolioAnalytics) -> str:
    table = analytics.usage_by_domain()
    lines = [
        "Fig. 4 — AI/ML usage by science domain (project counts)",
        f"  {'domain':<18} {'active':>7} {'inactive':>9} {'none':>6} {'total':>6}",
    ]
    for domain in Domain:
        row = table[domain]
        total = sum(row.values())
        lines.append(
            f"  {domain.value:<18} {row[AdoptionStatus.ACTIVE]:>7} "
            f"{row[AdoptionStatus.INACTIVE]:>9} {row[AdoptionStatus.NONE]:>6} "
            f"{total:>6}"
        )
    return "\n".join(lines)


def render_fig5(analytics: PortfolioAnalytics) -> str:
    counts = analytics.usage_by_motif()
    total = sum(counts.values())
    lines = ["Fig. 5 — AI/ML usage by motif (INCITE+ALCC+ECP AI projects)"]
    for motif in sorted(Motif, key=lambda m: counts[m], reverse=True):
        lines.append(
            f"  {motif.value:<18} {counts[motif]:>4}  "
            f"{counts[motif] / total * 100:5.1f}%"
        )
    return "\n".join(lines)


def render_fig6(analytics: PortfolioAnalytics) -> str:
    matrix = analytics.motif_by_domain()
    abbrev = {
        Domain.BIOLOGY: "BIO", Domain.CHEMISTRY: "CHE",
        Domain.COMPUTER_SCIENCE: "CS", Domain.EARTH_SCIENCE: "EAR",
        Domain.ENGINEERING: "ENG", Domain.FUSION_PLASMA: "FUS",
        Domain.MATERIALS: "MAT", Domain.NUCLEAR_ENERGY: "NUC",
        Domain.PHYSICS: "PHY",
    }
    header = "  " + f"{'motif':<18}" + "".join(f"{abbrev[d]:>5}" for d in Domain)
    lines = ["Fig. 6 — AI motif vs science domain (project counts)", header]
    for motif in Motif:
        row = matrix[motif]
        lines.append(
            "  " + f"{motif.value:<18}"
            + "".join(f"{row[d]:>5}" for d in Domain)
        )
    return "\n".join(lines)


def render_all(analytics: PortfolioAnalytics) -> str:
    return "\n\n".join(
        fn(analytics)
        for fn in (
            render_fig1, render_fig2, render_fig3,
            render_fig4, render_fig5, render_fig6,
        )
    )
