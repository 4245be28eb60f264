"""Adoption-trend analysis over the survey data.

The paper's conclusions extrapolate: INCITE adoption "has grown steadily
from 20% in 2019" and "we expect use of autonomous workflows to increase".
This module quantifies the trend: linear and logistic fits to the per-year
active fraction, with projections, plus the hours-weighted variants of the
usage figures (Section II-C's alternative accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from repro.errors import ConfigurationError
from repro.portfolio.analytics import PortfolioAnalytics
from repro.portfolio.taxonomy import AdoptionStatus, Program


@dataclass(frozen=True)
class TrendFit:
    """A fitted adoption trend for one program."""

    program: Program
    years: tuple[int, ...]
    fractions: tuple[float, ...]
    slope_per_year: float  # linear fit
    intercept: float
    logistic_midpoint: float | None  # year of 50 % adoption, if fit converged
    logistic_rate: float | None

    def linear_projection(self, year: int) -> float:
        """Linear extrapolation, clipped to [0, 1]."""
        return float(np.clip(self.intercept + self.slope_per_year * year, 0, 1))

    def year_reaching(self, fraction: float) -> float:
        """Year at which the linear trend crosses ``fraction``."""
        if not 0 < fraction < 1:
            raise ConfigurationError("fraction must be in (0, 1)")
        if self.slope_per_year <= 0:
            raise ConfigurationError("non-increasing trend never reaches target")
        return (fraction - self.intercept) / self.slope_per_year


def fit_adoption_trend(
    analytics: PortfolioAnalytics, program: Program = Program.INCITE
) -> TrendFit:
    """Fit the active-adoption fraction of ``program`` across its years."""
    table = analytics.usage_by_program_year()
    points = sorted(
        (year, fractions[AdoptionStatus.ACTIVE])
        for (p, year), fractions in table.items()
        if p is program
    )
    if len(points) < 2:
        raise ConfigurationError(f"{program.value}: need >= 2 years to fit a trend")
    years = np.array([y for y, _ in points], dtype=float)
    fractions = np.array([f for _, f in points])

    slope, intercept = np.polyfit(years, fractions, 1)

    midpoint = rate = None
    if len(points) >= 3:
        def logistic(t, mid, k):
            return 1.0 / (1.0 + np.exp(-k * (t - mid)))

        try:
            (midpoint, rate), _ = curve_fit(
                logistic, years, fractions,
                p0=(years.mean() + 5.0, 0.2),
                maxfev=5000,
            )
            midpoint, rate = float(midpoint), float(rate)
            if rate <= 0:
                midpoint = rate = None
        except RuntimeError:
            midpoint = rate = None

    return TrendFit(
        program=program,
        years=tuple(int(y) for y in years),
        fractions=tuple(float(f) for f in fractions),
        slope_per_year=float(slope),
        intercept=float(intercept),
        logistic_midpoint=midpoint,
        logistic_rate=rate,
    )


def usage_accounting_comparison(
    analytics: PortfolioAnalytics,
) -> dict[str, dict[AdoptionStatus, float]]:
    """Project-count vs hours-weighted adoption, side by side."""
    return {
        "by_projects": analytics.overall_usage(by_hours=False),
        "by_hours": analytics.overall_usage(by_hours=True),
    }
